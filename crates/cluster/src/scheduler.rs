//! Mediator-side scan scheduler: batches concurrently submitted queries
//! over the same scan key into one shared atom scan.
//!
//! The first query to arrive for a [`ScanGroupKey`] becomes the batch
//! *leader*: it holds the batch open until `max_batch` queries have
//! joined or the coalescing window expires, then runs the whole batch
//! through [`Cluster::run_batch`] and distributes the per-query answers.
//! A query that arrives after a batch closed opens the next one — a scan
//! never picks up participants mid-flight, which is what gives joiners
//! snapshot isolation from partially built cache entries.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use tdb_storage::{StorageError, StorageResult};

use crate::config::CoalesceConfig;
use crate::mediator::{BatchAnswer, BatchQuery, Cluster};
use crate::scatter::ScanGroupKey;

type Delivery = SyncSender<StorageResult<BatchAnswer>>;

struct Batch {
    entries: Vec<(BatchQuery, Delivery)>,
}

/// Coalesces concurrent queries into shared-scan batches.
pub struct ScanScheduler {
    window: Duration,
    max_batch: usize,
    open: Mutex<HashMap<ScanGroupKey, Batch>>,
    joined: Condvar,
}

impl ScanScheduler {
    /// A scheduler with the given batching knobs.
    pub fn new(config: CoalesceConfig) -> Self {
        Self {
            window: Duration::from_millis(config.window_ms),
            max_batch: config.max_batch.max(1),
            open: Mutex::new(HashMap::new()),
            joined: Condvar::new(),
        }
    }

    /// Submits one query and blocks until its batch has run, returning
    /// this query's own answer.
    pub(crate) fn submit(
        &self,
        cluster: &Cluster,
        query: BatchQuery,
    ) -> StorageResult<BatchAnswer> {
        let key = ScanGroupKey::of(query.request());
        let (tx, rx) = sync_channel(1);
        let leader = {
            let mut open = self.open.lock();
            loop {
                match open.get_mut(&key) {
                    Some(batch) if batch.entries.len() < self.max_batch => {
                        batch.entries.push((query, tx));
                        self.joined.notify_all();
                        break false;
                    }
                    Some(_) => {
                        // the open batch is already full; its leader just
                        // hasn't woken to close it yet. Joining anyway
                        // would overshoot max_batch, so wait for the
                        // close and open (or join) the next batch.
                        self.joined.wait(&mut open);
                    }
                    None => {
                        open.insert(
                            key.clone(),
                            Batch {
                                entries: vec![(query, tx)],
                            },
                        );
                        break true;
                    }
                }
            }
        };
        if leader {
            let deadline = Instant::now() + self.window;
            let mut open = self.open.lock();
            while open.get(&key).map_or(0, |b| b.entries.len()) < self.max_batch {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                if self.joined.wait_for(&mut open, deadline - now).timed_out() {
                    break;
                }
            }
            // removing the batch closes it: later arrivals open the next
            // one. The notify wakes queries parked on a full batch —
            // without it a run at max_batch strands them forever.
            let closed = open.remove(&key);
            self.joined.notify_all();
            drop(open);
            let Some(batch) = closed else {
                return Err(StorageError::internal(
                    "scan-group batch vanished under its leader",
                ));
            };
            let n = batch.entries.len();
            tdb_obs::m::SCHEDULER_BATCHES.inc();
            if n > 1 {
                tdb_obs::m::SCHEDULER_COALESCED.add((n - 1) as u64);
            }
            let (queries, txs): (Vec<_>, Vec<_>) = batch.entries.into_iter().unzip();
            for (answer, tx) in cluster.run_batch(queries).into_iter().zip(txs) {
                // a joiner that gave up (disconnected) must not fail the rest
                let _ = tx.send(answer);
            }
        }
        rx.recv().unwrap_or_else(|_| {
            Err(StorageError::internal(
                "batch leader dropped without delivering an answer",
            ))
        })
    }
}
