//! Batch queries and MyDB — the paper's §7 future work, implemented.
//!
//! "We plan on deploying a server-side computing environment for users
//! similar to the CasJobs service for the Sloan Digital Sky Survey. In
//! such an environment users can run queries in batch mode and save their
//! results in a personal database called MyDB, which resides on the
//! servers near the data."
//!
//! A [`BatchSession`] owns a background worker that drains a job queue
//! against the service; every job writes its result into the session's
//! [`MyDb`], a quota-bounded per-user result store that later jobs (and
//! the user) can read back without re-running the query.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use tdb_cache::ThresholdPoint;

use crate::query::ThresholdQuery;
use crate::service::TurbulenceService;

/// Identifies a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// What a batch job runs: a threshold query whose points land in
/// `output_table`.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub query: ThresholdQuery,
    pub output_table: String,
}

/// Jobs a session holds queued or running at once; the next submission
/// is refused until one finishes (a whole-time-step scan each: a client
/// must not be able to queue them without limit).
pub const MAX_PENDING_JOBS: usize = 64;

/// Finished jobs a session remembers. A resident server sees jobs for as
/// long as it lives; an older one's state is forgotten (its MyDB table is
/// not) and asking for it answers "unknown job".
pub const MAX_FINISHED_JOBS: usize = 1024;

/// Life cycle of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    Queued,
    Running,
    /// Finished; `rows` were written to the output table.
    Done {
        rows: usize,
        modelled_s: f64,
    },
    Failed(String),
}

impl JobState {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done { .. } | JobState::Failed(_))
    }
}

/// One saved result table.
#[derive(Debug, Clone)]
pub struct MyDbTable {
    /// The query that produced it, rendered for provenance.
    pub provenance: String,
    pub points: Vec<ThresholdPoint>,
}

impl MyDbTable {
    fn bytes(&self) -> u64 {
        64 + self.points.len() as u64 * 12
    }
}

/// The per-user result store.
#[derive(Debug)]
pub struct MyDb {
    tables: Mutex<BTreeMap<String, MyDbTable>>,
    quota_bytes: u64,
}

impl MyDb {
    fn new(quota_bytes: u64) -> Self {
        Self {
            tables: Mutex::new(BTreeMap::new()),
            quota_bytes,
        }
    }

    /// Stores a table, enforcing the quota. Replacing a table reclaims its
    /// old footprint first.
    pub fn put(&self, name: &str, table: MyDbTable) -> Result<(), String> {
        let mut tables = self.tables.lock();
        let existing: u64 = tables
            .iter()
            .filter(|(n, _)| n.as_str() != name)
            .map(|(_, t)| t.bytes())
            .sum();
        if existing + table.bytes() > self.quota_bytes {
            return Err(format!(
                "MyDB quota exceeded: {} + {} bytes > {} quota",
                existing,
                table.bytes(),
                self.quota_bytes
            ));
        }
        tables.insert(name.to_string(), table);
        Ok(())
    }

    /// Reads a table.
    pub fn get(&self, name: &str) -> Option<MyDbTable> {
        self.tables.lock().get(name).cloned()
    }

    /// Lists table names.
    pub fn list(&self) -> Vec<String> {
        self.tables.lock().keys().cloned().collect()
    }

    /// Total stored bytes.
    pub fn used_bytes(&self) -> u64 {
        self.tables.lock().values().map(MyDbTable::bytes).sum()
    }
}

struct JobBoard {
    states: Mutex<BTreeMap<JobId, JobState>>,
    changed: Condvar,
}

/// A batch-mode session bound to one service.
pub struct BatchSession {
    mydb: Arc<MyDb>,
    board: Arc<JobBoard>,
    sender: Option<mpsc::Sender<(JobId, JobSpec)>>,
    worker: Option<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl BatchSession {
    /// Opens a session with a MyDB quota (paper's MyDB "resides on the
    /// servers near the data" — here, next to the service).
    pub fn open(service: Arc<TurbulenceService>, quota_bytes: u64) -> Self {
        let mydb = Arc::new(MyDb::new(quota_bytes));
        let board = Arc::new(JobBoard {
            states: Mutex::new(BTreeMap::new()),
            changed: Condvar::new(),
        });
        let (tx, rx) = mpsc::channel::<(JobId, JobSpec)>();
        let worker_mydb = Arc::clone(&mydb);
        let worker_board = Arc::clone(&board);
        let worker = std::thread::spawn(move || {
            for (id, spec) in rx {
                set_state(&worker_board, id, JobState::Running);
                let outcome = run_job(&service, &worker_mydb, &spec);
                let state = match outcome {
                    Ok((rows, modelled_s)) => JobState::Done { rows, modelled_s },
                    Err(msg) => JobState::Failed(msg),
                };
                set_state(&worker_board, id, state);
            }
        });
        Self {
            mydb,
            board,
            sender: Some(tx),
            worker: Some(worker),
            next_id: AtomicU64::new(1),
        }
    }

    /// Enqueues a job and returns its id immediately, or `None` while
    /// [`MAX_PENDING_JOBS`] are queued or running. If the session is
    /// shutting down (queue closed or worker gone) the job lands directly
    /// in a terminal [`JobState::Failed`] instead of panicking.
    pub fn submit(&self, spec: JobSpec) -> Option<JobId> {
        let id = {
            // counted and queued under one lock: racing submitters cannot
            // both take the last place
            let mut states = self.board.states.lock();
            let pending = states.values().filter(|s| !s.is_terminal()).count();
            if pending >= MAX_PENDING_JOBS {
                return None;
            }
            let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
            states.insert(id, JobState::Queued);
            id
        };
        let sent = self
            .sender
            .as_ref()
            .is_some_and(|tx| tx.send((id, spec)).is_ok());
        if !sent {
            set_state(
                &self.board,
                id,
                JobState::Failed("batch session is shut down".to_string()),
            );
        }
        Some(id)
    }

    /// Current state of a job; `None` for an id never issued or forgotten.
    pub fn status(&self, id: JobId) -> Option<JobState> {
        self.board.states.lock().get(&id).cloned()
    }

    /// How many jobs the session holds a state for, of any kind: at most
    /// [`MAX_PENDING_JOBS`] + [`MAX_FINISHED_JOBS`].
    pub fn tracked_jobs(&self) -> usize {
        self.board.states.lock().len()
    }

    /// Blocks until the job reaches a terminal state. An id this session
    /// never issued resolves to a terminal [`JobState::Failed`] rather
    /// than blocking forever or panicking.
    pub fn wait(&self, id: JobId) -> JobState {
        let mut states = self.board.states.lock();
        loop {
            match states.get(&id) {
                Some(s) if s.is_terminal() => return s.clone(),
                Some(_) => self.board.changed.wait(&mut states),
                None => return JobState::Failed(format!("unknown job {id:?}")),
            }
        }
    }

    /// The session's result store.
    pub fn mydb(&self) -> &MyDb {
        &self.mydb
    }
}

/// Drains the queue and shuts the worker down.
impl Drop for BatchSession {
    fn drop(&mut self) {
        self.sender.take(); // closing the channel ends the worker loop
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

fn set_state(board: &JobBoard, id: JobId, state: JobState) {
    let mut states = board.states.lock();
    let finished = state.is_terminal();
    states.insert(id, state);
    if finished && states.values().filter(|s| s.is_terminal()).count() > MAX_FINISHED_JOBS {
        // ids grow with time: the first finished entry is the oldest
        let oldest = states.iter().find(|(_, s)| s.is_terminal());
        if let Some(id) = oldest.map(|(id, _)| *id) {
            states.remove(&id);
        }
    }
    drop(states);
    board.changed.notify_all();
}

fn run_job(
    service: &TurbulenceService,
    mydb: &MyDb,
    spec: &JobSpec,
) -> Result<(usize, f64), String> {
    let query = &spec.query;
    let r = service.get_threshold(query).map_err(|e| e.to_string())?;
    let provenance = format!(
        "threshold {}/{} t={} k={}",
        query.raw_field,
        query.derived.name(),
        query.timestep,
        query.threshold
    );
    let rows = r.points.len();
    let table = MyDbTable {
        provenance,
        points: r.points,
    };
    mydb.put(&spec.output_table, table)?;
    Ok((rows, r.breakdown.total_s()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::DerivedField;

    /// Removes the archive's directory when the test is done with it.
    struct RemoveOnDrop(std::path::PathBuf);

    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn small_service(tag: &str) -> (Arc<TurbulenceService>, RemoveOnDrop) {
        let dir = std::env::temp_dir().join(format!("tdb_batch_{tag}_{}", std::process::id()));
        let mut config = ServiceConfig::mhd(&dir, 32, 2, 0xbeef);
        config.cluster.num_nodes = 2;
        let service = TurbulenceService::build(config).expect("build");
        (Arc::new(service), RemoveOnDrop(dir))
    }

    fn submit(session: &BatchSession, query: ThresholdQuery, output_table: &str) -> JobId {
        let spec = JobSpec {
            query,
            output_table: output_table.into(),
        };
        session.submit(spec).expect("room on the job board")
    }

    #[test]
    fn jobs_run_and_results_land_in_mydb() {
        let (service, _dir) = small_service("run");
        let session = BatchSession::open(Arc::clone(&service), 10 << 20);
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 30.0);
        let job = submit(&session, q.clone(), "intense_t0");
        let state = session.wait(job);
        let JobState::Done { rows, modelled_s } = state else {
            panic!("job failed: {state:?}");
        };
        assert!(modelled_s > 0.0);
        let table = session.mydb().get("intense_t0").expect("table saved");
        assert_eq!(table.points.len(), rows);
        assert!(table.provenance.contains("curl_norm"));
        // identical to running the query interactively
        let direct = service.get_threshold(&q).unwrap();
        assert_eq!(direct.points.len(), rows);
        drop(session); // drains the queue and joins the worker
    }

    #[test]
    fn jobs_execute_in_submission_order_and_states_progress() {
        let (service, _dir) = small_service("order");
        let session = BatchSession::open(Arc::clone(&service), 10 << 20);
        let curl = |t| ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, t, 35.0);
        let q_crit = ThresholdQuery::whole_timestep("velocity", DerivedField::QCriterion, 0, 400.0);
        let a = submit(&session, curl(0), "a");
        let b = submit(&session, curl(1), "b");
        let c = submit(&session, q_crit.clone(), "c");
        assert!(session.wait(a).is_terminal());
        assert!(session.wait(b).is_terminal());
        let JobState::Done { rows, .. } = session.wait(c) else {
            panic!("Q-criterion job failed");
        };
        assert!(rows > 0);
        assert_eq!(rows, service.get_threshold(&q_crit).unwrap().points.len());
        let mut names = session.mydb().list();
        names.sort();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn failed_jobs_report_the_query_error() {
        let (service, _dir) = small_service("fail");
        let session = BatchSession::open(service, 10 << 20);
        let bogus = ThresholdQuery::whole_timestep("bogus", DerivedField::Norm, 0, 1.0);
        let job = submit(&session, bogus, "never");
        let JobState::Failed(msg) = session.wait(job) else {
            panic!("expected failure");
        };
        assert!(msg.contains("unknown raw field"));
        assert!(session.mydb().get("never").is_none());
    }

    #[test]
    fn mydb_quota_is_enforced() {
        let (service, _dir) = small_service("quota");
        // tiny quota: a whole-timestep low-threshold result cannot fit
        let session = BatchSession::open(service, 256);
        let low = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 20.0);
        let job = submit(&session, low, "big");
        let JobState::Failed(msg) = session.wait(job) else {
            panic!("expected quota failure");
        };
        assert!(msg.contains("quota"), "{msg}");
        assert_eq!(session.mydb().used_bytes(), 0);
    }

    #[test]
    fn mydb_tables_replace_within_quota() {
        let db = MyDb::new(10_000);
        let table = |n: usize| MyDbTable {
            provenance: "p".into(),
            points: (0..n as u32)
                .map(|i| ThresholdPoint::at(i, 0, 0, 1.0))
                .collect(),
        };
        db.put("t", table(100)).unwrap();
        let used = db.used_bytes();
        // replacing reclaims the old footprint before checking the quota
        db.put("t", table(400)).unwrap();
        assert!(db.used_bytes() > used);
        assert_eq!(db.list(), vec!["t"]);
        // quota check on a fresh insert
        assert!(db.put("huge", table(2000)).is_err());
    }
}
