//! Admission control for the front-end server.
//!
//! The paper's mediator serves "a large number of simultaneous users"
//! from a small cluster; an unbounded thread-per-connection server would
//! let a burst of expensive scans oversubscribe the nodes and collapse
//! every query's latency at once. The [`AdmissionQueue`] bounds the
//! number of in-flight data queries (`max_inflight`), parks a bounded
//! backlog (`queue_depth`) and load-sheds anything beyond it with a
//! typed [`Busy`](crate::proto::Response::Busy) response so clients can
//! back off and retry instead of timing out.
//!
//! Admission is *weighted fair queueing across tenants*: requests carry
//! an API key that maps to a [`TenantSpec`] with a scheduling weight, an
//! in-flight quota and a shed priority. Each tenant keeps a virtual-time
//! accumulator that advances by `1/weight` per admitted query; when a
//! slot frees up the eligible tenant with the smallest virtual time wins,
//! so over any busy interval tenants are served in proportion to their
//! weights and an idle tenant never banks unbounded credit (its clock is
//! floored to the active minimum on re-entry). Within a tenant the waiter
//! from the connection with the *fewest queries served so far* wins, with
//! arrival order breaking ties — a chatty connection cannot starve a
//! quiet one. When the wait queue is full, an arrival from a tenant with
//! a higher shed priority evicts the lowest-priority newest waiter
//! instead of being shed itself.
//!
//! Requests without an API key (and with an unknown one) belong to the
//! built-in anonymous tenant: weight 1, no private quota, shed priority
//! 0. With no tenants configured every request lands there and the queue
//! degenerates to the original single-class fair queue.
//!
//! Metrics: `admission.admitted` / `admission.shed` counters, the
//! `admission.queue_depth` gauge, the `admission.wait_s` histogram, and
//! per-tenant `qos.admitted.*` / `qos.shed.*` families plus the
//! `qos.evicted` count of waiters displaced by higher-priority arrivals.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use tdb_obs::{m, Counter};

/// One tenant's QoS contract, matched by API key.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The key carried in the request envelope's `api_key` field.
    pub api_key: String,
    /// WFQ weight: over a busy interval this tenant gets `weight / Σ
    /// weights` of the admitted queries.
    pub weight: u64,
    /// Private in-flight quota; the global `max_inflight` still applies.
    pub max_inflight: usize,
    /// Queue-full arbitration rank: an arrival evicts a parked waiter of
    /// strictly lower priority instead of being shed. Anonymous traffic
    /// has priority 0.
    pub shed_priority: u8,
}

impl TenantSpec {
    /// A tenant with the given key and weight, no private quota, and
    /// shed priority 1 (above anonymous traffic).
    pub fn new(api_key: impl Into<String>, weight: u64) -> Self {
        Self {
            api_key: api_key.into(),
            weight: weight.max(1),
            max_inflight: usize::MAX,
            shed_priority: 1,
        }
    }

    /// Caps this tenant's concurrently evaluating queries.
    pub fn with_max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }

    /// Sets the queue-full arbitration rank.
    pub fn with_shed_priority(mut self, priority: u8) -> Self {
        self.shed_priority = priority;
        self
    }
}

/// Sizing knobs for the admission queue.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Data queries evaluated concurrently; further ones wait.
    pub max_inflight: usize,
    /// Waiters parked beyond `max_inflight`; further ones are shed.
    pub queue_depth: usize,
    /// Suggested client back-off carried in the `Busy` response, ms.
    pub busy_retry_ms: u64,
    /// Tenant QoS contracts; unknown or absent API keys map to the
    /// built-in anonymous tenant.
    pub tenants: Vec<TenantSpec>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_inflight: 8,
            queue_depth: 32,
            busy_retry_ms: 100,
            tenants: Vec::new(),
        }
    }
}

/// Per-tenant scheduler state.
struct Tenant {
    spec: TenantSpec,
    /// `qos.admitted.<label>` / `qos.shed.<label>`, the label being the
    /// API key, or `anonymous` for the default tenant.
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    /// Queries this tenant has evaluating right now.
    inflight: usize,
    /// WFQ virtual finish time; advances by `1/weight` per grant.
    vtime: f64,
}

/// A parked admission request.
struct Waiter {
    tenant: usize,
    conn: u64,
    seq: u64,
}

#[derive(Default)]
struct Inner {
    inflight: usize,
    waiting: Vec<Waiter>,
    /// Arrival seqs whose slot has been handed over but not yet claimed.
    granted: HashSet<u64>,
    /// Arrival seqs displaced from a full queue by a higher-priority
    /// arrival; they wake to a `Busy` verdict.
    evicted: HashSet<u64>,
    /// Queries served per (tenant, connection), for the fairness rule.
    served: HashMap<(usize, u64), u64>,
    tenants: Vec<Tenant>,
    next_seq: u64,
}

impl Inner {
    /// The tenant at `t` — indices come from [`Inner::tenant_of`] or a
    /// parked [`Waiter`], both bounded by the immutable tenant table.
    fn tenant(&self, t: usize) -> &Tenant {
        #[allow(clippy::indexing_slicing)] // index provenance per the doc above
        &self.tenants[t]
    }

    /// Mutable access with the same index provenance as [`Inner::tenant`].
    fn tenant_mut(&mut self, t: usize) -> &mut Tenant {
        #[allow(clippy::indexing_slicing)] // index provenance per the doc above
        &mut self.tenants[t]
    }

    /// Index of the tenant owning `api_key` (anonymous on no match).
    fn tenant_of(&self, api_key: Option<&str>) -> usize {
        api_key
            .and_then(|key| {
                self.tenants
                    .iter()
                    .position(|t| !t.spec.api_key.is_empty() && t.spec.api_key == key)
            })
            .unwrap_or(0)
    }

    /// Advances `t`'s virtual clock for one grant, flooring it to the
    /// minimum over active tenants so an idle tenant re-enters at the
    /// current service frontier instead of with banked credit.
    fn bump_vtime(&mut self, t: usize) {
        let mut floor = f64::INFINITY;
        for (i, tenant) in self.tenants.iter().enumerate() {
            let active = tenant.inflight > 0 || self.waiting.iter().any(|w| w.tenant == i);
            if active && tenant.vtime < floor {
                floor = tenant.vtime;
            }
        }
        if !floor.is_finite() {
            floor = 0.0;
        }
        let tenant = self.tenant_mut(t);
        tenant.vtime = tenant.vtime.max(floor) + 1.0 / tenant.spec.weight as f64;
    }

    /// Whether tenant `t` may start another query under its quota.
    fn under_quota(&self, t: usize) -> bool {
        let tenant = self.tenant(t);
        tenant.inflight < tenant.spec.max_inflight
    }
}

/// The verdict for one query.
pub enum Admission {
    /// Run it; drop the permit when done.
    Granted(Permit),
    /// Shed: the queue is full. Carries the depth seen and a retry hint.
    Busy { queue_depth: usize, retry_ms: u64 },
}

/// Bounded in-flight counter plus a weighted-fair bounded wait queue.
pub struct AdmissionQueue {
    pub(crate) config: AdmissionConfig,
    inner: Mutex<Inner>,
    freed: Condvar,
}

impl AdmissionQueue {
    /// A queue with the given sizing and tenant contracts.
    pub fn new(config: AdmissionConfig) -> Arc<Self> {
        let tenant = |label: &str, spec: TenantSpec| Tenant {
            spec,
            admitted: m::QOS_ADMITTED.with(label),
            shed: m::QOS_SHED.with(label),
            inflight: 0,
            vtime: 0.0,
        };
        let anonymous = TenantSpec {
            api_key: String::new(),
            weight: 1,
            max_inflight: usize::MAX,
            shed_priority: 0,
        };
        let tenants = std::iter::once(tenant("anonymous", anonymous))
            .chain((config.tenants.iter()).map(|spec| tenant(&spec.api_key, spec.clone())))
            .collect();
        Arc::new(Self {
            config: AdmissionConfig {
                max_inflight: config.max_inflight.max(1),
                ..config
            },
            inner: Mutex::new(Inner {
                tenants,
                ..Inner::default()
            }),
            freed: Condvar::new(),
        })
    }

    /// Asks to run one anonymous data query on behalf of `conn`.
    pub fn admit(self: &Arc<Self>, conn: u64) -> Admission {
        self.admit_keyed(conn, None)
    }

    /// Asks to run one data query on behalf of `conn` under the tenant
    /// owning `api_key`. Blocks while the queue has room, sheds with
    /// [`Admission::Busy`] when it does not.
    pub fn admit_keyed(self: &Arc<Self>, conn: u64, api_key: Option<&str>) -> Admission {
        let start = Instant::now();
        let mut inner = self.inner.lock();
        let t = inner.tenant_of(api_key);
        if inner.inflight < self.config.max_inflight && inner.under_quota(t) {
            inner.inflight += 1;
            inner.tenant_mut(t).inflight += 1;
            inner.bump_vtime(t);
            *inner.served.entry((t, conn)).or_default() += 1;
            inner.tenant(t).admitted.inc();
            drop(inner);
            m::ADMISSION_ADMITTED.inc();
            m::ADMISSION_WAIT_S.observe(0.0);
            return Admission::Granted(Permit {
                queue: Arc::clone(self),
                tenant: t,
            });
        }
        if inner.waiting.len() >= self.config.queue_depth {
            // queue full: displace the lowest-priority newest waiter if
            // it ranks strictly below this arrival, else shed the arrival
            let priority = inner.tenant(t).spec.shed_priority;
            let victim = inner
                .waiting
                .iter()
                .enumerate()
                .filter(|(_, w)| inner.tenant(w.tenant).spec.shed_priority < priority)
                .min_by_key(|(_, w)| {
                    (
                        inner.tenant(w.tenant).spec.shed_priority,
                        std::cmp::Reverse(w.seq),
                    )
                })
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let displaced = inner.waiting.remove(i);
                    inner.evicted.insert(displaced.seq);
                    self.freed.notify_all();
                }
                None => {
                    let depth = inner.waiting.len();
                    inner.tenant(t).shed.inc();
                    drop(inner);
                    m::ADMISSION_SHED.inc();
                    return Admission::Busy {
                        queue_depth: depth,
                        retry_ms: self.config.busy_retry_ms,
                    };
                }
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.waiting.push(Waiter {
            tenant: t,
            conn,
            seq,
        });
        m::ADMISSION_QUEUE_DEPTH.set(inner.waiting.len() as i64);
        loop {
            if inner.granted.remove(&seq) {
                break;
            }
            if inner.evicted.remove(&seq) {
                let depth = inner.waiting.len();
                inner.tenant(t).shed.inc();
                drop(inner);
                m::ADMISSION_SHED.inc();
                m::QOS_EVICTED.inc();
                return Admission::Busy {
                    queue_depth: depth,
                    retry_ms: self.config.busy_retry_ms,
                };
            }
            self.freed.wait(&mut inner);
        }
        *inner.served.entry((t, conn)).or_default() += 1;
        inner.tenant(t).admitted.inc();
        drop(inner);
        m::ADMISSION_ADMITTED.inc();
        m::ADMISSION_WAIT_S.observe(start.elapsed().as_secs_f64());
        Admission::Granted(Permit {
            queue: Arc::clone(self),
            tenant: t,
        })
    }

    /// Drops the fairness counts of a connection that has closed, so a
    /// long-lived server holds one entry per *live* connection.
    pub(crate) fn forget_connection(&self, conn: u64) {
        self.inner.lock().served.retain(|&(_, c), _| c != conn);
    }

    /// Connections with fairness counts on record.
    #[cfg(test)]
    pub(crate) fn tracked_connections(&self) -> usize {
        self.inner.lock().served.len()
    }

    fn release(&self, tenant: usize) {
        let mut inner = self.inner.lock();
        inner.inflight -= 1;
        inner.tenant_mut(tenant).inflight -= 1;
        let mut woke = false;
        // A release can unblock more than one waiter: this tenant's quota
        // freed alongside a slot an earlier release left idle for lack of
        // an eligible waiter. Grant until slots or eligible waiters run
        // out.
        while inner.inflight < self.config.max_inflight {
            // WFQ: the eligible tenant with the smallest virtual time
            // wins, index breaking ties deterministically
            let mut best: Option<usize> = None;
            for w in &inner.waiting {
                if !inner.under_quota(w.tenant) {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let (bv, wv) = (inner.tenant(b).vtime, inner.tenant(w.tenant).vtime);
                        wv < bv || (wv == bv && w.tenant < b)
                    }
                };
                if better {
                    best = Some(w.tenant);
                }
            }
            let Some(winner_tenant) = best else { break };
            // within the tenant: least-served connection first, arrival
            // order as the tie-break
            let Some(winner) = inner
                .waiting
                .iter()
                .enumerate()
                .filter(|(_, w)| w.tenant == winner_tenant)
                .min_by_key(|(_, w)| {
                    (
                        inner.served.get(&(w.tenant, w.conn)).copied().unwrap_or(0),
                        w.seq,
                    )
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            let w = inner.waiting.remove(winner);
            inner.granted.insert(w.seq);
            inner.inflight += 1;
            inner.tenant_mut(w.tenant).inflight += 1;
            inner.bump_vtime(w.tenant);
            woke = true;
        }
        if woke {
            m::ADMISSION_QUEUE_DEPTH.set(inner.waiting.len() as i64);
            drop(inner);
            self.freed.notify_all();
        }
    }
}

/// RAII in-flight slot; dropping it admits the next fair waiter.
pub struct Permit {
    queue: Arc<AdmissionQueue>,
    tenant: usize,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.queue.release(self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn sheds_beyond_queue_depth() {
        let q = AdmissionQueue::new(AdmissionConfig {
            max_inflight: 1,
            queue_depth: 0,
            busy_retry_ms: 55,
            tenants: Vec::new(),
        });
        let Admission::Granted(permit) = q.admit(0) else {
            panic!("first query must be admitted");
        };
        match q.admit(1) {
            Admission::Busy {
                queue_depth,
                retry_ms,
            } => {
                assert_eq!(queue_depth, 0);
                assert_eq!(retry_ms, 55);
            }
            Admission::Granted(_) => panic!("second query must be shed"),
        }
        drop(permit);
        assert!(matches!(q.admit(1), Admission::Granted(_)));
    }

    #[test]
    fn fairness_prefers_least_served_connection() {
        let q = AdmissionQueue::new(AdmissionConfig {
            max_inflight: 1,
            queue_depth: 8,
            busy_retry_ms: 1,
            tenants: Vec::new(),
        });
        // connection 0 holds the only slot and has served one query
        let Admission::Granted(first) = q.admit(0) else {
            panic!("first query must be admitted");
        };
        // park A2, A3 (conn 0) then B1 (conn 1), in that arrival order
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::new();
        for (conn, tag) in [(0u64, "A2"), (0, "A3"), (1, "B1")] {
            // wait until the previous waiter is parked so arrival order
            // is deterministic
            let before = q.inner.lock().waiting.len();
            let qc = Arc::clone(&q);
            let txc = tx.clone();
            handles.push(std::thread::spawn(move || {
                let Admission::Granted(p) = qc.admit(conn) else {
                    panic!("waiter should not be shed");
                };
                txc.send(tag).unwrap();
                drop(p);
            }));
            while q.inner.lock().waiting.len() <= before {
                std::thread::yield_now();
            }
        }
        drop(first);
        // B1 wins over the earlier-arrived A2/A3 (conn 1 served nothing),
        // then A2 and A3 drain in arrival order
        let order: Vec<_> = (0..3).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(order, ["B1", "A2", "A3"]);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Parks waiters for the given `(conn, key, tag)` arrivals behind one
    /// held slot, then releases it and returns the serial grant order.
    fn drain_order(
        q: &Arc<AdmissionQueue>,
        arrivals: &[(u64, Option<&'static str>, &'static str)],
    ) -> Vec<&'static str> {
        let Admission::Granted(first) = q.admit_keyed(u64::MAX, None) else {
            panic!("pilot query must be admitted");
        };
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::new();
        for &(conn, key, tag) in arrivals {
            let before = q.inner.lock().waiting.len();
            let qc = Arc::clone(q);
            let txc = tx.clone();
            handles.push(std::thread::spawn(move || {
                let Admission::Granted(p) = qc.admit_keyed(conn, key) else {
                    panic!("waiter should not be shed");
                };
                txc.send(tag).unwrap();
                drop(p);
            }));
            while q.inner.lock().waiting.len() <= before {
                std::thread::yield_now();
            }
        }
        drop(first);
        let order: Vec<_> = (0..arrivals.len()).map(|_| rx.recv().unwrap()).collect();
        for h in handles {
            h.join().unwrap();
        }
        order
    }

    #[test]
    fn wfq_serves_tenants_in_weight_proportion() {
        let q = AdmissionQueue::new(AdmissionConfig {
            max_inflight: 1,
            queue_depth: 16,
            busy_retry_ms: 1,
            tenants: vec![TenantSpec::new("heavy", 3), TenantSpec::new("light", 1)],
        });
        // 4 heavy + 2 light waiters on distinct connections; with one
        // slot draining serially, virtual times (heavy +1/3 per grant,
        // light +1) interleave three heavy grants per light one
        let order = drain_order(
            &q,
            &[
                (1, Some("heavy"), "h1"),
                (2, Some("heavy"), "h2"),
                (3, Some("heavy"), "h3"),
                (4, Some("heavy"), "h4"),
                (5, Some("light"), "l1"),
                (6, Some("light"), "l2"),
            ],
        );
        assert_eq!(order, ["h1", "l1", "h2", "h3", "h4", "l2"]);
    }

    #[test]
    fn per_tenant_quota_caps_inflight() {
        let q = AdmissionQueue::new(AdmissionConfig {
            max_inflight: 4,
            queue_depth: 8,
            busy_retry_ms: 1,
            tenants: vec![TenantSpec::new("capped", 1).with_max_inflight(1)],
        });
        let Admission::Granted(held) = q.admit_keyed(0, Some("capped")) else {
            panic!("first capped query must be admitted");
        };
        // global slots remain, but the tenant's quota is exhausted: the
        // second capped query parks while an anonymous one sails through
        let qc = Arc::clone(&q);
        let parked = std::thread::spawn(move || {
            let Admission::Granted(p) = qc.admit_keyed(1, Some("capped")) else {
                panic!("queued capped query should be granted eventually");
            };
            drop(p);
        });
        while q.inner.lock().waiting.is_empty() {
            std::thread::yield_now();
        }
        assert!(matches!(q.admit(2), Admission::Granted(_)));
        assert_eq!(q.inner.lock().waiting.len(), 1);
        drop(held);
        parked.join().unwrap();
    }

    #[test]
    fn full_queue_evicts_lower_priority_waiter() {
        let q = AdmissionQueue::new(AdmissionConfig {
            max_inflight: 1,
            queue_depth: 1,
            busy_retry_ms: 9,
            tenants: vec![TenantSpec::new("premium", 2).with_shed_priority(5)],
        });
        let Admission::Granted(held) = q.admit(0) else {
            panic!("first query must be admitted");
        };
        // an anonymous waiter fills the queue...
        let qc = Arc::clone(&q);
        let anon = std::thread::spawn(move || qc.admit(1));
        while q.inner.lock().waiting.is_empty() {
            std::thread::yield_now();
        }
        // ...and a premium arrival displaces it instead of being shed
        let qc = Arc::clone(&q);
        let premium = std::thread::spawn(move || {
            let Admission::Granted(p) = qc.admit_keyed(2, Some("premium")) else {
                panic!("premium arrival must take the displaced slot");
            };
            drop(p);
        });
        match anon.join().unwrap() {
            Admission::Busy { retry_ms, .. } => assert_eq!(retry_ms, 9),
            Admission::Granted(_) => panic!("displaced waiter must come back busy"),
        }
        drop(held);
        premium.join().unwrap();
        // anonymous traffic cannot displace anyone: refill and overflow
        let Admission::Granted(_held) = q.admit(3) else {
            panic!("queue should be idle again");
        };
        let qc = Arc::clone(&q);
        let _waiter = std::thread::spawn(move || qc.admit(4));
        while q.inner.lock().waiting.is_empty() {
            std::thread::yield_now();
        }
        assert!(matches!(q.admit(5), Admission::Busy { .. }));
    }
}
