//! The front-end server: "the Web-server acts as a mediator sending the
//! users' requests to the database nodes and initiating their distributed
//! evaluation" (paper §2).
//!
//! Transport: TCP, one JSON document per `\n`-terminated line in each
//! direction, thread per connection with a connection cap.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tdb_core::batch::{BatchSession, JobId, JobSpec, JobState, MAX_PENDING_JOBS};
use tdb_core::{ThresholdQuery, TurbulenceService};

use crate::admission::{Admission, AdmissionConfig, AdmissionQueue};
use crate::json::Json;
use crate::proto::{member, Request, Response};

/// Socket write timeout: a client that stops draining its responses
/// cannot stall the handler thread indefinitely.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent connections (excess are refused politely).
    pub max_connections: usize,
    /// Admission control for data queries: bounded in-flight evaluation,
    /// a fair bounded wait queue, and `Busy` load-shedding beyond it.
    pub admission: AdmissionConfig,
    /// MyDB quota for the server's shared batch session.
    pub mydb_quota_bytes: u64,
    /// Socket read timeout. An idle connection is closed (and counted in
    /// `wire.connection.timeout`) instead of pinning its thread forever.
    /// `None` waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Largest accepted request line in bytes; longer requests get an
    /// error response and the connection is closed (the remainder of the
    /// line is never buffered).
    pub max_request_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            admission: AdmissionConfig::default(),
            mydb_quota_bytes: 256 << 20,
            read_timeout: Some(Duration::from_secs(30)),
            max_request_bytes: 1 << 20,
        }
    }
}

/// Shared per-server state: the service plus one batch session (the
/// paper's MyDB "resides on the servers near the data").
pub struct ServerState {
    pub service: Arc<TurbulenceService>,
    pub batch: BatchSession,
    pub admission: Arc<AdmissionQueue>,
}

impl ServerState {
    /// Builds the state with a MyDB quota and default admission sizing.
    pub fn new(service: Arc<TurbulenceService>, mydb_quota_bytes: u64) -> Self {
        Self::with_admission(service, mydb_quota_bytes, AdmissionConfig::default())
    }

    /// Builds the state with explicit admission sizing.
    pub fn with_admission(
        service: Arc<TurbulenceService>,
        mydb_quota_bytes: u64,
        admission: AdmissionConfig,
    ) -> Self {
        let batch = BatchSession::open(Arc::clone(&service), mydb_quota_bytes);
        Self {
            service,
            batch,
            admission: AdmissionQueue::new(admission),
        }
    }
}

/// A running front-end server.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    pub fn start(
        service: Arc<TurbulenceService>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let state = Arc::new(ServerState::with_admission(
            service,
            config.mydb_quota_bytes,
            config.admission.clone(),
        ));
        let handle = std::thread::spawn(move || accept_loop(listener, state, config, flag));
        Ok(Server {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the accept loop to finish — what
    /// dropping the server does.
    pub fn stop(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // poke the listener so accept() returns
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    state: Arc<ServerState>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
) {
    let live = Arc::new(AtomicUsize::new(0));
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if live.load(Ordering::SeqCst) >= config.max_connections {
            let mut w = BufWriter::new(&stream);
            let _ = writeln!(
                w,
                "{}",
                error("server at connection capacity").to_json().encode()
            );
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let open = OpenConnection {
            live: Arc::clone(&live),
            state: Arc::clone(&state),
            conn: next_conn,
        };
        next_conn += 1;
        // a line longer than the write buffer leaves as two segments (the
        // body, then the newline); Nagle would hold the second until the
        // peer's delayed ACK, ~40 ms per answer
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(config.read_timeout);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let max_request_bytes = config.max_request_bytes;
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &open.state, max_request_bytes, open.conn);
        });
    }
}

/// One accepted connection's claim on the server: a slot of
/// `max_connections` and its fairness counts in the admission queue.
/// Both are given back on drop — when `serve_connection` returns and
/// when a handler panic unwinds its thread alike.
struct OpenConnection {
    live: Arc<AtomicUsize>,
    state: Arc<ServerState>,
    conn: u64,
}

impl Drop for OpenConnection {
    fn drop(&mut self) {
        self.state.admission.forget_connection(self.conn);
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn serve_connection(
    stream: TcpStream,
    state: &ServerState,
    max_request_bytes: usize,
    conn: u64,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // read at most cap + '\n' + 1 sentinel byte: a line that hits the
        // take() limit is over the cap without the rest ever being buffered
        let n = match (&mut reader)
            .take(max_request_bytes as u64 + 2)
            .read_until(b'\n', &mut buf)
        {
            Ok(n) => n,
            Err(e) if is_timeout(&e) => {
                tdb_obs::m::WIRE_CONNECTION_TIMEOUT.inc();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(()); // clean EOF
        }
        while buf.last().is_some_and(|b| *b == b'\n' || *b == b'\r') {
            buf.pop();
        }
        if buf.len() > max_request_bytes {
            tdb_obs::m::WIRE_REQUEST_OVERSIZED.inc();
            let resp = error(format_args!(
                "request exceeds the {max_request_bytes}-byte limit"
            ));
            let _ = writeln!(writer, "{}", resp.to_json().encode());
            let _ = writer.flush();
            // the rest of the line was never read; resync is impossible
            return Ok(());
        }
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        #[cfg(test)]
        assert!(!line.contains(tests::POISON), "poisoned request");
        let response = handle_line_admitted(&line, state, conn);
        writeln!(writer, "{}", response.to_json().encode())?;
        writer.flush()?;
    }
}

/// True for requests that run a data query against the cluster — the
/// ones admission control gates. Cheap control-plane requests (ping,
/// info, metrics, job polling, MyDB reads) always pass.
fn is_data_query(request: &Request) -> bool {
    matches!(
        request,
        Request::GetThreshold { .. }
            | Request::GetPdf { .. }
            | Request::GetTopK { .. }
            | Request::GetStats { .. }
            | Request::GetPoints { .. }
            | Request::GetTrace { .. }
    )
}

/// Parses one request line, passes data queries through admission
/// control on behalf of connection `conn`, and executes.
pub fn handle_line_admitted(line: &str, state: &ServerState, conn: u64) -> Response {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => return error(e),
    };
    let request = match Request::from_json(&doc) {
        Ok(r) => r,
        Err(e) => return error(e),
    };
    if is_data_query(&request) {
        // the API key travels in the request envelope, outside the typed
        // request, so tenancy never alters query semantics; a key that is
        // not a string is malformed, not the anonymous tenant
        let api_key: Option<String> = match member(&doc, "api_key", Some(None)) {
            Ok(key) => key,
            Err(e) => return error(e),
        };
        match state.admission.admit_keyed(conn, api_key.as_deref()) {
            Admission::Granted(_permit) => execute(&request, state),
            Admission::Busy {
                queue_depth,
                retry_ms,
            } => Response::Busy {
                queue_depth: queue_depth as u64,
                retry_ms,
            },
        }
    } else {
        execute(&request, state)
    }
}

fn error(e: impl std::fmt::Display) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}

/// Executes a parsed request.
fn execute(request: &Request, state: &ServerState) -> Response {
    let service = &state.service;
    match request {
        Request::SubmitJob {
            raw_field,
            derived,
            timestep,
            threshold,
            output_table,
        } => {
            let query = ThresholdQuery::whole_timestep(raw_field, *derived, *timestep, *threshold);
            let spec = JobSpec {
                query,
                output_table: output_table.clone(),
            };
            // not an admitted request (it returns at once), so the bound
            // on queued scans is the job board's
            match state.batch.submit(spec) {
                Some(JobId(id)) => Response::JobAccepted { job: id },
                None => Response::Busy {
                    queue_depth: MAX_PENDING_JOBS as u64,
                    retry_ms: state.admission.config.busy_retry_ms,
                },
            }
        }
        Request::JobStatus { job } => match state.batch.status(JobId(*job)) {
            Some(JobState::Queued) => Response::JobState {
                state: "queued".into(),
                detail: String::new(),
                rows: 0,
            },
            Some(JobState::Running) => Response::JobState {
                state: "running".into(),
                detail: String::new(),
                rows: 0,
            },
            Some(JobState::Done { rows, modelled_s }) => Response::JobState {
                state: "done".into(),
                detail: format!("{modelled_s:.3}s modelled"),
                rows: rows as u64,
            },
            Some(JobState::Failed(msg)) => Response::JobState {
                state: "failed".into(),
                detail: msg,
                rows: 0,
            },
            None => error(format_args!("unknown job {job}")),
        },
        Request::ListMyDb => Response::MyDbList {
            tables: state.batch.mydb().list(),
        },
        Request::GetMyDbTable { name } => match state.batch.mydb().get(name) {
            Some(t) => Response::MyDbTable {
                provenance: t.provenance,
                points: t.points,
            },
            None => error(format_args!("no MyDB table '{name}'")),
        },
        Request::Ping => Response::Pong,
        Request::Info => {
            let d = service.dataset();
            let (nx, ny, nz) = d.grid.dims();
            Response::Info {
                dataset: d.name.clone(),
                dims: (nx as u32, ny as u32, nz as u32),
                timesteps: d.timesteps,
                fields: d
                    .raw_fields()
                    .into_iter()
                    .map(|f| (f.name.to_string(), f.ncomp as u8))
                    .collect(),
                compression: service.cluster().config().compression,
            }
        }
        // a trace request is the same threshold query, answered with the
        // query's span tree instead of its points
        Request::GetThreshold {
            raw_field,
            derived,
            timestep,
            query_box,
            threshold,
            use_cache,
        }
        | Request::GetTrace {
            raw_field,
            derived,
            timestep,
            query_box,
            threshold,
            use_cache,
        } => {
            let mut q = ThresholdQuery::whole_timestep(raw_field, *derived, *timestep, *threshold);
            q.query_box = *query_box;
            q.use_cache = *use_cache;
            match service.get_threshold(&q) {
                Ok(r) if matches!(request, Request::GetTrace { .. }) => match r.trace {
                    Some(trace) => Response::Trace { trace },
                    None => error("query produced no trace"),
                },
                Ok(r) => Response::Threshold {
                    points: r.points,
                    breakdown: r.breakdown,
                    cache_hits: r.cache_hits as u32,
                    nodes: r.nodes as u32,
                    degraded: r.degraded,
                },
                Err(e) => error(e),
            }
        }
        Request::GetPdf {
            raw_field,
            derived,
            timestep,
            origin,
            bin_width,
            nbins,
        } => {
            if *bin_width <= 0.0 || *nbins == 0 || *nbins > 4096 {
                return error("pdf bins must satisfy 0 < nbins <= 4096 and bin_width > 0");
            }
            let q = ThresholdQuery::whole_timestep(raw_field, *derived, *timestep, 0.0);
            match service.get_pdf(&q, *origin, *bin_width, *nbins as usize) {
                Ok(r) => Response::Pdf {
                    origin: *origin,
                    bin_width: *bin_width,
                    counts: r.histogram.counts().to_vec(),
                    degraded: r.degraded,
                },
                Err(e) => error(e),
            }
        }
        Request::GetTopK {
            raw_field,
            derived,
            timestep,
            k,
        } => {
            if *k == 0 || *k > 100_000 {
                return error("k must satisfy 0 < k <= 100000");
            }
            let q = ThresholdQuery::whole_timestep(raw_field, *derived, *timestep, 0.0);
            match service.get_topk(&q, *k as usize) {
                Ok(r) => Response::TopK {
                    points: r.points,
                    degraded: r.degraded,
                },
                Err(e) => error(e),
            }
        }
        Request::GetStats {
            raw_field,
            derived,
            timestep,
        } => match service.derived_stats(raw_field, *derived, *timestep) {
            Ok(s) => Response::Stats {
                count: s.count,
                mean: s.mean,
                rms: s.rms,
                min: s.min,
                max: s.max,
            },
            Err(e) => error(e),
        },
        Request::GetPoints {
            raw_field,
            timestep,
            lag_width,
            positions,
        } => {
            let order = match lag_width {
                4 => tdb_core::LagOrder::Lag4,
                6 => tdb_core::LagOrder::Lag6,
                8 => tdb_core::LagOrder::Lag8,
                other => return error(format_args!("lag_width must be 4, 6 or 8 (got {other})")),
            };
            if positions.is_empty() || positions.len() > 100_000 {
                return error("positions must contain 1..=100000 entries");
            }
            match service.interpolate_at(raw_field, *timestep, positions, order) {
                Ok((values, _)) => Response::Points { values },
                Err(e) => error(e),
            }
        }
        Request::Metrics => {
            let snap = service.metrics_snapshot();
            Response::Metrics {
                counters: snap.counters.into_iter().collect(),
                gauges: snap.gauges.into_iter().collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use tdb_core::ServiceConfig;

    /// A request line that makes `serve_connection` panic (test builds
    /// only), standing in for a bug in a handler.
    pub(super) const POISON: &str = "__test_poison__";

    /// An accept loop over a one-chunk archive, with its state in hand.
    fn serve(tag: &str, config: ServerConfig) -> (SocketAddr, Arc<ServerState>, impl FnOnce()) {
        let dir =
            std::env::temp_dir().join(format!("thresholdb_wire_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut archive = ServiceConfig::mhd(&dir, 16, 1, 0x7db);
        archive.cluster.num_nodes = 1;
        let service = TurbulenceService::build(archive).expect("service build");
        let state = Arc::new(ServerState::new(Arc::new(service), 1 << 20));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let (st, flag) = (Arc::clone(&state), Arc::clone(&shutdown));
        let accept = std::thread::spawn(move || accept_loop(listener, st, config, flag));
        let stop = move || {
            shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
            accept.join().expect("accept loop");
            let _ = std::fs::remove_dir_all(&dir);
        };
        (addr, state, stop)
    }

    /// Sends one line and reads the one-line answer; a connection the
    /// server refused or reset answers nothing.
    fn round_trip(stream: &TcpStream, line: &str) -> String {
        let mut w = stream;
        let mut answer = String::new();
        if writeln!(w, "{line}").is_ok() {
            let _ = BufReader::new(stream).read_line(&mut answer);
        }
        answer
    }

    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A resident server sees one connection per `tdbql` invocation, for
    /// years: the admission queue must not keep a count for each forever.
    #[test]
    fn closed_connections_leave_no_admission_state_behind() {
        let (addr, state, stop) = serve("served", ServerConfig::default());
        let query = r#"{"derived":"norm","field":"velocity","op":"get_threshold","threshold":1e9,"timestep":0,"use_cache":true}"#;
        for _ in 0..1000 {
            let stream = TcpStream::connect(addr).expect("connect");
            let answer = round_trip(&stream, query);
            assert!(answer.contains(r#""ok":"threshold""#), "{answer}");
        }
        eventually("every connection is forgotten", || {
            state.admission.tracked_connections() == 0
        });
        stop();
    }

    /// A resident server is sent batch jobs for years, and a client may
    /// send them as fast as it likes: the job board keeps the newest
    /// finished ones and a bounded backlog, not one entry per job ever seen.
    #[test]
    fn finished_jobs_leave_a_bounded_job_board_behind() {
        use tdb_core::batch::MAX_FINISHED_JOBS;
        let (_addr, state, stop) = serve("jobs", ServerConfig::default());
        let submit = r#"{"derived":"norm","field":"velocity","op":"submit_job","output_table":"t","threshold":1e9,"timestep":0}"#;
        let (mut accepted, mut refused, mut last) = (0, 0, 0);
        while accepted < 5000 {
            match handle_line_admitted(submit, &state, 0) {
                Response::JobAccepted { job } => {
                    accepted += 1;
                    last = job;
                }
                // the backlog is full: the worker needs a moment
                Response::Busy { queue_depth, .. } => {
                    assert_eq!(queue_depth, MAX_PENDING_JOBS as u64);
                    refused += 1;
                    std::thread::yield_now();
                }
                other => panic!("submit_job was answered with {other:?}"),
            }
            assert!(state.batch.tracked_jobs() <= MAX_PENDING_JOBS + MAX_FINISHED_JOBS);
        }
        assert!(
            refused > 0,
            "5000 back-to-back jobs never filled the backlog"
        );
        assert!(state.batch.wait(JobId(last)).is_terminal());
        assert_eq!(state.batch.tracked_jobs(), MAX_FINISHED_JOBS);
        // the first job finished long ago and is forgotten; the last is not
        let status = |job: u64| {
            handle_line_admitted(&format!(r#"{{"job":{job},"op":"job_status"}}"#), &state, 0)
        };
        let Response::Error { message } = status(1) else {
            panic!("job 1 is still on the board")
        };
        assert!(message.contains("unknown job 1"), "{message}");
        assert!(matches!(status(last), Response::JobState { .. }));
        stop();
    }

    /// An `api_key` that is not a string is a malformed request: answered
    /// with an error, never admitted as the anonymous tenant. (The queue's
    /// own record of whom it served is the witness: `qos.admitted.anonymous`
    /// is process-wide and moves with every test beside this one.)
    #[test]
    fn a_non_string_api_key_is_rejected_not_admitted_as_anonymous() {
        let (_addr, state, stop) = serve("api_key", ServerConfig::default());
        let ask = |api_key: &str| {
            let line = format!(
                r#"{{"api_key":{api_key},"derived":"norm","field":"velocity","op":"get_threshold","threshold":1e9,"timestep":0}}"#
            );
            handle_line_admitted(&line, &state, 7)
        };
        for bad in ["7", "null", "true", r#"["gold"]"#] {
            let answer = ask(bad);
            let Response::Error { message } = &answer else {
                panic!("api_key {bad} was answered with {answer:?}")
            };
            assert!(message.contains("field 'api_key' must be a string"));
            assert_eq!(state.admission.tracked_connections(), 0, "{bad} admitted");
        }
        let answer = ask(r#""gold""#);
        assert!(matches!(answer, Response::Threshold { .. }), "{answer:?}");
        assert_eq!(state.admission.tracked_connections(), 1);
        stop();
    }

    /// A handler that panics takes its thread down, not its connection
    /// slot: `max_connections` clients still fit afterwards.
    #[test]
    fn a_panicking_handler_gives_its_connection_slot_back() {
        let max_connections = 2;
        let config = ServerConfig {
            max_connections,
            ..ServerConfig::default()
        };
        let (addr, _state, stop) = serve("panic", config);
        for _ in 0..max_connections {
            let stream = TcpStream::connect(addr).expect("connect");
            // the handler dies mid-request: the line never gets an answer
            assert_eq!(round_trip(&stream, POISON), "");
        }
        eventually("all slots are admissible again", || {
            let clients: Vec<TcpStream> = (0..max_connections)
                .map(|_| TcpStream::connect(addr).expect("connect"))
                .collect();
            clients
                .iter()
                .all(|c| round_trip(c, r#"{"op":"ping"}"#).contains("pong"))
        });
        stop();
    }
}
