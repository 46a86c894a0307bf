//! Blocking client for the ThresholDB wire protocol — the Rust analogue
//! of the C/Fortran/Matlab client libraries the JHTDB ships (paper §7).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use tdb_cluster::CompressionConfig;
use tdb_core::{DegradedInfo, DerivedField, ThresholdPoint, TimeBreakdown};
use tdb_zorder::Box3;

use crate::json::Json;
use crate::proto::{ProtoError, Request, Response};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Protocol(ProtoError),
    /// The server reported an error for this request.
    Server(String),
    /// The server shed the query under load; retry after `retry_ms`.
    Busy {
        queue_depth: u64,
        retry_ms: u64,
    },
    /// The server answered with the wrong response kind.
    UnexpectedResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Busy {
                queue_depth,
                retry_ms,
            } => write!(
                f,
                "server busy (admission queue depth {queue_depth}), retry in ~{retry_ms} ms"
            ),
            ClientError::UnexpectedResponse(kind) => {
                write!(f, "unexpected response (wanted {kind})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Protocol(e)
    }
}

/// Dataset description returned by [`Client::info`].
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetInfo {
    pub dataset: String,
    pub dims: (u32, u32, u32),
    pub timesteps: u32,
    pub fields: Vec<(String, u8)>,
    /// Block codec of the server's raw-field tier (`Off` for servers that
    /// predate compression).
    pub compression: CompressionConfig,
}

/// Threshold answer returned by [`Client::get_threshold`].
#[derive(Debug, Clone)]
pub struct ThresholdAnswer {
    pub points: Vec<ThresholdPoint>,
    pub breakdown: TimeBreakdown,
    pub cache_hits: u32,
    pub nodes: u32,
    /// Present when the server answered from a partial cluster: names the
    /// failed nodes and the boxes whose data is missing from `points`.
    pub degraded: Option<DegradedInfo>,
}

/// Metrics snapshot as name-sorted `(counters, gauges)` pairs.
pub type MetricsPairs = (Vec<(String, u64)>, Vec<(String, i64)>);

/// Sends a request and takes the fields of the one response variant that
/// answers it; any other is `UnexpectedResponse(kind)`.
macro_rules! ask {
    ($client:ident, $request:expr, $kind:literal, $variant:pat => $take:expr) => {
        match $client.call(&$request)? {
            $variant => Ok($take),
            _ => Err(ClientError::UnexpectedResponse($kind)),
        }
    };
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Tenant API key stamped into every request envelope, for the
    /// server's per-tenant QoS (weighted fair queueing).
    api_key: Option<String>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // same reason as the server's accept path: a request line longer
        // than the write buffer must not wait on a delayed ACK
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(Client {
            reader,
            writer,
            api_key: None,
        })
    }

    /// Changes (or clears) the tenant API key on a live connection.
    pub fn set_api_key(&mut self, api_key: Option<String>) {
        self.api_key = api_key;
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut doc = request.to_json();
        if let (Some(key), Json::Obj(fields)) = (&self.api_key, &mut doc) {
            fields.insert("api_key".to_string(), Json::Str(key.clone()));
        }
        writeln!(self.writer, "{}", doc.encode())?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let doc = Json::parse(line.trim_end()).map_err(|e| ProtoError(e.to_string()))?;
        let resp = Response::from_json(&doc)?;
        match resp {
            Response::Error { message } => Err(ClientError::Server(message)),
            Response::Busy {
                queue_depth,
                retry_ms,
            } => Err(ClientError::Busy {
                queue_depth,
                retry_ms,
            }),
            other => Ok(other),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        ask!(self, Request::Ping, "pong", Response::Pong => ())
    }

    /// Describes the served dataset.
    pub fn info(&mut self) -> Result<DatasetInfo, ClientError> {
        ask!(self, Request::Info, "info",
            Response::Info { dataset, dims, timesteps, fields, compression } =>
                DatasetInfo { dataset, dims, timesteps, fields, compression })
    }

    /// `GetThreshold` over the wire.
    pub fn get_threshold(
        &mut self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        query_box: Option<Box3>,
        threshold: f64,
    ) -> Result<ThresholdAnswer, ClientError> {
        let request = Request::GetThreshold {
            raw_field: raw_field.to_string(),
            derived,
            timestep,
            query_box,
            threshold,
            use_cache: true,
        };
        ask!(self, request, "threshold",
            Response::Threshold { points, breakdown, cache_hits, nodes, degraded } =>
                ThresholdAnswer { points, breakdown, cache_hits, nodes, degraded })
    }

    /// PDF of a derived field's norm.
    pub fn get_pdf(
        &mut self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        origin: f64,
        bin_width: f64,
        nbins: u32,
    ) -> Result<Vec<u64>, ClientError> {
        let request = Request::GetPdf {
            raw_field: raw_field.to_string(),
            derived,
            timestep,
            origin,
            bin_width,
            nbins,
        };
        ask!(self, request, "pdf", Response::Pdf { counts, .. } => counts)
    }

    /// The k most intense locations.
    pub fn get_topk(
        &mut self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        k: u32,
    ) -> Result<Vec<ThresholdPoint>, ClientError> {
        let request = Request::GetTopK {
            raw_field: raw_field.to_string(),
            derived,
            timestep,
            k,
        };
        ask!(self, request, "topk", Response::TopK { points, .. } => points)
    }

    /// Lagrange point interpolation (`GetVelocity`-style).
    pub fn get_points(
        &mut self,
        raw_field: &str,
        timestep: u32,
        lag_width: u32,
        positions: &[[f64; 3]],
    ) -> Result<Vec<[f32; 3]>, ClientError> {
        let request = Request::GetPoints {
            raw_field: raw_field.to_string(),
            timestep,
            lag_width,
            positions: positions.to_vec(),
        };
        ask!(self, request, "points", Response::Points { values } => values)
    }

    /// Submits a batch threshold job; returns the job id.
    pub fn submit_job(
        &mut self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        threshold: f64,
        output_table: &str,
    ) -> Result<u64, ClientError> {
        let request = Request::SubmitJob {
            raw_field: raw_field.to_string(),
            derived,
            timestep,
            threshold,
            output_table: output_table.to_string(),
        };
        ask!(self, request, "job_accepted", Response::JobAccepted { job } => job)
    }

    /// Polls a batch job: `(state, detail, rows)`.
    pub fn job_status(&mut self, job: u64) -> Result<(String, String, u64), ClientError> {
        ask!(self, Request::JobStatus { job }, "job_state",
            Response::JobState { state, detail, rows } => (state, detail, rows))
    }

    /// Lists the MyDB tables of the server's batch session.
    pub fn list_mydb(&mut self) -> Result<Vec<String>, ClientError> {
        ask!(self, Request::ListMyDb, "mydb_list", Response::MyDbList { tables } => tables)
    }

    /// Reads a MyDB table.
    pub fn get_mydb_table(
        &mut self,
        name: &str,
    ) -> Result<(String, Vec<ThresholdPoint>), ClientError> {
        let request = Request::GetMyDbTable {
            name: name.to_string(),
        };
        ask!(self, request, "mydb_table",
            Response::MyDbTable { provenance, points } => (provenance, points))
    }

    /// Snapshot of the server's process-wide metrics: `(counters, gauges)`
    /// sorted by name.
    pub fn metrics(&mut self) -> Result<MetricsPairs, ClientError> {
        ask!(self, Request::Metrics, "metrics",
            Response::Metrics { counters, gauges } => (counters, gauges))
    }

    /// Runs a threshold query and returns its span tree.
    pub fn get_trace(
        &mut self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        query_box: Option<Box3>,
        threshold: f64,
    ) -> Result<tdb_core::QueryTrace, ClientError> {
        let request = Request::GetTrace {
            raw_field: raw_field.to_string(),
            derived,
            timestep,
            query_box,
            threshold,
            use_cache: true,
        };
        ask!(self, request, "trace", Response::Trace { trace } => trace)
    }

    /// Whole-field statistics.
    pub fn get_stats(
        &mut self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
    ) -> Result<(u64, f64, f64, f64, f64), ClientError> {
        let request = Request::GetStats {
            raw_field: raw_field.to_string(),
            derived,
            timestep,
        };
        ask!(self, request, "stats",
            Response::Stats { count, mean, rms, min, max } => (count, mean, rms, min, max))
    }
}
