//! Protocol messages: one JSON object per line in each direction.
//!
//! Mirrors the JHTDB Web-service surface (`GetThreshold`, PDFs, top-k,
//! field statistics) without SOAP's envelope overhead — the modelled
//! user-transfer cost in the cluster still uses the XML inflation the
//! paper reports, this protocol is the *functional* interface.

use std::fmt;

use tdb_cluster::{CompressionConfig, CompressionMode};
use tdb_core::{
    AttrValue, DegradedInfo, DerivedField, FailedNode, QueryTrace, ThresholdPoint, TimeBreakdown,
    TraceSpan,
};
use tdb_zorder::Box3;

use crate::json::Json;

/// A malformed or unsupported message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ProtoError> {
    v.get(key)
        .ok_or_else(|| ProtoError(format!("missing field '{key}'")))
}

fn str_field(v: &Json, key: &str) -> Result<String, ProtoError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ProtoError(format!("field '{key}' must be a string")))
}

fn num_field(v: &Json, key: &str) -> Result<f64, ProtoError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| ProtoError(format!("field '{key}' must be a number")))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, ProtoError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| ProtoError(format!("field '{key}' must be a non-negative integer")))
}

/// A non-negative integer field that must fit the narrower `T` — an
/// over-range value is a malformed message, never a wrapped one.
fn uint_field<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, ProtoError> {
    T::try_from(u64_field(v, key)?)
        .map_err(|_| ProtoError(format!("field '{key}' is out of range")))
}

fn derived_field(v: &Json) -> Result<DerivedField, ProtoError> {
    let name = str_field(v, "derived")?;
    DerivedField::parse(&name).ok_or_else(|| ProtoError(format!("unknown derived field '{name}'")))
}

fn box_to_json(b: &Box3) -> Json {
    Json::Arr(
        b.lo.iter()
            .chain(b.hi.iter())
            .map(|&v| Json::Num(f64::from(v)))
            .collect(),
    )
}

fn box_from_json(v: &Json) -> Result<Box3, ProtoError> {
    let arr = v
        .as_arr()
        .filter(|a| a.len() == 6)
        .ok_or_else(|| ProtoError("box must be [xl,yl,zl,xu,yu,zu]".into()))?;
    let coords = arr
        .iter()
        .map(|item| {
            item.as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| ProtoError("box coordinates must be u32".into()))
        })
        .collect::<Result<Vec<u32>, ProtoError>>()?;
    let &[xl, yl, zl, xu, yu, zu] = coords.as_slice() else {
        return Err(ProtoError("box must be [xl,yl,zl,xu,yu,zu]".into()));
    };
    if xl > xu || yl > yu || zl > zu {
        return Err(ProtoError("box lower corner exceeds upper corner".into()));
    }
    Ok(Box3::new([xl, yl, zl], [xu, yu, zu]))
}

fn compression_to_json(c: &CompressionConfig) -> Json {
    Json::obj([
        ("mode", Json::Str(c.mode.as_str().into())),
        ("stride", Json::Num(f64::from(c.stride))),
        ("max_error", Json::Num(c.max_error)),
    ])
}

fn compression_from_json(v: &Json) -> Result<CompressionConfig, ProtoError> {
    let mode = str_field(v, "mode")?;
    let mode = CompressionMode::parse(&mode)
        .ok_or_else(|| ProtoError(format!("unknown compression mode '{mode}'")))?;
    Ok(CompressionConfig {
        mode,
        stride: uint_field(v, "stride")?,
        max_error: num_field(v, "max_error")?,
    })
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Describe the served dataset.
    Info,
    /// Algorithm 1: all points at or above the threshold.
    GetThreshold {
        raw_field: String,
        derived: DerivedField,
        timestep: u32,
        query_box: Option<Box3>,
        threshold: f64,
        use_cache: bool,
    },
    /// PDF of the derived field's norm (paper Fig. 2).
    GetPdf {
        raw_field: String,
        derived: DerivedField,
        timestep: u32,
        origin: f64,
        bin_width: f64,
        nbins: u32,
    },
    /// The k most intense locations.
    GetTopK {
        raw_field: String,
        derived: DerivedField,
        timestep: u32,
        k: u32,
    },
    /// Whole-field statistics (threshold-selection aid).
    GetStats {
        raw_field: String,
        derived: DerivedField,
        timestep: u32,
    },
    /// Lagrange interpolation of a raw field at fractional positions
    /// (grid units) — the `GetVelocity` family.
    GetPoints {
        raw_field: String,
        timestep: u32,
        /// 4-, 6- or 8-point Lagrange interpolation.
        lag_width: u32,
        positions: Vec<[f64; 3]>,
    },
    /// Enqueues a batch threshold job whose result lands in the session's
    /// MyDB (paper §7, CasJobs-style).
    SubmitJob {
        raw_field: String,
        derived: DerivedField,
        timestep: u32,
        threshold: f64,
        output_table: String,
    },
    /// Polls a batch job.
    JobStatus { job: u64 },
    /// Lists MyDB tables.
    ListMyDb,
    /// Reads a MyDB table's points.
    GetMyDbTable { name: String },
    /// Snapshot of the server's process-wide metrics.
    Metrics,
    /// Runs a threshold query but returns its span tree instead of the
    /// points (query-path introspection).
    GetTrace {
        raw_field: String,
        derived: DerivedField,
        timestep: u32,
        query_box: Option<Box3>,
        threshold: f64,
        use_cache: bool,
    },
}

impl Request {
    /// Serialises to a single-line JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj([("op", Json::Str("ping".into()))]),
            Request::Info => Json::obj([("op", Json::Str("info".into()))]),
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
                let op = match self {
                    Request::GetTrace { .. } => "get_trace",
                    _ => "get_threshold",
                };
                let mut pairs = vec![
                    ("op", Json::Str(op.into())),
                    ("field", Json::Str(raw_field.clone())),
                    ("derived", Json::Str(derived.name())),
                    ("timestep", Json::Num(f64::from(*timestep))),
                    ("threshold", Json::Num(*threshold)),
                    ("use_cache", Json::Bool(*use_cache)),
                ];
                if let Some(b) = query_box {
                    pairs.push(("box", box_to_json(b)));
                }
                Json::obj(pairs)
            }
            Request::GetPdf {
                raw_field,
                derived,
                timestep,
                origin,
                bin_width,
                nbins,
            } => Json::obj([
                ("op", Json::Str("get_pdf".into())),
                ("field", Json::Str(raw_field.clone())),
                ("derived", Json::Str(derived.name())),
                ("timestep", Json::Num(f64::from(*timestep))),
                ("origin", Json::Num(*origin)),
                ("bin_width", Json::Num(*bin_width)),
                ("nbins", Json::Num(f64::from(*nbins))),
            ]),
            Request::GetTopK {
                raw_field,
                derived,
                timestep,
                k,
            } => Json::obj([
                ("op", Json::Str("get_topk".into())),
                ("field", Json::Str(raw_field.clone())),
                ("derived", Json::Str(derived.name())),
                ("timestep", Json::Num(f64::from(*timestep))),
                ("k", Json::Num(f64::from(*k))),
            ]),
            Request::GetStats {
                raw_field,
                derived,
                timestep,
            } => Json::obj([
                ("op", Json::Str("get_stats".into())),
                ("field", Json::Str(raw_field.clone())),
                ("derived", Json::Str(derived.name())),
                ("timestep", Json::Num(f64::from(*timestep))),
            ]),
            Request::GetPoints {
                raw_field,
                timestep,
                lag_width,
                positions,
            } => Json::obj([
                ("op", Json::Str("get_points".into())),
                ("field", Json::Str(raw_field.clone())),
                ("timestep", Json::Num(f64::from(*timestep))),
                ("lag_width", Json::Num(f64::from(*lag_width))),
                (
                    "positions",
                    Json::Arr(
                        positions
                            .iter()
                            .map(|p| Json::Arr(p.iter().map(|&v| Json::Num(v)).collect()))
                            .collect(),
                    ),
                ),
            ]),
            Request::SubmitJob {
                raw_field,
                derived,
                timestep,
                threshold,
                output_table,
            } => Json::obj([
                ("op", Json::Str("submit_job".into())),
                ("field", Json::Str(raw_field.clone())),
                ("derived", Json::Str(derived.name())),
                ("timestep", Json::Num(f64::from(*timestep))),
                ("threshold", Json::Num(*threshold)),
                ("output_table", Json::Str(output_table.clone())),
            ]),
            Request::JobStatus { job } => Json::obj([
                ("op", Json::Str("job_status".into())),
                ("job", Json::Num(*job as f64)),
            ]),
            Request::ListMyDb => Json::obj([("op", Json::Str("list_mydb".into()))]),
            Request::GetMyDbTable { name } => Json::obj([
                ("op", Json::Str("get_mydb_table".into())),
                ("name", Json::Str(name.clone())),
            ]),
            Request::Metrics => Json::obj([("op", Json::Str("metrics".into()))]),
        }
    }

    /// Parses a request document.
    pub fn from_json(v: &Json) -> Result<Request, ProtoError> {
        let op = str_field(v, "op")?;
        match op.as_str() {
            "ping" => Ok(Request::Ping),
            "info" => Ok(Request::Info),
            "get_threshold" | "get_trace" => {
                let raw_field = str_field(v, "field")?;
                let derived = derived_field(v)?;
                let timestep = uint_field(v, "timestep")?;
                let query_box = v.get("box").map(box_from_json).transpose()?;
                let threshold = num_field(v, "threshold")?;
                let use_cache = v.get("use_cache").and_then(Json::as_bool).unwrap_or(true);
                Ok(if op == "get_trace" {
                    Request::GetTrace {
                        raw_field,
                        derived,
                        timestep,
                        query_box,
                        threshold,
                        use_cache,
                    }
                } else {
                    Request::GetThreshold {
                        raw_field,
                        derived,
                        timestep,
                        query_box,
                        threshold,
                        use_cache,
                    }
                })
            }
            "get_pdf" => Ok(Request::GetPdf {
                raw_field: str_field(v, "field")?,
                derived: derived_field(v)?,
                timestep: uint_field(v, "timestep")?,
                origin: num_field(v, "origin")?,
                bin_width: num_field(v, "bin_width")?,
                nbins: uint_field(v, "nbins")?,
            }),
            "get_topk" => Ok(Request::GetTopK {
                raw_field: str_field(v, "field")?,
                derived: derived_field(v)?,
                timestep: uint_field(v, "timestep")?,
                k: uint_field(v, "k")?,
            }),
            "get_stats" => Ok(Request::GetStats {
                raw_field: str_field(v, "field")?,
                derived: derived_field(v)?,
                timestep: uint_field(v, "timestep")?,
            }),
            "get_points" => {
                let positions = v
                    .get("positions")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtoError("positions must be an array".into()))?
                    .iter()
                    .map(|p| {
                        let a = p
                            .as_arr()
                            .filter(|a| a.len() == 3)
                            .ok_or_else(|| ProtoError("position must be [x,y,z]".into()))?;
                        let c = |i: usize| {
                            a.get(i)
                                .and_then(Json::as_f64)
                                .filter(|v| v.is_finite())
                                .ok_or_else(|| ProtoError("coordinate must be finite".into()))
                        };
                        Ok([c(0)?, c(1)?, c(2)?])
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                Ok(Request::GetPoints {
                    raw_field: str_field(v, "field")?,
                    timestep: uint_field(v, "timestep")?,
                    lag_width: uint_field(v, "lag_width")?,
                    positions,
                })
            }
            "submit_job" => Ok(Request::SubmitJob {
                raw_field: str_field(v, "field")?,
                derived: derived_field(v)?,
                timestep: uint_field(v, "timestep")?,
                threshold: num_field(v, "threshold")?,
                output_table: str_field(v, "output_table")?,
            }),
            "job_status" => Ok(Request::JobStatus {
                job: u64_field(v, "job")?,
            }),
            "list_mydb" => Ok(Request::ListMyDb),
            "get_mydb_table" => Ok(Request::GetMyDbTable {
                name: str_field(v, "name")?,
            }),
            "metrics" => Ok(Request::Metrics),
            other => Err(ProtoError(format!("unknown op '{other}'"))),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Pong,
    Info {
        dataset: String,
        dims: (u32, u32, u32),
        timesteps: u32,
        fields: Vec<(String, u8)>,
        /// Block codec of the raw-field tier. Absent on the wire when
        /// compression is off, so uncompressed servers keep the original
        /// wire format.
        compression: CompressionConfig,
    },
    Threshold {
        points: Vec<ThresholdPoint>,
        breakdown: TimeBreakdown,
        cache_hits: u32,
        nodes: u32,
        /// Present when nodes failed and the answer is partial.
        degraded: Option<DegradedInfo>,
    },
    Pdf {
        origin: f64,
        bin_width: f64,
        counts: Vec<u64>,
        /// Present when nodes failed and the answer is partial.
        degraded: Option<DegradedInfo>,
    },
    TopK {
        points: Vec<ThresholdPoint>,
        /// Present when nodes failed and the answer is partial.
        degraded: Option<DegradedInfo>,
    },
    Stats {
        count: u64,
        mean: f64,
        rms: f64,
        min: f64,
        max: f64,
    },
    /// Interpolated values, one `[vx, vy, vz]` per requested position.
    Points {
        values: Vec<[f32; 3]>,
    },
    /// Batch job accepted.
    JobAccepted {
        job: u64,
    },
    /// Batch job state: "queued", "running", "done" or "failed".
    JobState {
        state: String,
        /// Rows written (done) or error detail (failed).
        detail: String,
        rows: u64,
    },
    /// MyDB table names.
    MyDbList {
        tables: Vec<String>,
    },
    /// A MyDB table's contents.
    MyDbTable {
        provenance: String,
        points: Vec<ThresholdPoint>,
    },
    /// Process-wide metric values (sorted by name).
    Metrics {
        counters: Vec<(String, u64)>,
        gauges: Vec<(String, i64)>,
    },
    /// A query's span tree. Attribute values arrive as display strings.
    Trace {
        trace: QueryTrace,
    },
    /// The server shed this data query: its admission queue is full.
    /// Retry after roughly `retry_ms` milliseconds.
    Busy {
        queue_depth: u64,
        retry_ms: u64,
    },
    Error {
        message: String,
    },
}

fn span_to_json(s: &TraceSpan) -> Json {
    Json::obj([
        ("name", Json::Str(s.name.clone())),
        ("start_s", Json::Num(s.start_s)),
        ("duration_s", Json::Num(s.duration_s)),
        (
            "attrs",
            Json::Arr(
                s.attrs
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.to_string())]))
                    .collect(),
            ),
        ),
        (
            "children",
            Json::Arr(s.children.iter().map(span_to_json).collect()),
        ),
    ])
}

fn span_from_json(v: &Json) -> Result<TraceSpan, ProtoError> {
    let attrs = v
        .get("attrs")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError("span attrs must be an array".into()))?
        .iter()
        .map(|pair| {
            let a = pair
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| ProtoError("span attr must be [key, value]".into()))?;
            let key = a
                .first()
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError("attr key must be a string".into()))?;
            let val = a
                .get(1)
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError("attr value must be a string".into()))?;
            Ok((key.to_string(), AttrValue::Str(val.to_string())))
        })
        .collect::<Result<Vec<_>, ProtoError>>()?;
    let children = v
        .get("children")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError("span children must be an array".into()))?
        .iter()
        .map(span_from_json)
        .collect::<Result<Vec<_>, ProtoError>>()?;
    Ok(TraceSpan {
        name: str_field(v, "name")?,
        start_s: num_field(v, "start_s")?,
        duration_s: num_field(v, "duration_s")?,
        attrs,
        children,
    })
}

fn points_to_json(points: &[ThresholdPoint]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                let (x, y, z) = p.coords();
                Json::Arr(vec![
                    Json::Num(f64::from(x)),
                    Json::Num(f64::from(y)),
                    Json::Num(f64::from(z)),
                    Json::Num(f64::from(p.value)),
                ])
            })
            .collect(),
    )
}

fn points_from_json(v: &Json) -> Result<Vec<ThresholdPoint>, ProtoError> {
    v.as_arr()
        .ok_or_else(|| ProtoError("points must be an array".into()))?
        .iter()
        .map(|item| {
            let a = item
                .as_arr()
                .filter(|a| a.len() == 4)
                .ok_or_else(|| ProtoError("point must be [x,y,z,value]".into()))?;
            let coord = |i: usize| -> Result<u32, ProtoError> {
                a.get(i)
                    .and_then(Json::as_u64)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| ProtoError("point coordinate must be u32".into()))
            };
            let value = a
                .get(3)
                .and_then(Json::as_f64)
                .ok_or_else(|| ProtoError("point value must be a number".into()))?;
            Ok(ThresholdPoint::at(
                coord(0)?,
                coord(1)?,
                coord(2)?,
                value as f32,
            ))
        })
        .collect()
}

fn degraded_to_json(d: &DegradedInfo) -> Json {
    Json::obj([
        (
            "failed_nodes",
            Json::Arr(
                d.failed_nodes
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("node", Json::Num(f.node as f64)),
                            ("reason", Json::Str(f.reason.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "missing_boxes",
            Json::Arr(d.missing_boxes.iter().map(box_to_json).collect()),
        ),
    ])
}

fn degraded_from_json(v: &Json) -> Result<DegradedInfo, ProtoError> {
    let failed_nodes = v
        .get("failed_nodes")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError("failed_nodes must be an array".into()))?
        .iter()
        .map(|f| {
            Ok(FailedNode {
                node: uint_field(f, "node")?,
                reason: str_field(f, "reason")?,
            })
        })
        .collect::<Result<Vec<_>, ProtoError>>()?;
    let missing_boxes = v
        .get("missing_boxes")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError("missing_boxes must be an array".into()))?
        .iter()
        .map(box_from_json)
        .collect::<Result<Vec<_>, ProtoError>>()?;
    Ok(DegradedInfo {
        failed_nodes,
        missing_boxes,
    })
}

/// Parses the optional `degraded` member of a response document.
fn opt_degraded(v: &Json) -> Result<Option<DegradedInfo>, ProtoError> {
    v.get("degraded").map(degraded_from_json).transpose()
}

fn breakdown_to_json(b: &TimeBreakdown) -> Json {
    Json::obj([
        ("cache_lookup_s", Json::Num(b.cache_lookup_s)),
        ("io_s", Json::Num(b.io_s)),
        ("compute_s", Json::Num(b.compute_s)),
        ("mediator_db_s", Json::Num(b.mediator_db_s)),
        ("mediator_user_s", Json::Num(b.mediator_user_s)),
    ])
}

fn breakdown_from_json(v: &Json) -> Result<TimeBreakdown, ProtoError> {
    Ok(TimeBreakdown {
        cache_lookup_s: num_field(v, "cache_lookup_s")?,
        io_s: num_field(v, "io_s")?,
        compute_s: num_field(v, "compute_s")?,
        mediator_db_s: num_field(v, "mediator_db_s")?,
        mediator_user_s: num_field(v, "mediator_user_s")?,
    })
}

impl Response {
    /// Serialises to a single-line JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Pong => Json::obj([("ok", Json::Str("pong".into()))]),
            Response::Info {
                dataset,
                dims,
                timesteps,
                fields,
                compression,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Str("info".into())),
                    ("dataset", Json::Str(dataset.clone())),
                    (
                        "dims",
                        Json::Arr(vec![
                            Json::Num(f64::from(dims.0)),
                            Json::Num(f64::from(dims.1)),
                            Json::Num(f64::from(dims.2)),
                        ]),
                    ),
                    ("timesteps", Json::Num(f64::from(*timesteps))),
                    (
                        "fields",
                        Json::Arr(
                            fields
                                .iter()
                                .map(|(n, c)| {
                                    Json::obj([
                                        ("name", Json::Str(n.clone())),
                                        ("ncomp", Json::Num(f64::from(*c))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ];
                if compression.is_active() {
                    pairs.push(("compression", compression_to_json(compression)));
                }
                Json::obj(pairs)
            }
            Response::Threshold {
                points,
                breakdown,
                cache_hits,
                nodes,
                degraded,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Str("threshold".into())),
                    ("points", points_to_json(points)),
                    ("breakdown", breakdown_to_json(breakdown)),
                    ("cache_hits", Json::Num(f64::from(*cache_hits))),
                    ("nodes", Json::Num(f64::from(*nodes))),
                ];
                if let Some(d) = degraded {
                    pairs.push(("degraded", degraded_to_json(d)));
                }
                Json::obj(pairs)
            }
            Response::Pdf {
                origin,
                bin_width,
                counts,
                degraded,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Str("pdf".into())),
                    ("origin", Json::Num(*origin)),
                    ("bin_width", Json::Num(*bin_width)),
                    (
                        "counts",
                        Json::Arr(counts.iter().map(|&c| Json::Num(c as f64)).collect()),
                    ),
                ];
                if let Some(d) = degraded {
                    pairs.push(("degraded", degraded_to_json(d)));
                }
                Json::obj(pairs)
            }
            Response::TopK { points, degraded } => {
                let mut pairs = vec![
                    ("ok", Json::Str("topk".into())),
                    ("points", points_to_json(points)),
                ];
                if let Some(d) = degraded {
                    pairs.push(("degraded", degraded_to_json(d)));
                }
                Json::obj(pairs)
            }
            Response::Stats {
                count,
                mean,
                rms,
                min,
                max,
            } => Json::obj([
                ("ok", Json::Str("stats".into())),
                ("count", Json::Num(*count as f64)),
                ("mean", Json::Num(*mean)),
                ("rms", Json::Num(*rms)),
                ("min", Json::Num(*min)),
                ("max", Json::Num(*max)),
            ]),
            Response::Points { values } => Json::obj([
                ("ok", Json::Str("points".into())),
                (
                    "values",
                    Json::Arr(
                        values
                            .iter()
                            .map(|v| {
                                Json::Arr(v.iter().map(|&c| Json::Num(f64::from(c))).collect())
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::JobAccepted { job } => Json::obj([
                ("ok", Json::Str("job_accepted".into())),
                ("job", Json::Num(*job as f64)),
            ]),
            Response::JobState {
                state,
                detail,
                rows,
            } => Json::obj([
                ("ok", Json::Str("job_state".into())),
                ("state", Json::Str(state.clone())),
                ("detail", Json::Str(detail.clone())),
                ("rows", Json::Num(*rows as f64)),
            ]),
            Response::MyDbList { tables } => Json::obj([
                ("ok", Json::Str("mydb_list".into())),
                (
                    "tables",
                    Json::Arr(tables.iter().map(|t| Json::Str(t.clone())).collect()),
                ),
            ]),
            Response::MyDbTable { provenance, points } => Json::obj([
                ("ok", Json::Str("mydb_table".into())),
                ("provenance", Json::Str(provenance.clone())),
                ("points", points_to_json(points)),
            ]),
            Response::Metrics { counters, gauges } => Json::obj([
                ("ok", Json::Str("metrics".into())),
                (
                    "counters",
                    Json::Arr(
                        counters
                            .iter()
                            .map(|(k, v)| {
                                Json::Arr(vec![Json::Str(k.clone()), Json::Num(*v as f64)])
                            })
                            .collect(),
                    ),
                ),
                (
                    "gauges",
                    Json::Arr(
                        gauges
                            .iter()
                            .map(|(k, v)| {
                                Json::Arr(vec![Json::Str(k.clone()), Json::Num(*v as f64)])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Trace { trace } => Json::obj([
                ("ok", Json::Str("trace".into())),
                ("root", span_to_json(&trace.root)),
            ]),
            Response::Busy {
                queue_depth,
                retry_ms,
            } => Json::obj([
                ("ok", Json::Str("busy".into())),
                ("queue_depth", Json::Num(*queue_depth as f64)),
                ("retry_ms", Json::Num(*retry_ms as f64)),
            ]),
            Response::Error { message } => Json::obj([("error", Json::Str(message.clone()))]),
        }
    }

    /// Parses a response document.
    pub fn from_json(v: &Json) -> Result<Response, ProtoError> {
        if let Some(msg) = v.get("error").and_then(Json::as_str) {
            return Ok(Response::Error {
                message: msg.to_string(),
            });
        }
        let ok = str_field(v, "ok")?;
        match ok.as_str() {
            "pong" => Ok(Response::Pong),
            "info" => {
                let dims = v
                    .get("dims")
                    .and_then(Json::as_arr)
                    .filter(|a| a.len() == 3)
                    .ok_or_else(|| ProtoError("dims must be [nx,ny,nz]".into()))?;
                let d = |i: usize| {
                    dims.get(i)
                        .and_then(Json::as_u64)
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| ProtoError("dims must be u32".into()))
                };
                let fields = v
                    .get("fields")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtoError("fields must be an array".into()))?
                    .iter()
                    .map(|f| Ok((str_field(f, "name")?, uint_field(f, "ncomp")?)))
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                Ok(Response::Info {
                    dataset: str_field(v, "dataset")?,
                    dims: (d(0)?, d(1)?, d(2)?),
                    timesteps: uint_field(v, "timesteps")?,
                    fields,
                    compression: match v.get("compression") {
                        Some(c) => compression_from_json(c)?,
                        None => CompressionConfig::default(),
                    },
                })
            }
            "threshold" => Ok(Response::Threshold {
                points: points_from_json(field(v, "points")?)?,
                breakdown: breakdown_from_json(field(v, "breakdown")?)?,
                cache_hits: uint_field(v, "cache_hits")?,
                nodes: uint_field(v, "nodes")?,
                degraded: opt_degraded(v)?,
            }),
            "pdf" => Ok(Response::Pdf {
                origin: num_field(v, "origin")?,
                bin_width: num_field(v, "bin_width")?,
                counts: v
                    .get("counts")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtoError("counts must be an array".into()))?
                    .iter()
                    .map(|c| {
                        c.as_u64()
                            .ok_or_else(|| ProtoError("count must be u64".into()))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                degraded: opt_degraded(v)?,
            }),
            "topk" => Ok(Response::TopK {
                points: points_from_json(field(v, "points")?)?,
                degraded: opt_degraded(v)?,
            }),
            "stats" => Ok(Response::Stats {
                count: u64_field(v, "count")?,
                mean: num_field(v, "mean")?,
                rms: num_field(v, "rms")?,
                min: num_field(v, "min")?,
                max: num_field(v, "max")?,
            }),
            "job_accepted" => Ok(Response::JobAccepted {
                job: u64_field(v, "job")?,
            }),
            "job_state" => Ok(Response::JobState {
                state: str_field(v, "state")?,
                detail: str_field(v, "detail")?,
                rows: u64_field(v, "rows")?,
            }),
            "mydb_list" => Ok(Response::MyDbList {
                tables: v
                    .get("tables")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtoError("tables must be an array".into()))?
                    .iter()
                    .map(|t| {
                        t.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ProtoError("table name must be a string".into()))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "mydb_table" => Ok(Response::MyDbTable {
                provenance: str_field(v, "provenance")?,
                points: points_from_json(field(v, "points")?)?,
            }),
            "metrics" => {
                let pairs = |key: &str| -> Result<Vec<(String, f64)>, ProtoError> {
                    v.get(key)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| ProtoError(format!("{key} must be an array")))?
                        .iter()
                        .map(|pair| {
                            let a = pair
                                .as_arr()
                                .filter(|a| a.len() == 2)
                                .ok_or_else(|| ProtoError("metric must be [name, value]".into()))?;
                            let name = a
                                .first()
                                .and_then(Json::as_str)
                                .ok_or_else(|| ProtoError("metric name must be a string".into()))?;
                            let val = a.get(1).and_then(Json::as_f64).ok_or_else(|| {
                                ProtoError("metric value must be a number".into())
                            })?;
                            Ok((name.to_string(), val))
                        })
                        .collect()
                };
                Ok(Response::Metrics {
                    counters: pairs("counters")?
                        .into_iter()
                        .map(|(k, v)| (k, v as u64))
                        .collect(),
                    gauges: pairs("gauges")?
                        .into_iter()
                        .map(|(k, v)| (k, v as i64))
                        .collect(),
                })
            }
            "trace" => Ok(Response::Trace {
                trace: QueryTrace::new(span_from_json(field(v, "root")?)?),
            }),
            "busy" => Ok(Response::Busy {
                queue_depth: u64_field(v, "queue_depth")?,
                retry_ms: u64_field(v, "retry_ms")?,
            }),
            "points" => {
                let values = v
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ProtoError("values must be an array".into()))?
                    .iter()
                    .map(|p| {
                        let a = p
                            .as_arr()
                            .filter(|a| a.len() == 3)
                            .ok_or_else(|| ProtoError("value must be [x,y,z]".into()))?;
                        let c = |i: usize| {
                            a.get(i)
                                .and_then(Json::as_f64)
                                .map(|v| v as f32)
                                .ok_or_else(|| ProtoError("component must be a number".into()))
                        };
                        Ok([c(0)?, c(1)?, c(2)?])
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                Ok(Response::Points { values })
            }
            other => Err(ProtoError(format!("unknown response kind '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let encoded = r.to_json().encode();
        let back = Request::from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(back, r, "request roundtrip via {encoded}");
    }

    fn roundtrip_resp(r: Response) {
        let encoded = r.to_json().encode();
        let back = Response::from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(back, r, "response roundtrip via {encoded}");
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Info);
        roundtrip_req(Request::GetThreshold {
            raw_field: "velocity".into(),
            derived: DerivedField::CurlNorm,
            timestep: 3,
            query_box: Some(Box3::new([0, 1, 2], [10, 11, 12])),
            threshold: 44.5,
            use_cache: true,
        });
        roundtrip_req(Request::GetThreshold {
            raw_field: "magnetic".into(),
            derived: DerivedField::Norm,
            timestep: 0,
            query_box: None,
            threshold: -1.25,
            use_cache: false,
        });
        roundtrip_req(Request::GetPdf {
            raw_field: "velocity".into(),
            derived: DerivedField::QCriterion,
            timestep: 1,
            origin: 0.0,
            bin_width: 10.0,
            nbins: 9,
        });
        roundtrip_req(Request::GetTopK {
            raw_field: "velocity".into(),
            derived: DerivedField::RInvariant,
            timestep: 2,
            k: 100,
        });
        roundtrip_req(Request::GetStats {
            raw_field: "pressure".into(),
            derived: DerivedField::Norm,
            timestep: 0,
        });
        roundtrip_req(Request::GetPoints {
            raw_field: "velocity".into(),
            timestep: 1,
            lag_width: 6,
            positions: vec![[1.5, 2.25, 3.0], [0.0, 63.75, 31.5]],
        });
        roundtrip_req(Request::SubmitJob {
            raw_field: "velocity".into(),
            derived: DerivedField::CurlNorm,
            timestep: 2,
            threshold: 44.0,
            output_table: "intense_t2".into(),
        });
        roundtrip_req(Request::JobStatus { job: 17 });
        roundtrip_req(Request::ListMyDb);
        roundtrip_req(Request::GetMyDbTable { name: "t".into() });
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::GetTrace {
            raw_field: "velocity".into(),
            derived: DerivedField::CurlNorm,
            timestep: 1,
            query_box: Some(Box3::new([0, 0, 0], [15, 15, 15])),
            threshold: 30.5,
            use_cache: true,
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Info {
            dataset: "mhd64".into(),
            dims: (64, 64, 64),
            timesteps: 4,
            fields: vec![("velocity".into(), 3), ("pressure".into(), 1)],
            compression: CompressionConfig::default(),
        });
        roundtrip_resp(Response::Info {
            dataset: "mhd64".into(),
            dims: (64, 64, 64),
            timesteps: 4,
            fields: vec![("velocity".into(), 3)],
            compression: CompressionConfig::lossless(),
        });
        roundtrip_resp(Response::Info {
            dataset: "mhd64".into(),
            dims: (64, 64, 64),
            timesteps: 4,
            fields: vec![("velocity".into(), 3)],
            compression: CompressionConfig::lossy(2, 1e-3),
        });
        roundtrip_resp(Response::Threshold {
            points: vec![
                ThresholdPoint::at(1, 2, 3, 45.5),
                ThresholdPoint::at(63, 0, 9, 101.25),
            ],
            breakdown: TimeBreakdown {
                cache_lookup_s: 0.001,
                io_s: 0.5,
                compute_s: 0.25,
                mediator_db_s: 0.004,
                mediator_user_s: 0.02,
            },
            cache_hits: 2,
            nodes: 4,
            degraded: None,
        });
        roundtrip_resp(Response::Pdf {
            origin: 0.0,
            bin_width: 10.0,
            counts: vec![100, 10, 1, 0],
            degraded: None,
        });
        roundtrip_resp(Response::TopK {
            points: vec![ThresholdPoint::at(5, 5, 5, 99.0)],
            degraded: None,
        });
        roundtrip_resp(Response::Stats {
            count: 262144,
            mean: 9.1,
            rms: 10.0,
            min: 0.01,
            max: 111.5,
        });
        roundtrip_resp(Response::Points {
            values: vec![[1.5, -2.25, 0.0], [100.125, 0.5, -7.75]],
        });
        roundtrip_resp(Response::JobAccepted { job: 3 });
        roundtrip_resp(Response::JobState {
            state: "done".into(),
            detail: String::new(),
            rows: 4200,
        });
        roundtrip_resp(Response::MyDbList {
            tables: vec!["a".into(), "b".into()],
        });
        roundtrip_resp(Response::MyDbTable {
            provenance: "threshold velocity/curl_norm t=0 k=44".into(),
            points: vec![ThresholdPoint::at(1, 2, 3, 50.0)],
        });
        roundtrip_resp(Response::Busy {
            queue_depth: 32,
            retry_ms: 100,
        });
        roundtrip_resp(Response::Error {
            message: "threshold too low: 2000000 locations".into(),
        });
        roundtrip_resp(Response::Metrics {
            counters: vec![
                ("bufferpool.hits".into(), 42),
                ("cache.semantic.hits".into(), 3),
            ],
            gauges: vec![("node.active_subqueries".into(), -1)],
        });
        // attr values are display strings on the wire, so a trace built
        // with Str attrs roundtrips exactly
        let mut root = TraceSpan::new("query.threshold", 0.0, 1.5)
            .with_attr("points", "42")
            .with_attr("wall_s", "0.03");
        let mut io = TraceSpan::new("phase.io", 0.0, 1.25);
        io.push_child(TraceSpan::new("node.0", 0.0, 1.1).with_attr("cache", "miss"));
        root.push_child(io);
        roundtrip_resp(Response::Trace {
            trace: QueryTrace::new(root),
        });
    }

    #[test]
    fn degraded_status_roundtrips() {
        let degraded = Some(DegradedInfo {
            failed_nodes: vec![FailedNode {
                node: 1,
                reason: "node 1 unavailable: injected node failure".into(),
            }],
            missing_boxes: vec![Box3::new([0, 16, 0], [63, 31, 63])],
        });
        roundtrip_resp(Response::Threshold {
            points: vec![ThresholdPoint::at(1, 2, 3, 45.5)],
            breakdown: TimeBreakdown {
                cache_lookup_s: 0.001,
                io_s: 0.5,
                compute_s: 0.25,
                mediator_db_s: 0.004,
                mediator_user_s: 0.02,
            },
            cache_hits: 0,
            nodes: 3,
            degraded: degraded.clone(),
        });
        roundtrip_resp(Response::Pdf {
            origin: 0.0,
            bin_width: 1.0,
            counts: vec![4, 2],
            degraded: degraded.clone(),
        });
        roundtrip_resp(Response::TopK {
            points: vec![],
            degraded,
        });
        // absent on the wire decodes as None, not an error
        let clean = Response::TopK {
            points: vec![],
            degraded: None,
        };
        let back = Response::from_json(&Json::parse(&clean.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back, clean);
    }

    #[test]
    fn trace_attrs_serialize_as_display_strings() {
        let root = TraceSpan::new("query.threshold", 0.0, 1.0).with_attr("points", 7u64);
        let r = Response::Trace {
            trace: QueryTrace::new(root),
        };
        let back = Response::from_json(&Json::parse(&r.to_json().encode()).unwrap()).unwrap();
        let Response::Trace { trace } = back else {
            panic!()
        };
        assert_eq!(trace.root.attr("points"), Some(&AttrValue::Str("7".into())));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            r#"{"op":"nope"}"#,
            r#"{"op":"get_threshold","field":"v"}"#,
            r#"{"op":"get_threshold","field":"v","derived":"bogus","timestep":0,"threshold":1}"#,
            r#"{"op":"get_threshold","field":"v","derived":"norm","timestep":0,"threshold":1,"box":[1,2]}"#,
            r#"{"op":"get_threshold","field":"v","derived":"norm","timestep":0,"threshold":1,"box":[9,0,0,1,1,1]}"#,
            r#"{"op":"get_pdf","field":"v","derived":"norm","timestep":-1,"origin":0,"bin_width":1,"nbins":4}"#,
            // 2^32 does not fit a u32 field: rejected, never wrapped to 0
            r#"{"op":"get_threshold","field":"v","derived":"norm","timestep":4294967296,"threshold":1}"#,
            r#"{"op":"get_trace","field":"v","derived":"norm","timestep":4294967296,"threshold":1}"#,
            r#"{"op":"get_pdf","field":"v","derived":"norm","timestep":0,"origin":0,"bin_width":1,"nbins":4294967300}"#,
            r#"{"op":"get_topk","field":"v","derived":"norm","timestep":0,"k":4294967297}"#,
            r#"{"op":"get_stats","field":"v","derived":"norm","timestep":4294967296}"#,
            r#"{"op":"get_points","field":"v","timestep":0,"lag_width":4294967300,"positions":[[0,0,0]]}"#,
            r#"{"op":"submit_job","field":"v","derived":"norm","timestep":4294967296,"threshold":1,"output_table":"t"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn over_range_response_fields_are_rejected() {
        for bad in [
            r#"{"ok":"threshold","points":[],"breakdown":{"cache_lookup_s":0,"io_s":0,"compute_s":0,"mediator_db_s":0,"mediator_user_s":0},"cache_hits":4294967296,"nodes":4}"#,
            r#"{"ok":"threshold","points":[],"breakdown":{"cache_lookup_s":0,"io_s":0,"compute_s":0,"mediator_db_s":0,"mediator_user_s":0},"cache_hits":0,"nodes":4294967296}"#,
            r#"{"ok":"info","dataset":"d","dims":[8,8,8],"timesteps":4294967296,"fields":[]}"#,
            r#"{"ok":"info","dataset":"d","dims":[8,8,4294967296],"timesteps":1,"fields":[]}"#,
            r#"{"ok":"info","dataset":"d","dims":[8,8,8],"timesteps":1,"fields":[{"name":"v","ncomp":256}]}"#,
            r#"{"ok":"info","dataset":"d","dims":[8,8,8],"timesteps":1,"fields":[],"compression":{"mode":"lossy","stride":4294967298,"max_error":0.1}}"#,
            r#"{"ok":"topk","points":[],"degraded":{"failed_nodes":[{"node":-1,"reason":"x"}],"missing_boxes":[]}}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Response::from_json(&v).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn info_without_compression_member_decodes_as_off() {
        // a pre-compression server's info document still parses
        let legacy = r#"{"ok":"info","dataset":"d","dims":[8,8,8],"timesteps":1,"fields":[]}"#;
        let back = Response::from_json(&Json::parse(legacy).unwrap()).unwrap();
        let Response::Info { compression, .. } = back else {
            panic!()
        };
        assert_eq!(compression.mode, CompressionMode::Off);
        // and an off-mode server emits exactly that legacy document shape
        let off = Response::Info {
            dataset: "d".into(),
            dims: (8, 8, 8),
            timesteps: 1,
            fields: vec![],
            compression: CompressionConfig::default(),
        };
        assert!(!off.to_json().encode().contains("compression"));
    }

    #[test]
    fn threshold_points_preserve_morton_identity() {
        let p = ThresholdPoint::at(100, 200, 300, 7.5);
        let r = Response::TopK {
            points: vec![p],
            degraded: None,
        };
        let back = Response::from_json(&Json::parse(&r.to_json().encode()).unwrap()).unwrap();
        let Response::TopK { points, .. } = back else {
            panic!()
        };
        assert_eq!(points[0].zindex, p.zindex);
    }
}
