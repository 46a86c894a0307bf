//! Protocol messages: one JSON object per line in each direction.
//!
//! Mirrors the JHTDB Web-service surface (`GetThreshold`, PDFs, top-k,
//! field statistics) without SOAP's envelope overhead — the modelled
//! user-transfer cost in the cluster still uses the XML inflation the
//! paper reports, this protocol is the *functional* interface.
//!
//! Everything is said once. A value type's wire form — both directions,
//! range checks included — is its [`Wire`] impl (structs of named
//! members: one `wire_record!` line). A message is its enum variant plus
//! its row in the `wire_messages!` table under the enum: the tag, then
//! `"wire name": field` pairs; `to_json` and `from_json` are generated
//! from that row. To add a message: add the variant, add the row, and pin
//! its line in `tests/golden/` and `tests/golden_wire.rs`.

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

// every decoder's error path; cold keeps it out of the per-point loop
#[cold]
fn bad<T>(what: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError(what.into()))
}

fn want<T>(got: Option<T>, what: &str) -> Result<T, ProtoError> {
    got.map_or_else(|| bad(what), Ok)
}

const OUT_OF_RANGE: &str = "is out of range";

/// The wire form of one value type, both directions. `dec` rejects
/// whatever the type cannot hold — another JSON type, a fraction, an
/// over-range number — and says what is wrong with the value ("must be a
/// string"); [`member`] adds which field it was.
pub(crate) trait Wire: Sized {
    fn enc(&self) -> Json;
    fn dec(v: &Json) -> Result<Self, ProtoError>;
    /// Whether an optional member holding this value stays off the wire.
    fn omit(&self) -> bool {
        false
    }
}

/// Reads member `name` of the object `v`. `absent` is what a missing
/// member means (`None`: it is required); a member that is present but
/// malformed or out of range is an error either way, never the default.
pub(crate) fn member<T: Wire>(v: &Json, name: &str, absent: Option<T>) -> Result<T, ProtoError> {
    match (v.get(name), absent) {
        (Some(m), _) => T::dec(m).map_err(|e| ProtoError(format!("field '{name}' {}", e.0))),
        (None, Some(default)) => Ok(default),
        (None, None) => bad(format!("missing field '{name}'")),
    }
}

/// A JSON array of exactly `N` elements.
fn tuple<const N: usize>(v: &Json) -> Result<&[Json; N], ProtoError> {
    v.as_arr()
        .and_then(|a| a.try_into().ok())
        .ok_or_else(|| ProtoError(format!("must be an array of {N}")))
}

impl Wire for bool {
    fn enc(&self) -> Json {
        Json::Bool(*self)
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        want(v.as_bool(), "must be a boolean")
    }
}

impl Wire for String {
    fn enc(&self) -> Json {
        Json::Str(self.clone())
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        want(v.as_str(), "must be a string").map(str::to_string)
    }
}

impl Wire for f64 {
    fn enc(&self) -> Json {
        Json::Num(*self)
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        match v.as_f64() {
            Some(n) if n.is_finite() => Ok(n),
            // a literal like 1e999 parses to infinity, which has no JSON form
            Some(_) => bad(OUT_OF_RANGE),
            None => bad("must be a number"),
        }
    }
}

impl Wire for f32 {
    fn enc(&self) -> Json {
        f64::from(*self).enc()
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        let n = f64::dec(v)? as f32;
        if n.is_finite() {
            Ok(n)
        } else {
            bad(OUT_OF_RANGE)
        }
    }
}

/// Gauges: integral and exactly representable, |v| ≤ 2⁵³.
impl Wire for i64 {
    fn enc(&self) -> Json {
        (*self as f64).enc()
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        let n = f64::dec(v)?;
        if n.fract() != 0.0 {
            bad("must be an integer")
        } else if n.abs() > 2f64.powi(53) {
            bad(OUT_OF_RANGE)
        } else {
            Ok(n as i64)
        }
    }
}

/// A non-negative integer that must fit the narrower `T` — an over-range
/// value is a malformed message, never a wrapped one.
fn uint<T: TryFrom<u64>>(v: &Json) -> Result<T, ProtoError> {
    match v.as_u64().map(T::try_from) {
        Some(Ok(n)) => Ok(n),
        Some(Err(_)) => bad(OUT_OF_RANGE),
        None => bad("must be a non-negative integer"),
    }
}

macro_rules! wire_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn enc(&self) -> Json {
                (*self as f64).enc()
            }
            fn dec(v: &Json) -> Result<Self, ProtoError> {
                uint(v)
            }
        }
    )*};
}
wire_uint!(u8, u32, u64, usize);

/// A value that travels as its name.
fn named<T>(v: &Json, parse: fn(&str) -> Option<T>, kind: &str) -> Result<T, ProtoError> {
    let name = want(v.as_str(), "must be a string")?;
    parse(name).map_or_else(|| bad(format!("names no {kind}: '{name}'")), Ok)
}

impl Wire for DerivedField {
    fn enc(&self) -> Json {
        self.name().enc()
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        named(v, DerivedField::parse, "derived field")
    }
}

impl Wire for CompressionMode {
    fn enc(&self) -> Json {
        self.as_str().to_string().enc()
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        named(v, CompressionMode::parse, "compression mode")
    }
}

/// Trace attributes travel as display strings and come back as `Str`.
impl Wire for AttrValue {
    fn enc(&self) -> Json {
        self.to_string().enc()
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        String::dec(v).map(AttrValue::Str)
    }
}

/// An optional member: `None` stays off the wire, and `null` is not a
/// spelling of it.
impl<T: Wire> Wire for Option<T> {
    fn enc(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::enc)
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        T::dec(v).map(Some)
    }
    fn omit(&self) -> bool {
        self.is_none()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self) -> Json {
        Json::Arr(self.iter().map(T::enc).collect())
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        want(v.as_arr(), "must be an array")?
            .iter()
            .map(T::dec)
            .collect()
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn enc(&self) -> Json {
        Json::Arr(self.iter().map(T::enc).collect())
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(tuple::<N>(v)?) {
            *slot = T::dec(item)?;
        }
        Ok(out)
    }
}

/// Grid dimensions: `[nx, ny, nz]`.
impl Wire for (u32, u32, u32) {
    fn enc(&self) -> Json {
        [self.0, self.1, self.2].enc()
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        <[u32; 3]>::dec(v).map(|[nx, ny, nz]| (nx, ny, nz))
    }
}

/// `[xl, yl, zl, xu, yu, zu]`, both corners inclusive.
impl Wire for Box3 {
    fn enc(&self) -> Json {
        let ([xl, yl, zl], [xu, yu, zu]) = (self.lo, self.hi);
        [xl, yl, zl, xu, yu, zu].enc()
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        let [xl, yl, zl, xu, yu, zu] = <[u32; 6]>::dec(v)?;
        if xl > xu || yl > yu || zl > zu {
            return bad("has a lower corner beyond its upper corner");
        }
        Ok(Box3::new([xl, yl, zl], [xu, yu, zu]))
    }
}

/// `[x, y, z, value]`: the Morton code travels as its coordinates. With
/// `Vec<T>` this is the one place a point list becomes JSON and comes back.
impl Wire for ThresholdPoint {
    #[inline] // once per answer point, from `Vec<T>::enc`'s loop
    fn enc(&self) -> Json {
        let (x, y, z) = self.coords();
        Json::Arr(vec![x.enc(), y.enc(), z.enc(), self.value.enc()])
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        let [x, y, z, value] = tuple::<4>(v)?;
        Ok(ThresholdPoint::at(
            u32::dec(x)?,
            u32::dec(y)?,
            u32::dec(z)?,
            f32::dec(value)?,
        ))
    }
}

/// The value types of `[name, value]` pairs: metrics and trace attributes.
trait PairValue: Wire {}
impl PairValue for u64 {}
impl PairValue for i64 {}
impl PairValue for AttrValue {}

impl<T: PairValue> Wire for (String, T) {
    fn enc(&self) -> Json {
        Json::Arr(vec![self.0.enc(), self.1.enc()])
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        let [name, value] = tuple::<2>(v)?;
        Ok((String::dec(name)?, T::dec(value)?))
    }
}

/// A struct (or tuple) that travels as a JSON object of named members,
/// all required.
macro_rules! wire_record {
    ($ty:ident { $($name:literal: $field:ident),* } $(omit when $omit:expr)?) => {
        impl Wire for $ty {
            fn enc(&self) -> Json {
                Json::obj([$(($name, self.$field.enc())),*])
            }
            fn dec(v: &Json) -> Result<Self, ProtoError> {
                Ok($ty { $($field: member(v, $name, None)?),* })
            }
            $(fn omit(&self) -> bool {
                ($omit)(self)
            })?
        }
    };
    (($($t:ty),*) { $($name:literal: $idx:tt),* }) => {
        impl Wire for ($($t),*) {
            fn enc(&self) -> Json {
                Json::obj([$(($name, self.$idx.enc())),*])
            }
            fn dec(v: &Json) -> Result<Self, ProtoError> {
                Ok(($(member(v, $name, None)?),*))
            }
        }
    };
}

wire_record!(TimeBreakdown {
    "cache_lookup_s": cache_lookup_s, "io_s": io_s, "compute_s": compute_s,
    "mediator_db_s": mediator_db_s, "mediator_user_s": mediator_user_s
});
wire_record!(FailedNode { "node": node, "reason": reason });
wire_record!(DegradedInfo { "failed_nodes": failed_nodes, "missing_boxes": missing_boxes });
wire_record!(TraceSpan {
    "name": name, "start_s": start_s, "duration_s": duration_s, "attrs": attrs, "children": children
});
// one raw field of the archive, as `Response::Info` lists it
wire_record!((String, u8) { "name": 0, "ncomp": 1 });
// compression off stays off the wire, so an uncompressed server keeps the
// original `info` document
wire_record!(CompressionConfig { "mode": mode, "stride": stride, "max_error": max_error }
    omit when |c: &CompressionConfig| !c.is_active());

/// A trace travels as its root span.
impl Wire for QueryTrace {
    fn enc(&self) -> Json {
        self.root.enc()
    }
    fn dec(v: &Json) -> Result<Self, ProtoError> {
        TraceSpan::dec(v).map(QueryTrace::new)
    }
}

/// Generates `to_json` / `from_json` for a message enum from one row per
/// message: `"tag": Variant => { "wire name": field, .. }`.
///
/// * Variants joined by `|` are twins: same members, different tag.
/// * `"name": field = default` declares an optional member: absent decodes
///   as `default`, and it is left off the wire when its value says
///   [`Wire::omit`] (`None`, compression off; a `bool` never does).
/// * `untagged "key" => Variant { field }` is the one message that is not
///   tagged at all: `{"key": field}`.
macro_rules! wire_messages {
    (
        $ty:ident tagged $tag_key:literal
        $(, untagged $bare_key:literal => $bare:ident { $bare_field:ident })?;
        $($($tag:literal: $variant:ident)|+ => $members:tt)*
    ) => {
        impl $ty {
            /// Serialises to a single-line JSON document.
            pub fn to_json(&self) -> Json {
                // a variant without a row does not compile
                match self {
                    $($(Self::$variant { .. })|+ => {})*
                    $(Self::$bare { .. } => {})?
                }
                let mut pairs = Vec::with_capacity(8);
                $(if let Self::$bare { $bare_field } = self {
                    pairs.push(($bare_key, $bare_field.enc()));
                })?
                $($(wire_messages!(@enc self pairs $tag_key $tag $variant $members);)+)*
                Json::obj(pairs)
            }

            /// Parses a document; anything malformed, missing or out of
            /// range is a [`ProtoError`], never a default or a wrap.
            pub fn from_json(v: &Json) -> Result<$ty, ProtoError> {
                $(if v.get($bare_key).is_some() {
                    return Ok(Self::$bare { $bare_field: member(v, $bare_key, None)? });
                })?
                let tag: String = member(v, $tag_key, None)?;
                $($(wire_messages!(@dec v tag $tag $variant $members);)+)*
                bad(format!("unknown {} '{tag}'", $tag_key))
            }

            /// Per row: its tags and its `(wire name, optional)` members.
            #[cfg(test)]
            const SCHEMA: &'static [(&'static [&'static str], &'static [(&'static str, bool)])] = &[
                $((&[], &[($bare_key, false)]),)?
                $((&[$($tag),+], wire_messages!(@schema $members))),*
            ];
        }
    };
    (@enc $self:ident $pairs:ident $tag_key:literal $tag:literal $variant:ident
        { $($name:literal: $field:ident $(= $absent:expr)?),* }) => {
        if let Self::$variant { $($field),* } = $self {
            $pairs.push(($tag_key, $tag.to_string().enc()));
            $(if !(wire_messages!(@optional $($absent)?) && $field.omit()) {
                $pairs.push(($name, $field.enc()));
            })*
        }
    };
    (@dec $v:ident $got:ident $tag:literal $variant:ident
        { $($name:literal: $field:ident $(= $absent:expr)?),* }) => {
        if $got == $tag {
            return Ok(Self::$variant {
                $($field: member($v, $name, None $(.or(Some($absent)))?)?),*
            });
        }
    };
    (@schema { $($name:literal: $field:ident $(= $absent:expr)?),* }) => {
        &[$(($name, wire_messages!(@optional $($absent)?))),*]
    };
    (@optional) => { false };
    (@optional $absent:expr) => { true };
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

wire_messages! {
    Request tagged "op";
    "ping": Ping => {}
    "info": Info => {}
    // absent `use_cache` means `true`: clients that predate the member
    "get_threshold": GetThreshold | "get_trace": GetTrace => {
        "field": raw_field, "derived": derived, "timestep": timestep, "box": query_box = None,
        "threshold": threshold, "use_cache": use_cache = true
    }
    "get_pdf": GetPdf => {
        "field": raw_field, "derived": derived, "timestep": timestep, "origin": origin,
        "bin_width": bin_width, "nbins": nbins
    }
    "get_topk": GetTopK => { "field": raw_field, "derived": derived, "timestep": timestep, "k": k }
    "get_stats": GetStats => { "field": raw_field, "derived": derived, "timestep": timestep }
    "get_points": GetPoints => {
        "field": raw_field, "timestep": timestep, "lag_width": lag_width, "positions": positions
    }
    "submit_job": SubmitJob => {
        "field": raw_field, "derived": derived, "timestep": timestep, "threshold": threshold,
        "output_table": output_table
    }
    "job_status": JobStatus => { "job": job }
    "list_mydb": ListMyDb => {}
    "get_mydb_table": GetMyDbTable => { "name": name }
    "metrics": Metrics => {}
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `Ping`.
    Pong,
    /// The served dataset.
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
    /// The points at or above the threshold, with the modelled times.
    Threshold {
        points: Vec<ThresholdPoint>,
        breakdown: TimeBreakdown,
        cache_hits: u32,
        nodes: u32,
        /// Present when nodes failed and the answer is partial.
        degraded: Option<DegradedInfo>,
    },
    /// Histogram counts, one per bin from `origin` in steps of `bin_width`.
    Pdf {
        origin: f64,
        bin_width: f64,
        counts: Vec<u64>,
        /// Present when nodes failed and the answer is partial.
        degraded: Option<DegradedInfo>,
    },
    /// The k most intense locations, strongest first.
    TopK {
        points: Vec<ThresholdPoint>,
        /// Present when nodes failed and the answer is partial.
        degraded: Option<DegradedInfo>,
    },
    /// Whole-field statistics of a derived norm.
    Stats {
        count: u64,
        mean: f64,
        rms: f64,
        min: f64,
        max: f64,
    },
    /// Interpolated values, one `[vx, vy, vz]` per requested position.
    Points { values: Vec<[f32; 3]> },
    /// Batch job accepted.
    JobAccepted { job: u64 },
    /// Batch job state: "queued", "running", "done" or "failed".
    JobState {
        state: String,
        /// Rows written (done) or error detail (failed).
        detail: String,
        rows: u64,
    },
    /// MyDB table names.
    MyDbList { tables: Vec<String> },
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
    Trace { trace: QueryTrace },
    /// The server shed this data query: its admission queue is full.
    /// Retry after roughly `retry_ms` milliseconds.
    Busy { queue_depth: u64, retry_ms: u64 },
    /// The request failed. The one untagged message: its only member is
    /// the message itself.
    Error { message: String },
}

wire_messages! {
    Response tagged "ok", untagged "error" => Error { message };
    "pong": Pong => {}
    "info": Info => {
        "dataset": dataset, "dims": dims, "timesteps": timesteps, "fields": fields,
        "compression": compression = CompressionConfig::default()
    }
    "threshold": Threshold => {
        "points": points, "breakdown": breakdown, "cache_hits": cache_hits, "nodes": nodes,
        "degraded": degraded = None
    }
    "pdf": Pdf => {
        "origin": origin, "bin_width": bin_width, "counts": counts, "degraded": degraded = None
    }
    "topk": TopK => { "points": points, "degraded": degraded = None }
    "stats": Stats => { "count": count, "mean": mean, "rms": rms, "min": min, "max": max }
    "points": Points => { "values": values }
    "job_accepted": JobAccepted => { "job": job }
    "job_state": JobState => { "state": state, "detail": detail, "rows": rows }
    "mydb_list": MyDbList => { "tables": tables }
    "mydb_table": MyDbTable => { "provenance": provenance, "points": points }
    "metrics": Metrics => { "counters": counters, "gauges": gauges }
    "trace": Trace => { "root": trace }
    "busy": Busy => { "queue_depth": queue_depth, "retry_ms": retry_ms }
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
            // a present member of the wrong type is an error, not its default
            r#"{"op":"get_threshold","field":"v","derived":"norm","timestep":0,"threshold":1,"use_cache":"false"}"#,
            r#"{"op":"get_threshold","field":"v","derived":"norm","timestep":0,"threshold":1,"use_cache":0}"#,
            r#"{"op":"get_trace","field":"v","derived":"norm","timestep":0,"threshold":1,"use_cache":null}"#,
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
            // counters are u64 and gauges integral i64: never clamped or truncated
            r#"{"ok":"metrics","counters":[["c",-1]],"gauges":[]}"#,
            r#"{"ok":"metrics","counters":[["c",1.5]],"gauges":[]}"#,
            r#"{"ok":"metrics","counters":[],"gauges":[["g",1e300]]}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Response::from_json(&v).is_err(), "{bad} should be rejected");
        }
    }

    /// The declaration and the golden files cannot drift: every pinned
    /// line carries exactly the members its row declares (optional ones
    /// may be absent), and no row says a wire name twice.
    #[test]
    fn declaration_matches_the_golden_lines() {
        let requests = include_str!("../tests/golden/requests.jsonl");
        let responses = include_str!("../tests/golden/responses.jsonl");
        for (tag_key, schema, golden) in [
            ("op", Request::SCHEMA, requests),
            ("ok", Response::SCHEMA, responses),
        ] {
            for (tags, members) in schema {
                let mut names: Vec<&str> = members.iter().map(|m| m.0).chain([tag_key]).collect();
                names.sort_unstable();
                names.dedup();
                assert_eq!(names.len(), members.len() + 1, "{tags:?} repeats a name");
            }
            for line in golden.lines() {
                let Ok(Json::Obj(doc)) = Json::parse(line) else {
                    panic!("{line} is not an object")
                };
                let tag = doc.get(tag_key).and_then(Json::as_str);
                let (_, members) = schema
                    .iter()
                    .find(|(tags, _)| tag.map_or(tags.is_empty(), |t| tags.contains(&t)))
                    .unwrap_or_else(|| panic!("{line}: no row declares {tag:?}"));
                for key in doc.keys().filter(|k| *k != tag_key) {
                    let declared = members.iter().any(|m| m.0 == key);
                    assert!(declared, "{line}: undeclared member '{key}'");
                }
                for (name, optional) in *members {
                    let present = doc.contains_key(*name);
                    assert!(*optional || present, "{line}: '{name}' is missing");
                }
            }
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
