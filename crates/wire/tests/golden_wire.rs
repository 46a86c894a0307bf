//! The public wire format, pinned line by line.
//!
//! `tests/golden/{requests,responses}.jsonl` hold one encoded document per
//! protocol variant, written by the encoder as it stood before the query
//! path was collapsed onto one handler (ROADMAP item 3: "public wire JSON
//! unchanged"). A failure here means the format a deployed client speaks
//! has drifted — do not regenerate the files from the current encoder.

use tdb_cluster::CompressionConfig;
use tdb_core::{
    DegradedInfo, DerivedField, FailedNode, QueryTrace, ThresholdPoint, TimeBreakdown, TraceSpan,
};
use tdb_wire::json::Json;
use tdb_wire::proto::{Request, Response};
use tdb_zorder::Box3;

fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Info,
        Request::GetThreshold {
            raw_field: "velocity".into(),
            derived: DerivedField::CurlNorm,
            timestep: 3,
            query_box: Some(Box3::new([0, 1, 2], [10, 11, 12])),
            threshold: 44.5,
            use_cache: true,
        },
        Request::GetThreshold {
            raw_field: "magnetic".into(),
            derived: DerivedField::Norm,
            timestep: 0,
            query_box: None,
            threshold: -1.25,
            use_cache: false,
        },
        Request::GetPdf {
            raw_field: "velocity".into(),
            derived: DerivedField::QCriterion,
            timestep: 1,
            origin: 0.0,
            bin_width: 10.0,
            nbins: 9,
        },
        Request::GetTopK {
            raw_field: "velocity".into(),
            derived: DerivedField::RInvariant,
            timestep: 2,
            k: 100,
        },
        Request::GetStats {
            raw_field: "pressure".into(),
            derived: DerivedField::Norm,
            timestep: 0,
        },
        Request::GetPoints {
            raw_field: "velocity".into(),
            timestep: 1,
            lag_width: 6,
            positions: vec![[1.5, 2.25, 3.0], [0.0, 63.75, 31.5]],
        },
        Request::SubmitJob {
            raw_field: "velocity".into(),
            derived: DerivedField::CurlNorm,
            timestep: 2,
            threshold: 44.0,
            output_table: "intense_t2".into(),
        },
        Request::JobStatus { job: 17 },
        Request::ListMyDb,
        Request::GetMyDbTable {
            name: "intense_t2".into(),
        },
        Request::Metrics,
        Request::GetTrace {
            raw_field: "velocity".into(),
            derived: DerivedField::CurlNorm,
            timestep: 1,
            query_box: Some(Box3::new([0, 0, 0], [15, 15, 15])),
            threshold: 30.5,
            use_cache: true,
        },
    ]
}

fn breakdown() -> TimeBreakdown {
    TimeBreakdown {
        cache_lookup_s: 0.001,
        io_s: 0.5,
        compute_s: 0.25,
        mediator_db_s: 0.004,
        mediator_user_s: 0.02,
    }
}

fn degraded() -> Option<DegradedInfo> {
    Some(DegradedInfo {
        failed_nodes: vec![FailedNode {
            node: 1,
            reason: "node 1 unavailable: injected node failure".into(),
        }],
        missing_boxes: vec![
            Box3::new([0, 16, 0], [63, 31, 63]),
            Box3::new([32, 0, 0], [63, 15, 31]),
        ],
    })
}

fn responses() -> Vec<Response> {
    // attribute values travel as display strings, so only a trace built
    // from string attributes decodes to itself
    let mut root = TraceSpan::new("query.threshold", 0.0, 1.5)
        .with_attr("points", "42")
        .with_attr("wall_s", "0.03");
    let mut io = TraceSpan::new("phase.io", 0.0, 1.25);
    io.push_child(
        TraceSpan::new("node.0", 0.0, 1.1)
            .with_attr("cache", "miss")
            .with_attr("bytes.hdd_array", "1048576"),
    );
    root.push_child(io);
    root.push_child(TraceSpan::new("phase.compute", 1.25, 0.25));
    vec![
        Response::Pong,
        Response::Info {
            dataset: "mhd64".into(),
            dims: (64, 64, 64),
            timesteps: 4,
            fields: vec![("velocity".into(), 3), ("pressure".into(), 1)],
            compression: CompressionConfig::default(),
        },
        Response::Info {
            dataset: "mhd64".into(),
            dims: (64, 32, 16),
            timesteps: 4,
            fields: vec![("velocity".into(), 3)],
            compression: CompressionConfig::lossy(2, 1e-3),
        },
        Response::Threshold {
            points: vec![
                ThresholdPoint::at(1, 2, 3, 45.5),
                ThresholdPoint::at(63, 0, 9, 101.25),
            ],
            breakdown: breakdown(),
            cache_hits: 2,
            nodes: 4,
            degraded: None,
        },
        Response::Threshold {
            points: vec![ThresholdPoint::at(1, 2, 3, 45.5)],
            breakdown: breakdown(),
            cache_hits: 0,
            nodes: 3,
            degraded: degraded(),
        },
        Response::Pdf {
            origin: 0.0,
            bin_width: 10.0,
            counts: vec![100, 10, 1, 0],
            degraded: None,
        },
        Response::Pdf {
            origin: -2.5,
            bin_width: 0.5,
            counts: vec![4, 2],
            degraded: degraded(),
        },
        Response::TopK {
            points: vec![
                ThresholdPoint::at(5, 5, 5, 99.0),
                ThresholdPoint::at(100, 200, 300, 7.5),
            ],
            degraded: None,
        },
        Response::TopK {
            points: vec![],
            degraded: degraded(),
        },
        Response::Stats {
            count: 262144,
            mean: 9.1,
            rms: 10.0,
            min: 0.01,
            max: 111.5,
        },
        Response::Points {
            values: vec![[1.5, -2.25, 0.0], [100.125, 0.5, -7.75]],
        },
        Response::JobAccepted { job: 3 },
        Response::JobState {
            state: "done".into(),
            detail: "1.250s modelled".into(),
            rows: 4200,
        },
        Response::MyDbList {
            tables: vec!["a".into(), "b".into()],
        },
        Response::MyDbTable {
            provenance: "threshold velocity/curl_norm t=0 k=44".into(),
            points: vec![ThresholdPoint::at(1, 2, 3, 50.0)],
        },
        Response::Metrics {
            counters: vec![
                ("bufferpool.hits".into(), 42),
                ("cache.semantic.hits".into(), 3),
            ],
            gauges: vec![("node.active_subqueries".into(), -1)],
        },
        Response::Trace {
            trace: QueryTrace::new(root),
        },
        Response::Busy {
            queue_depth: 32,
            retry_ms: 100,
        },
        Response::Error {
            message: "threshold too low: 2000000 locations (limit 1000000); \"raise\" it".into(),
        },
    ]
}

fn lines(golden: &'static str, want: usize) -> Vec<&'static str> {
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), want, "one golden line per pinned value");
    lines
}

#[test]
fn request_lines_are_pinned() {
    let values = requests();
    let golden = lines(include_str!("golden/requests.jsonl"), values.len());
    for (value, line) in values.iter().zip(golden) {
        assert_eq!(value.to_json().encode(), line, "encoding of {value:?}");
        let doc = Json::parse(line).expect("golden line parses");
        assert_eq!(
            &Request::from_json(&doc).expect("golden line decodes"),
            value
        );
    }
}

#[test]
fn response_lines_are_pinned() {
    let values = responses();
    let golden = lines(include_str!("golden/responses.jsonl"), values.len());
    for (value, line) in values.iter().zip(golden) {
        assert_eq!(value.to_json().encode(), line, "encoding of {value:?}");
        let doc = Json::parse(line).expect("golden line parses");
        assert_eq!(
            &Response::from_json(&doc).expect("golden line decodes"),
            value
        );
    }
}

/// Every variant of both enums has a line: a variant added without one
/// fails to compile here.
#[test]
fn every_variant_is_pinned() {
    let mut seen = std::collections::BTreeSet::new();
    for r in requests() {
        seen.insert(match r {
            Request::Ping => "ping",
            Request::Info => "info",
            Request::GetThreshold { .. } => "get_threshold",
            Request::GetPdf { .. } => "get_pdf",
            Request::GetTopK { .. } => "get_topk",
            Request::GetStats { .. } => "get_stats",
            Request::GetPoints { .. } => "get_points",
            Request::SubmitJob { .. } => "submit_job",
            Request::JobStatus { .. } => "job_status",
            Request::ListMyDb => "list_mydb",
            Request::GetMyDbTable { .. } => "get_mydb_table",
            Request::Metrics => "metrics",
            Request::GetTrace { .. } => "get_trace",
        });
    }
    assert_eq!(seen.len(), 13);
    seen.clear();
    for r in responses() {
        seen.insert(match r {
            Response::Pong => "pong",
            Response::Info { .. } => "info",
            Response::Threshold { .. } => "threshold",
            Response::Pdf { .. } => "pdf",
            Response::TopK { .. } => "topk",
            Response::Stats { .. } => "stats",
            Response::Points { .. } => "points",
            Response::JobAccepted { .. } => "job_accepted",
            Response::JobState { .. } => "job_state",
            Response::MyDbList { .. } => "mydb_list",
            Response::MyDbTable { .. } => "mydb_table",
            Response::Metrics { .. } => "metrics",
            Response::Trace { .. } => "trace",
            Response::Busy { .. } => "busy",
            Response::Error { .. } => "error",
        });
    }
    assert_eq!(seen.len(), 15);
}

/// The wire names `proto.rs` declares optional (`"name": field = default`
/// in a `wire_messages!` table) — read from the declaration itself, which
/// is crate-private, so from its source.
fn declared_optional_members() -> Vec<&'static str> {
    let source = include_str!("../src/proto.rs");
    let mut optional = Vec::new();
    for table in source.split("\nwire_messages! {").skip(1) {
        let table = table.split("\n}\n").next().unwrap_or_default();
        // a member reads `"name": field` up to its comma; an optional one
        // has `= default` before it
        for (at, _) in table.match_indices("\": ") {
            let name = table[..at].rsplit('"').next().unwrap_or_default();
            let rest = &table[at..];
            let decl = &rest[..rest.find([',', '\n', '}']).unwrap_or(rest.len())];
            if decl.contains(" = ") && !optional.contains(&name) {
                optional.push(name);
            }
        }
    }
    optional
}

/// What decoding a hostile line may do: fail, or yield a message that
/// encodes to a line which decodes to the same message. Returns whether
/// it decoded.
fn err_or_round_trips<M: PartialEq + std::fmt::Debug, E>(
    line: &str,
    decode: fn(&Json) -> Result<M, E>,
    encode: fn(&M) -> Json,
) -> bool {
    let Some(message) = Json::parse(line).ok().and_then(|doc| decode(&doc).ok()) else {
        return false;
    };
    let again = encode(&message).encode();
    let back = Json::parse(&again).ok().and_then(|doc| decode(&doc).ok());
    assert_eq!(back.as_ref(), Some(&message), "{line} → {again}");
    true
}

/// splitmix64: the seeded source of the byte flips.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Every golden line, mutated: (a) each member deleted, (b) each member's
/// value replaced by a value of every other JSON type, (c) the line cut at
/// every byte, (d) random bytes flipped. No mutant panics; each is an
/// error or a message that survives a round trip; (a) is an error unless
/// the member is declared optional, (b) always — a present member of the
/// wrong type is never read as its default.
#[test]
fn hostile_wire_lines_are_errors_or_round_trip() {
    fn hammer<M: PartialEq + std::fmt::Debug, E>(
        golden: &str,
        tag_key: &str,
        optional: &[&str],
        decode: fn(&Json) -> Result<M, E>,
        encode: fn(&M) -> Json,
    ) -> usize {
        let other_types = [
            Json::Null,
            Json::Bool(true),
            Json::Num(1.0),
            Json::Str("x".into()),
            Json::Arr(vec![]),
            Json::Obj(Default::default()),
        ];
        let mut seed = 0x7db_0018;
        let mut mutants = 0;
        for line in golden.lines() {
            assert!(err_or_round_trips(line, decode, encode), "{line}");
            let Ok(Json::Obj(doc)) = Json::parse(line) else {
                panic!("{line} is not an object")
            };
            for (key, value) in &doc {
                let mut without = doc.clone();
                without.remove(key);
                let mutant = Json::Obj(without).encode();
                let decoded = err_or_round_trips(&mutant, decode, encode);
                let may_be_absent = key != tag_key && optional.contains(&key.as_str());
                assert!(!decoded || may_be_absent, "{line} decoded without '{key}'");
                for other in &other_types {
                    if std::mem::discriminant(other) == std::mem::discriminant(value) {
                        continue;
                    }
                    let mut with = doc.clone();
                    with.insert(key.clone(), other.clone());
                    let mutant = Json::Obj(with).encode();
                    assert!(
                        !err_or_round_trips(&mutant, decode, encode),
                        "{mutant} decoded with a mistyped '{key}'"
                    );
                    mutants += 1;
                }
                mutants += 1;
            }
            let bytes = line.as_bytes();
            for cut in 0..bytes.len() {
                let mutant = String::from_utf8_lossy(&bytes[..cut]);
                assert!(!err_or_round_trips(&mutant, decode, encode), "{mutant}");
            }
            for _ in 0..400 {
                let mut flipped = bytes.to_vec();
                for _ in 0..=next(&mut seed) % 3 {
                    let at = next(&mut seed) as usize % flipped.len();
                    flipped[at] ^= 1 << (next(&mut seed) % 8);
                }
                // the server reads its lines the same way
                err_or_round_trips(&String::from_utf8_lossy(&flipped), decode, encode);
            }
            mutants += bytes.len() + 400;
        }
        mutants
    }
    let optional = declared_optional_members();
    let carried = |name: &&str| {
        let quoted = format!("\"{name}\":");
        include_str!("golden/requests.jsonl").contains(&quoted)
            || include_str!("golden/responses.jsonl").contains(&quoted)
    };
    assert!(
        !optional.is_empty() && optional.iter().all(carried),
        "scraped optional members {optional:?}: each must be a member of some golden line"
    );
    let requests = hammer(
        include_str!("golden/requests.jsonl"),
        "op",
        &optional,
        Request::from_json,
        Request::to_json,
    );
    let responses = hammer(
        include_str!("golden/responses.jsonl"),
        "ok",
        &optional,
        Response::from_json,
        Response::to_json,
    );
    assert!(
        requests > 5_000 && responses > 5_000,
        "{requests} + {responses}"
    );
}
