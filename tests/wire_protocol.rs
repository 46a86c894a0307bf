//! The Web-services layer end to end: a real server on a real socket,
//! queried by the client library, answers identical to in-process calls.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tdb_bench::test_service;
use tdb_core::{DerivedField, ThresholdQuery};
use tdb_wire::server::{handle_line_admitted, Server, ServerConfig, ServerState};
use tdb_wire::{Client, Request, Response};

fn start_server(tag: &str) -> (Server, tdb_bench::TestService) {
    let service = test_service(tag, 32, 2, 2);
    let server =
        Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    (server, service)
}

#[test]
fn wire_answers_match_in_process_answers() {
    let (server, service) = start_server("wire_match");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("ping");

    let info = client.info().expect("info");
    assert_eq!(info.dims, (32, 32, 32));
    assert_eq!(info.timesteps, 2);
    assert!(info.fields.iter().any(|(n, c)| n == "velocity" && *c == 3));

    let (_, _, rms, _, max) = client
        .get_stats("velocity", DerivedField::CurlNorm, 0)
        .expect("stats");
    assert!(max > rms);
    let threshold = 3.0 * rms;

    let wire = client
        .get_threshold("velocity", DerivedField::CurlNorm, 0, None, threshold)
        .expect("threshold");
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, threshold);
    let local = service.get_threshold(&q).expect("local");
    // first wire query warmed the cache; the local call hits it — answers
    // must be identical either way
    assert_eq!(wire.points.len(), local.points.len());
    for (a, b) in wire.points.iter().zip(&local.points) {
        assert_eq!(a.zindex, b.zindex);
        assert!((a.value - b.value).abs() < 1e-6);
    }

    let pdf = client
        .get_pdf("velocity", DerivedField::CurlNorm, 0, 0.0, 10.0, 9)
        .expect("pdf");
    assert_eq!(pdf.iter().sum::<u64>(), 32 * 32 * 32);

    let top = client
        .get_topk("velocity", DerivedField::CurlNorm, 0, 5)
        .expect("topk");
    assert_eq!(top.len(), 5);
    assert!(top.windows(2).all(|w| w[0].value >= w[1].value));

    // point interpolation over the wire matches the in-process answer
    let positions = [[3.5, 4.25, 5.0], [31.0, 0.0, 16.5]];
    let wire_vals = client
        .get_points("velocity", 0, 6, &positions)
        .expect("points");
    let (local_vals, _) = service
        .interpolate_at("velocity", 0, &positions, tdb_core::LagOrder::Lag6)
        .expect("local points");
    assert_eq!(wire_vals.len(), 2);
    for (w, l) in wire_vals.iter().zip(&local_vals) {
        for c in 0..3 {
            assert!((w[c] - l[c]).abs() < 1e-4);
        }
    }
    // invalid lag width is a clean server error
    let err = client
        .get_points("velocity", 0, 5, &positions)
        .expect_err("lag 5 invalid");
    assert!(err.to_string().contains("lag_width"));
    drop(client);
    server.stop();
}

#[test]
fn multiple_concurrent_clients() {
    let (server, _service) = start_server("wire_multi");
    let addr = server.addr();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.ping().expect("ping");
                let t = 25.0 + i as f64;
                let a = c
                    .get_threshold("velocity", DerivedField::CurlNorm, 0, None, t)
                    .expect("threshold");
                a.points.len()
            })
        })
        .collect();
    let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // monotone thresholds → monotone (non-increasing) result sizes
    assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
    server.stop();
}

#[test]
fn server_reports_query_errors_cleanly() {
    let (server, _service) = start_server("wire_errors");
    let mut client = Client::connect(server.addr()).expect("connect");
    // unknown field flows back as a server error, connection stays usable
    let err = client
        .get_threshold("nonexistent", DerivedField::Norm, 0, None, 1.0)
        .expect_err("must fail");
    assert!(err.to_string().contains("unknown raw field"));
    client.ping().expect("connection survives an error");
    // bad timestep
    let err = client
        .get_pdf("velocity", DerivedField::Norm, 99, 0.0, 1.0, 4)
        .expect_err("must fail");
    assert!(err.to_string().contains("out of range"));
    // parameter rules are the service's; the wire passes their text on
    let bins = client
        .get_pdf("velocity", DerivedField::Norm, 0, 0.0, 0.0, 4)
        .expect_err("must fail");
    let k = client
        .get_topk("velocity", DerivedField::Norm, 0, 0)
        .expect_err("must fail");
    assert_eq!(
        [bins.to_string(), k.to_string()],
        [
            "server error: pdf bins must satisfy 0 < nbins <= 4096 and bin_width > 0",
            "server error: k must satisfy 0 < k <= 100000",
        ]
    );
    server.stop();
}

#[test]
fn batch_jobs_and_mydb_over_the_wire() {
    let (server, _service) = start_server("wire_batch");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (_, _, rms, _, _) = client
        .get_stats("velocity", DerivedField::CurlNorm, 0)
        .expect("stats");
    let job = client
        .submit_job("velocity", DerivedField::CurlNorm, 0, 3.0 * rms, "wired")
        .expect("submit");
    // poll to completion
    let mut state = String::new();
    let mut rows = 0;
    for _ in 0..200 {
        let (s, _, r) = client.job_status(job).expect("status");
        state = s;
        rows = r;
        if state == "done" || state == "failed" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(state, "done");
    assert!(rows > 0);
    // the table is readable through MyDB
    assert!(client
        .list_mydb()
        .expect("list")
        .contains(&"wired".to_string()));
    let (prov, points) = client.get_mydb_table("wired").expect("table");
    assert!(prov.contains("curl_norm"));
    assert_eq!(points.len() as u64, rows);
    // identical to an interactive query
    let direct = client
        .get_threshold("velocity", DerivedField::CurlNorm, 0, None, 3.0 * rms)
        .expect("direct");
    assert_eq!(direct.points.len(), points.len());
    // failure path: bogus field
    let bad = client
        .submit_job("bogus", DerivedField::Norm, 0, 1.0, "never")
        .expect("submit accepts; job fails");
    for _ in 0..200 {
        let (s, detail, _) = client.job_status(bad).expect("status");
        if s == "failed" {
            assert!(detail.contains("unknown raw field"));
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(client.job_status(9999).is_err(), "unknown job id errors");
    server.stop();
}

/// A line longer than the 8 KiB socket write buffer leaves as two writes
/// (the body, then the newline). With Nagle on, the newline waits for the
/// peer's delayed ACK — a fixed ~40 ms per such line, whatever the host
/// speed — so the median of ten warm round trips tells the two apart.
#[test]
fn lines_over_the_write_buffer_do_not_stall_on_delayed_ack() {
    fn median_ms(mut round_trip: impl FnMut()) -> f64 {
        let mut ms: Vec<f64> = (0..10)
            .map(|_| {
                let t = std::time::Instant::now();
                round_trip();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    }

    let (server, _service) = start_server("wire_nodelay");
    let mut client = Client::connect(server.addr()).expect("connect");

    // response lines served from the warm semantic cache: one between the
    // write buffer and one loopback segment (8 KiB..64 KiB — the size that
    // stalls: above it the body spans several segments and the receiver
    // acknowledges every second one at once), one over 64 KiB
    for (threshold, at_least) in [(20.0, 8 << 10), (15.0, 64 << 10)] {
        let warm = client
            .get_threshold("velocity", DerivedField::CurlNorm, 0, None, threshold)
            .expect("warm-up");
        let line_len = Response::Threshold {
            points: warm.points,
            breakdown: warm.breakdown,
            cache_hits: warm.cache_hits,
            nodes: warm.nodes,
            degraded: warm.degraded,
        }
        .to_json()
        .encode()
        .len();
        assert!(line_len > at_least, "{line_len}");
        let big_response = median_ms(|| {
            let a = client
                .get_threshold("velocity", DerivedField::CurlNorm, 0, None, threshold)
                .expect("threshold");
            assert_eq!(a.cache_hits, a.nodes, "every node answers from its cache");
        });
        assert!(
            big_response < 20.0,
            "median round trip of a {line_len}-byte response: {big_response:.1} ms"
        );
    }

    // a request line over 8 KiB
    let positions: Vec<[f64; 3]> = (0..600)
        .map(|i| [0.25 + f64::from(i % 31), 0.5 + f64::from(i % 29), 0.75])
        .collect();
    let request_line = Request::GetPoints {
        raw_field: "velocity".into(),
        timestep: 0,
        lag_width: 4,
        positions: positions.clone(),
    }
    .to_json()
    .encode();
    assert!(request_line.len() > 8 << 10, "{}", request_line.len());
    client
        .get_points("velocity", 0, 4, &positions)
        .expect("warm-up");
    let big_request = median_ms(|| {
        client
            .get_points("velocity", 0, 4, &positions)
            .expect("points");
    });
    assert!(
        big_request < 20.0,
        "median round trip of a {}-byte request: {big_request:.1} ms",
        request_line.len()
    );
    drop(client);
    server.stop();
}

#[test]
fn oversized_requests_are_rejected_and_the_connection_closed() {
    let service = test_service("wire_oversize", 32, 1, 2);
    let config = ServerConfig {
        max_request_bytes: 256,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    let before = service.metrics_snapshot();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let big = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(1024));
    stream.write_all(big.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    assert!(
        line.contains("error") && line.contains("byte limit"),
        "unexpected response: {line}"
    );
    // the rest of the oversized line was never read, so the server closes
    line.clear();
    let n = reader.read_line(&mut line).expect("clean EOF");
    assert_eq!(n, 0, "connection must be closed after an oversized request");
    assert!(
        service.metrics_snapshot().counter("wire.request.oversized")
            > before.counter("wire.request.oversized")
    );
    server.stop();
}

#[test]
fn idle_connections_time_out_and_close() {
    let service = test_service("wire_idle", 32, 1, 2);
    let config = ServerConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    let before = service.metrics_snapshot();
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // send nothing: the server must hang up on its own
    let n = reader.read_line(&mut line).expect("server closes cleanly");
    assert_eq!(n, 0, "expected EOF after the server-side idle timeout");
    assert!(
        service
            .metrics_snapshot()
            .counter("wire.connection.timeout")
            > before.counter("wire.connection.timeout")
    );
    server.stop();
}

#[test]
fn degraded_status_travels_the_wire() {
    let plan = tdb_storage::FaultPlan::new(3).shared();
    let service = tdb_bench::harness("wire_degraded", 32, 1)
        .cluster(|c| c.faults = Some(Arc::clone(&plan)))
        .build();
    let server =
        Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    plan.set_node_down(1, true);
    let a = client
        .get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0)
        .expect("degraded answer must still arrive");
    let d = a
        .degraded
        .expect("degraded flag must survive serialization");
    assert_eq!(d.failed_nodes.len(), 1);
    assert_eq!(d.failed_nodes[0].node, 1);
    assert!(!d.missing_boxes.is_empty());

    // revived node → clean answers again, same connection
    plan.set_node_down(1, false);
    let b = client
        .get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0)
        .expect("clean answer");
    assert!(b.degraded.is_none());
    assert!(b.points.len() >= a.points.len());
    server.stop();
}

#[test]
fn malformed_lines_get_error_responses() {
    let service = test_service("wire_malformed", 32, 1, 2);
    let state = ServerState::new(Arc::clone(&service), 1 << 20);
    for bad in [
        "not json at all",
        "{\"op\":\"launch_missiles\"}",
        "{\"op\":\"get_threshold\"}",
        "{\"op\":\"get_pdf\",\"field\":\"velocity\",\"derived\":\"norm\",\"timestep\":0,\"origin\":0,\"bin_width\":-1,\"nbins\":4}",
        "{\"op\":\"get_topk\",\"field\":\"velocity\",\"derived\":\"norm\",\"timestep\":0,\"k\":0}",
        // 2^32 is not time-step 0: over-range integers are malformed, not wrapped
        "{\"op\":\"get_threshold\",\"field\":\"velocity\",\"derived\":\"curl_norm\",\"timestep\":4294967296,\"threshold\":1}",
        "{\"op\":\"get_topk\",\"field\":\"velocity\",\"derived\":\"norm\",\"timestep\":0,\"k\":4294967297}",
        "{\"op\":\"get_points\",\"field\":\"velocity\",\"timestep\":0,\"lag_width\":4294967300,\"positions\":[[1,1,1]]}",
    ] {
        match handle_line_admitted(bad, &state, 0) {
            Response::Error { .. } => {}
            other => panic!("{bad} should produce an error, got {other:?}"),
        }
    }
    // and a well-formed line still works on the same handler
    match handle_line_admitted("{\"op\":\"ping\"}", &state, 0) {
        Response::Pong => {}
        other => panic!("expected pong, got {other:?}"),
    }
}
