//! The paper's Fig. 1 stack end to end: client programs talking to a
//! front-end Web-server over the network, which mediates to the database
//! nodes. Here the server runs in this process on an ephemeral port and
//! three "client programs" query it concurrently, like the K clients of
//! the figure.
//!
//! ```sh
//! cargo run --release -p tdb-bench --example web_service
//! ```

use std::sync::Arc;

use tdb_core::{DerivedField, ServiceConfig, TurbulenceService};
use tdb_wire::server::{Server, ServerConfig};
use tdb_wire::Client;

fn main() {
    let dir = tdb_bench::ScratchDir::new("web_service");
    println!("building the archive ...");
    let service =
        Arc::new(TurbulenceService::build(ServiceConfig::small_mhd(dir.path())).expect("build"));
    let server =
        Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.addr();
    println!("front-end Web-server listening on {addr}\n");

    // client 0 inspects the catalogue
    let mut c0 = Client::connect(addr).expect("connect");
    let info = c0.info().expect("info");
    println!(
        "client 0: dataset '{}' is {}x{}x{}, {} steps, fields: {}",
        info.dataset,
        info.dims.0,
        info.dims.1,
        info.dims.2,
        info.timesteps,
        info.fields
            .iter()
            .map(|(n, c)| format!("{n}({c})"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // clients 1..K run threshold queries concurrently, as in Fig. 1
    let handles: Vec<_> = (1..=3u32)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let (_, _, rms, _, _) = c
                    .get_stats("velocity", DerivedField::CurlNorm, 0)
                    .expect("stats");
                let k = (2.5 + 0.5 * f64::from(i)) * rms;
                let a = c
                    .get_threshold("velocity", DerivedField::CurlNorm, 0, None, k)
                    .expect("threshold");
                (i, k, a.points.len(), a.cache_hits, a.nodes)
            })
        })
        .collect();
    for h in handles {
        let (i, k, n, hits, nodes) = h.join().expect("client thread");
        println!("client {i}: |ω| >= {k:6.1} → {n:5} points ({hits}/{nodes} cache hits)");
    }

    // one more pass: by now the cache is warm for at least one threshold
    let mut c = Client::connect(addr).expect("connect");
    let (_, _, rms, _, _) = c
        .get_stats("velocity", DerivedField::CurlNorm, 0)
        .expect("stats");
    let a = c
        .get_threshold("velocity", DerivedField::CurlNorm, 0, None, 3.5 * rms)
        .expect("threshold");
    println!(
        "\nre-issued 3.5σ query: {} points, {}/{} nodes answered from cache, modelled {}",
        a.points.len(),
        a.cache_hits,
        a.nodes,
        a.breakdown
    );
    server.stop();
    println!("server stopped cleanly");
}
