//! Stands up a ThresholDB service over TCP.
//!
//! ```sh
//! cargo run --release -p tdb-wire --bin tdb-server -- \
//!     --listen 127.0.0.1:7411 --grid 64 --timesteps 4 --nodes 4
//! ```

use std::sync::Arc;

use tdb_core::{BuildError, ServiceConfig, TurbulenceService};
use tdb_wire::server::{Server, ServerConfig};

struct Args {
    listen: String,
    grid: usize,
    timesteps: u32,
    nodes: usize,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7411".into(),
        grid: 64,
        timesteps: 4,
        nodes: 4,
        seed: 0x7db,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--grid" => {
                args.grid = value("--grid")?
                    .parse()
                    .map_err(|e| format!("--grid: {e}"))?
            }
            "--timesteps" => {
                args.timesteps = value("--timesteps")?
                    .parse()
                    .map_err(|e| format!("--timesteps: {e}"))?
            }
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: tdb-server [--listen ADDR] [--grid N] [--timesteps T] \
                     [--nodes N] [--seed S]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "building {0}³ MHD archive, {1} time-steps, {2} nodes ...",
        args.grid, args.timesteps, args.nodes
    );
    // the process id keeps two servers started with one seed out of each
    // other's partition files
    let data_dir = std::env::temp_dir().join(format!(
        "thresholdb_server_{}_{}",
        args.seed,
        std::process::id()
    ));
    let mut config = ServiceConfig::mhd(data_dir, args.grid, args.timesteps, args.seed);
    config.cluster.num_nodes = args.nodes;
    let service = match TurbulenceService::build(config) {
        Ok(s) => Arc::new(s),
        Err(BuildError::InvalidConfig(rule)) => {
            eprintln!("error: {rule}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("failed to build service: {e}");
            std::process::exit(1);
        }
    };
    let server = match Server::start(service, &args.listen, ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    eprintln!("serving on {}", server.addr());
    // serve until killed
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
