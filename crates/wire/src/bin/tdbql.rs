//! Command-line query client.
//!
//! ```sh
//! tdbql --connect 127.0.0.1:7411 info
//! tdbql --connect 127.0.0.1:7411 stats velocity curl_norm 0
//! tdbql --connect 127.0.0.1:7411 threshold velocity curl_norm 0 44.0
//! tdbql --connect 127.0.0.1:7411 pdf velocity curl_norm 0 0 10 9
//! tdbql --connect 127.0.0.1:7411 topk velocity q_criterion 0 10
//! tdbql --connect 127.0.0.1:7411 points velocity 0 6 3.5,4.25,5.0 10,20,30
//! ```

use tdb_core::DerivedField;
use tdb_wire::Client;
use tdb_wire::CompressionMode;

/// Renders a byte count in binary units (`1.5 MiB`).
fn human_bytes(v: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut val = v as f64;
    let mut unit = "B";
    for u in UNITS {
        unit = u;
        if val < 1024.0 {
            break;
        }
        val /= 1024.0;
    }
    if unit == "B" {
        format!("{v} B")
    } else {
        format!("{val:.1} {unit}")
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: tdbql --connect ADDR [--api-key KEY] <command>\n\
         \x20 (TDB_API_KEY in the environment also sets the tenant key)\n\
         commands:\n\
         \x20 info\n\
         \x20 ping\n\
         \x20 stats FIELD DERIVED TIMESTEP\n\
         \x20 threshold FIELD DERIVED TIMESTEP THRESHOLD\n\
         \x20 pdf FIELD DERIVED TIMESTEP ORIGIN WIDTH NBINS\n\
         \x20 topk FIELD DERIVED TIMESTEP K\n\
         \x20 points FIELD TIMESTEP LAGWIDTH X,Y,Z [X,Y,Z ...]\n\
         \x20 metrics\n\
         \x20 trace FIELD DERIVED TIMESTEP THRESHOLD"
    );
    std::process::exit(2);
}

fn derived(name: &str) -> DerivedField {
    DerivedField::parse(name).unwrap_or_else(|| {
        eprintln!(
            "unknown derived field '{name}' (expected one of: {})",
            DerivedField::all()
                .iter()
                .map(|d| d.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // the tenant key is an envelope concern: strip it wherever it
    // appears, with the flag overriding the TDB_API_KEY environment
    let mut api_key = std::env::var("TDB_API_KEY").ok().filter(|k| !k.is_empty());
    if let Some(i) = args.iter().position(|a| a == "--api-key") {
        if i + 1 >= args.len() {
            usage();
        }
        api_key = Some(args.remove(i + 1));
        args.remove(i);
    }
    let (addr, cmd) = match (args.first(), args.get(1), args.get(2)) {
        (Some(flag), Some(addr), Some(cmd)) if flag == "--connect" => (addr, cmd.as_str()),
        _ => usage(),
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(key) = api_key {
        client.set_api_key(Some(key));
    }
    let rest = args.get(3..).unwrap_or(&[]);
    let result = run(&mut client, cmd, rest);
    if let Err(e) = result {
        if let Some(tdb_wire::client::ClientError::Busy { retry_ms, .. }) =
            e.downcast_ref::<tdb_wire::client::ClientError>()
        {
            eprintln!("server is at capacity; retry in ~{retry_ms} ms");
            std::process::exit(3);
        }
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(client: &mut Client, cmd: &str, rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    match (cmd, rest) {
        ("ping", []) => {
            client.ping()?;
            println!("pong");
        }
        ("info", []) => {
            let info = client.info()?;
            println!(
                "dataset {} — grid {}x{}x{}, {} time-steps",
                info.dataset, info.dims.0, info.dims.1, info.dims.2, info.timesteps
            );
            for (name, ncomp) in info.fields {
                println!("  field {name} ({ncomp} components)");
            }
            let c = info.compression;
            match c.mode {
                CompressionMode::Off => println!("  compression off"),
                CompressionMode::Lossless => println!("  compression lossless"),
                CompressionMode::Lossy => println!(
                    "  compression lossy (keyframe stride {}, max error {:e})",
                    c.stride, c.max_error
                ),
            }
        }
        ("stats", [f, d, t]) => {
            let (count, mean, rms, min, max) = client.get_stats(f, derived(d), t.parse()?)?;
            println!("count {count}  mean {mean:.4}  rms {rms:.4}  min {min:.4}  max {max:.4}");
        }
        ("threshold", [f, d, t, th]) => {
            let a = client.get_threshold(f, derived(d), t.parse()?, None, th.parse()?)?;
            println!(
                "{} points ({}/{} nodes hit cache); modelled {}",
                a.points.len(),
                a.cache_hits,
                a.nodes,
                a.breakdown
            );
            if let Some(d) = &a.degraded {
                eprintln!(
                    "WARNING: partial answer — {} node(s) failed, {} box(es) missing:",
                    d.failed_nodes.len(),
                    d.missing_boxes.len()
                );
                for f in &d.failed_nodes {
                    eprintln!("  node {}: {}", f.node, f.reason);
                }
                for b in &d.missing_boxes {
                    eprintln!("  missing {b:?}");
                }
            }
            for p in a.points.iter().take(10) {
                let (x, y, z) = p.coords();
                println!("  ({x:4},{y:4},{z:4})  {:.3}", p.value);
            }
            if a.points.len() > 10 {
                println!("  ... {} more", a.points.len() - 10);
            }
        }
        ("pdf", [f, d, t, origin, width, nbins]) => {
            let counts = client.get_pdf(
                f,
                derived(d),
                t.parse()?,
                origin.parse()?,
                width.parse()?,
                nbins.parse()?,
            )?;
            let origin: f64 = origin.parse()?;
            let width: f64 = width.parse()?;
            for (i, c) in counts.iter().enumerate() {
                let lo = origin + width * i as f64;
                if i + 1 == counts.len() {
                    println!("  [{lo:8.1},      ..)  {c}");
                } else {
                    println!("  [{lo:8.1},{:8.1})  {c}", lo + width);
                }
            }
        }
        ("topk", [f, d, t, k]) => {
            let points = client.get_topk(f, derived(d), t.parse()?, k.parse()?)?;
            for p in points {
                let (x, y, z) = p.coords();
                println!("  ({x:4},{y:4},{z:4})  {:.3}", p.value);
            }
        }
        ("points", [f, t, w, rest @ ..]) if !rest.is_empty() => {
            let positions = rest
                .iter()
                .map(|s| {
                    let parts: Vec<f64> = s.split(',').map(str::parse).collect::<Result<_, _>>()?;
                    match parts.as_slice() {
                        &[x, y, z] => Ok([x, y, z]),
                        _ => Err::<[f64; 3], Box<dyn std::error::Error>>(
                            format!("position '{s}' must be X,Y,Z").into(),
                        ),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            let values = client.get_points(f, t.parse()?, w.parse()?, &positions)?;
            for (&[px, py, pz], [vx, vy, vz]) in positions.iter().zip(values) {
                println!("  ({px:8.3},{py:8.3},{pz:8.3})  [{vx:10.4}, {vy:10.4}, {vz:10.4}]");
            }
        }
        ("metrics", []) => {
            let (counters, gauges) = client.metrics()?;
            for (name, v) in counters {
                // byte counters (io.bytes.*, compress.bytes.*) get a
                // human-readable rendering next to the exact count
                if name.contains("bytes") {
                    println!("  {name} = {v} ({})", human_bytes(v));
                } else {
                    println!("  {name} = {v}");
                }
            }
            for (name, v) in gauges {
                println!("  {name} = {v} (gauge)");
            }
        }
        ("trace", [f, d, t, th]) => {
            let trace = client.get_trace(f, derived(d), t.parse()?, None, th.parse()?)?;
            print!("{}", trace.render());
        }
        _ => usage(),
    }
    Ok(())
}
