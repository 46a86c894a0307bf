//! Fixed-input micro-timings of each layer's public functions, on inputs
//! taken from the workload's own archive (one chunk as a node sees it).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use tdb_cache::{CacheConfig, CacheInfoKey, SemanticCache, ThresholdPoint};
use tdb_cluster::assemble::{assemble_padded, needed_atoms};
use tdb_cluster::{ClusterBuilder, ClusterConfig};
use tdb_core::{DerivedField, SyntheticDataset};
use tdb_field::{Grid3, Histogram, PaddedVector, ScalarField, VectorField};
use tdb_kernels::interp::{interpolate, LagOrder};
use tdb_kernels::scan::{pdf_scan_clip, threshold_scan_clip};
use tdb_kernels::DiffScheme;
use tdb_storage::{
    checksum, decode_block_meta, encode_block_with, AtomRecord, CompressionConfig, DeviceId,
    IoSession,
};
use tdb_wire::{AdmissionConfig, AdmissionQueue, Json, Request, Response};
use tdb_zorder::{decompose_box, AtomCoord, Box3, MortonBlockDecoder, MortonRow};

use crate::layers::Replay;
use crate::rng::Rng;
use crate::stats;
use crate::workload::{Query, Region, Tier, DERIVED};
use crate::world::World;

/// Seconds per call of `f`: the median of five batches that together
/// last about `budget_s`.
fn per_call_s(budget_s: f64, mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 5;
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_s / BATCHES as f64 / one) as usize).clamp(1, 1_000_000);
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    stats::median(&per).unwrap_or(one)
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Bytes `DerivedField::eval` moves per output point, computed from the
/// planes it materialises (not measured): the padded input read once,
/// each intermediate plane written then read, the norm written.
fn derive_bytes_per_point(points: f64, padded_points: f64) -> f64 {
    let intermediates = |d: DerivedField| match d {
        DerivedField::CurlNorm => 3.0,
        // the full gradient tensor
        _ => 9.0,
    };
    let per: Vec<f64> = DERIVED
        .iter()
        .map(|&d| 4.0 * (3.0 * padded_points / points + 2.0 * intermediates(d) + 1.0))
        .collect();
    stats::mean(&per)
}

/// Times every micro metric; `budget_s` is the time each one may take.
pub fn run(world: &World, budget_s: f64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let cluster = world.service.cluster();
    let grid = cluster.grid();
    let (dims, periodic) = (grid.dims(), grid.periodic);
    let scheme = DiffScheme::new(grid, cluster.config().fd_order);
    let layout = cluster.layout();
    let nodes = cluster.nodes();
    let node = nodes.first().ok_or("cluster has no nodes")?;
    let chunk = *layout
        .chunks_of_node(node.id)
        .first()
        .ok_or("node 0 owns no chunk")?;
    let domain = chunk.grid_box();
    let points = domain.num_points() as f64;
    let halo = scheme.halo();
    let field = "velocity";

    // ---- cluster / storage: one chunk's atoms as node 0 fetches them ----
    let needed = needed_atoms(&domain, halo, dims, periodic);
    let t = per_call_s(budget_s, || {
        black_box(needed_atoms(black_box(&domain), halo, dims, periodic));
    });
    out.push(("cluster.needed_atoms_us_per_chunk", t * 1e6));
    let mut local: Vec<u64> = needed
        .iter()
        .filter(|a| layout.fetch_node_for(**a, node.id) == node.id)
        .map(AtomCoord::zindex)
        .collect();
    local.sort_unstable();
    let mut session = IoSession::new();
    let mut atoms: HashMap<u64, AtomRecord> = HashMap::new();
    for atom in &needed {
        let owner = layout.fetch_node_for(*atom, node.id);
        let peer = nodes
            .iter()
            .find(|n| n.id == owner)
            .ok_or("atom owner is not a live node")?;
        let rec = peer
            .fetch_atoms(field, 0, &[atom.zindex()], &mut session)
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or("atom missing from its owner")?;
        atoms.insert(rec.key.zindex, rec);
    }
    let warm = per_call_s(budget_s, || {
        black_box(
            node.fetch_atoms(field, 0, &local, &mut session)
                .map(|v| v.len())
                .ok(),
        );
    });
    out.push((
        "storage.fetch_atoms_warm_katoms_s",
        local.len() as f64 / warm / 1e3,
    ));
    // cold: the pool clear is not timed
    let cold: Vec<f64> = (0..5)
        .map(|_| {
            node.buffer_pool().clear();
            let t = Instant::now();
            black_box(
                node.fetch_atoms(field, 0, &local, &mut session)
                    .map(|v| v.len())
                    .ok(),
            );
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.push((
        "storage.fetch_atoms_cold_katoms_s",
        local.len() as f64 / stats::median(&cold).unwrap_or(1.0) / 1e3,
    ));
    let t = per_call_s(budget_s, || {
        black_box(
            assemble_padded(&domain, halo, dims, periodic, &atoms)
                .map(|p| p.halo())
                .ok(),
        );
    });
    out.push(("cluster.assemble_padded_mpts_s", points / t / 1e6));
    let padded =
        assemble_padded(&domain, halo, dims, periodic, &atoms).map_err(|e| e.to_string())?;
    let user_bytes = (dims.0 * dims.1 * dims.2 * 7 * 4) as f64 * f64::from(world.spec.timesteps);
    out.push((
        "storage.stored_bytes_per_user_byte",
        dir_bytes(world.data_dir()) as f64 / user_bytes,
    ));

    // ---- storage: block codec on ten of those atoms ----------------------
    let mut records: Vec<AtomRecord> = atoms.values().take(10).cloned().collect();
    records.sort_unstable_by_key(|r| r.key.zindex);
    let (block, raw_stats) = encode_block_with(&records, &CompressionConfig::default());
    let t = per_call_s(budget_s, || {
        black_box(
            decode_block_meta(block.clone(), "perf")
                .map(|(r, _)| r.len())
                .ok(),
        );
    });
    out.push(("storage.block_decode_mb_s", block.len() as f64 / t / 1e6));
    let t = per_call_s(budget_s, || {
        black_box(checksum(black_box(&block)));
    });
    out.push(("storage.checksum_mb_s", block.len() as f64 / t / 1e6));
    let logical = raw_stats.logical_bytes as f64;
    let lossless = CompressionConfig::lossless();
    let t = per_call_s(budget_s, || {
        black_box(encode_block_with(&records, &lossless).0.len());
    });
    out.push(("compress.lossless_encode_mb_s", logical / t / 1e6));
    let (packed, stats_lossless) = encode_block_with(&records, &lossless);
    let t = per_call_s(budget_s, || {
        black_box(
            decode_block_meta(packed.clone(), "perf")
                .map(|(r, _)| r.len())
                .ok(),
        );
    });
    out.push(("compress.lossless_decode_mb_s", logical / t / 1e6));
    out.push((
        "compress.lossless_ratio",
        stats::ratio(logical, stats_lossless.stored_bytes as f64),
    ));
    let (lossy, stats_lossy) = encode_block_with(&records, &CompressionConfig::lossy(2, 1e-2));
    let t = per_call_s(budget_s, || {
        black_box(
            decode_block_meta(lossy.clone(), "perf")
                .map(|(r, _)| r.len())
                .ok(),
        );
    });
    out.push(("compress.lossy_decode_mb_s", logical / t / 1e6));
    out.push((
        "compress.lossy_ratio",
        stats::ratio(logical, stats_lossy.stored_bytes as f64),
    ));

    // ---- storage: bulk load of a 64³ vector field into four nodes --------
    let ingest_dir = world.data_dir().join("ingest_probe");
    let probe = VectorField::<3>::from_components([0usize, 1, 2].map(|c| {
        ScalarField::from_fn(64, 64, 64, |x, y, z| {
            ((x + 3 * y + 5 * z + 7 * c) % 61) as f32
        })
    }));
    let t = Instant::now();
    let mut builder = ClusterBuilder::new(
        &ingest_dir,
        "ingest_probe",
        Grid3::periodic_cube(64, std::f64::consts::TAU),
        &[("velocity", 3)],
        ClusterConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    builder
        .ingest_timestep(0, "velocity", 3, |atom| probe.extract_atom(atom))
        .map_err(|e| e.to_string())?;
    drop(builder.finish().map_err(|e| e.to_string())?);
    out.push((
        "storage.ingest_katoms_s",
        512.0 / t.elapsed().as_secs_f64() / 1e3,
    ));
    let _ = std::fs::remove_dir_all(&ingest_dir);

    // ---- kernels: one chunk-sized padded input ----------------------------
    let (lx, ly, lz) = domain.lo3();
    let origin = [lx as usize, ly as usize, lz as usize];
    let names = [
        "kernels.derive_mpts_s.curl_norm",
        "kernels.derive_mpts_s.q_criterion",
        "kernels.derive_mpts_s.gradient_norm",
        "kernels.derive_mpts_s.strain_rate_norm",
    ];
    for (name, d) in names.into_iter().zip(DERIVED) {
        let t = per_call_s(budget_s, || {
            black_box(d.eval(black_box(&padded), &scheme, origin).len());
        });
        out.push((name, points / t / 1e6));
    }
    let norm = DerivedField::CurlNorm.eval(&padded, &scheme, origin);
    let threshold = world.oracle.threshold(0, Tier::Medium);
    let mut hits = Vec::new();
    let t = per_call_s(budget_s, || {
        hits.clear();
        threshold_scan_clip(black_box(&norm), &domain, &domain, threshold, &mut hits);
        black_box(hits.len());
    });
    out.push(("kernels.scan_mpts_s", points / t / 1e6));
    let mut hist = Histogram::new(
        0.0,
        world.oracle.pdf_width(0),
        crate::workload::PDF_BINS as usize,
    );
    let t = per_call_s(budget_s, || {
        pdf_scan_clip(black_box(&norm), &domain, &domain, &mut hist);
        black_box(hist.total());
    });
    out.push(("kernels.pdf_scan_mpts_s", points / t / 1e6));
    let (ex, ey, ez) = domain.extent3();
    let mut stencil = PaddedVector::<3>::zeros(ex, ey, ez, LagOrder::Lag6.halo());
    for c in 0..3 {
        stencil
            .comp_mut(c)
            .fill(|x, y, z| ((x + 3 * y + 5 * z) % 17) as f32 + c as f32);
    }
    let mut rng = Rng::new(world.seed);
    let positions: Vec<[f64; 3]> = (0..256)
        .map(|_| [ex, ey, ez].map(|n| rng.unit() * n as f64))
        .collect();
    let t = per_call_s(budget_s, || {
        for &p in &positions {
            black_box(interpolate::<3>(&stencil, LagOrder::Lag6, p));
        }
    });
    out.push(("kernels.interp_kpts_s", positions.len() as f64 / t / 1e3));
    let padded_points = ((ex + 2 * halo) * (ey + 2 * halo) * (ez + 2 * halo)) as f64;
    out.push((
        "kernels.derive_bytes_per_point",
        derive_bytes_per_point(points, padded_points),
    ));

    // ---- cache: a stand-alone semantic cache with one node-sized entry ----
    let cache = SemanticCache::new(CacheConfig {
        budget_bytes: 1 << 30,
        ssd: DeviceId(0),
        faults: None,
    });
    let whole = Box3::cube(world.oracle.grid());
    let rows: Vec<ThresholdPoint> = world
        .oracle
        .expected_points(0, Tier::Prime, Region::Whole)
        .into_iter()
        .step_by(nodes.len().max(1))
        .map(|(zindex, value)| ThresholdPoint { zindex, value })
        .collect();
    let key = |field: &str| CacheInfoKey {
        dataset: "perf".into(),
        field: field.into(),
        timestep: 0,
    };
    let (present, absent) = (key("velocity/curl_norm"), key("velocity/none"));
    let floor = world.oracle.threshold(0, Tier::Prime);
    let t = per_call_s(budget_s, || {
        cache.insert(&present, whole, floor, &rows, &mut session);
    });
    out.push((
        "cache.insert_us_per_kpt",
        t * 1e6 / (rows.len().max(1) as f64 / 1e3),
    ));
    let low = world.oracle.threshold(0, Tier::Low);
    let t = per_call_s(budget_s, || {
        black_box(matches!(
            cache.lookup(&present, &whole, low, &mut session),
            tdb_cache::CacheLookup::Hit(_)
        ));
    });
    out.push(("cache.lookup_hit_us", t * 1e6));
    let t = per_call_s(budget_s, || {
        black_box(matches!(
            cache.lookup(&absent, &whole, low, &mut session),
            tdb_cache::CacheLookup::Miss
        ));
    });
    out.push(("cache.lookup_miss_us", t * 1e6));

    // ---- zorder ------------------------------------------------------------
    let mut codes: Vec<u64> = domain
        .points()
        .map(|(x, y, z)| tdb_zorder::encode3(x, y, z))
        .collect();
    codes.sort_unstable();
    let t = per_call_s(budget_s, || {
        let mut dec = MortonBlockDecoder::default();
        let mut acc = 0u32;
        for &c in &codes {
            let (x, y, z) = dec.decode(c);
            acc = acc.wrapping_add(x ^ y ^ z);
        }
        black_box(acc);
    });
    out.push(("zorder.decode_mcodes_s", codes.len() as f64 / t / 1e6));
    let (hx, hy, hz) = domain.hi3();
    let t = per_call_s(budget_s, || {
        let mut acc = 0u64;
        for z in lz..=hz {
            for y in ly..=hy {
                let row = MortonRow::new(y, z);
                for x in lx..=hx {
                    acc ^= row.encode_x(x);
                }
            }
        }
        black_box(acc);
    });
    out.push(("zorder.encode_mcodes_s", codes.len() as f64 / t / 1e6));
    let octant = Region::Octant(5).to_box(world.oracle.grid()).atom_box();
    let level_bits = (world.oracle.grid() / 8).max(1).ilog2().max(1);
    let t = per_call_s(budget_s, || {
        black_box(decompose_box(black_box(&octant), level_bits).len());
    });
    out.push(("zorder.decompose_box_us", t * 1e6));

    // ---- turbgen / field: what setup spends its time in ---------------------
    let small = SyntheticDataset::mhd(32, 1, world.seed);
    let t = Instant::now();
    let step = small.generate(0);
    out.push((
        "turbgen.generate_mpts_s",
        32f64.powi(3) / t.elapsed().as_secs_f64() / 1e6,
    ));
    if let Some((_, data)) = step.fields.first() {
        let v = data.as_vector3();
        let all: Vec<AtomCoord> = Box3::cube(32).atom_box().atoms().collect();
        let t = per_call_s(budget_s, || {
            for &a in &all {
                black_box(v.extract_atom(a).len());
            }
        });
        out.push(("field.extract_atom_katoms_s", all.len() as f64 / t / 1e3));
    }

    // ---- obs -----------------------------------------------------------------
    let registry = tdb_obs::MetricsRegistry::new();
    let t = per_call_s(budget_s, || registry.add("perf.probe", 1));
    out.push(("obs.counter_add_ns", t * 1e9));
    let t = per_call_s(budget_s, || {
        black_box(tdb_obs::global().snapshot().counters.len());
    });
    out.push(("obs.snapshot_us", t * 1e6));

    // ---- wire ------------------------------------------------------------------
    let query = Query::Threshold {
        key: 0,
        tier: Tier::Prime,
        region: Region::Whole,
    };
    let line = Replay::wire_request(world, &query).to_json().encode();
    let t = per_call_s(budget_s, || {
        black_box(
            Json::parse(black_box(&line))
                .ok()
                .and_then(|doc| Request::from_json(&doc).ok())
                .is_some(),
        );
    });
    out.push(("wire.request_parse_us", t * 1e6));
    let answer: Vec<ThresholdPoint> = world
        .oracle
        .expected_points(0, Tier::Prime, Region::Whole)
        .into_iter()
        .map(|(zindex, value)| ThresholdPoint { zindex, value })
        .collect();
    let kpt = answer.len().max(1) as f64 / 1e3;
    let response = Response::Threshold {
        points: answer,
        breakdown: Default::default(),
        cache_hits: 4,
        nodes: 4,
        degraded: None,
    };
    let t = per_call_s(budget_s, || {
        black_box(response.to_json().encode().len());
    });
    out.push(("wire.response_encode_us_per_kpt", t * 1e6 / kpt));
    let encoded = response.to_json().encode();
    out.push((
        "wire.response_bytes_per_point",
        encoded.len() as f64 / (kpt * 1e3),
    ));
    let t = per_call_s(budget_s, || {
        black_box(
            Json::parse(black_box(&encoded))
                .ok()
                .and_then(|doc| Response::from_json(&doc).ok())
                .is_some(),
        );
    });
    out.push(("wire.response_decode_us_per_kpt", t * 1e6 / kpt));
    let queue = AdmissionQueue::new(AdmissionConfig::default());
    let t = per_call_s(budget_s, || drop(black_box(queue.admit(0))));
    out.push(("wire.admission_admit_us", t * 1e6));
    let mut client = world.connect()?;
    let t = per_call_s(budget_s, || {
        black_box(client.ping().is_ok());
    });
    out.push(("wire.ping_rtt_us", t * 1e6));
    // An answer of ~2.6 k points leaves the server in two writes; whether
    // the second waits for a delayed ACK is the kernel's call and depends
    // on the traffic before it, so large answers alternate with small
    // ones and this is a mean, not a median. The first call fills the
    // cache entry.
    let small = Query::Threshold {
        key: 0,
        tier: Tier::High,
        region: Region::Whole,
    };
    let mut rtts = Vec::new();
    for i in 0..41 {
        let q = if i % 2 == 0 { &query } else { &small };
        let sent = Instant::now();
        let a = world.issue(&mut client, q).map_err(|e| e.to_string())?;
        if i > 0 && i % 2 == 0 {
            rtts.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        world.oracle.check(q, &a)?;
    }
    out.push(("wire.large_answer_rtt_ms", stats::mean(&rtts)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_scales_with_the_work() {
        let spin = |n: u64| {
            per_call_s(0.02, move || {
                let mut acc = 0u64;
                for i in 0..n {
                    acc = acc.wrapping_add(black_box(i));
                }
                black_box(acc);
            })
        };
        let (small, big) = (spin(1_000), spin(100_000));
        assert!(big > 10.0 * small, "{big} vs {small}");
    }

    #[test]
    fn derive_traffic_counts_input_intermediates_and_output() {
        // no halo: 3 input planes + (3 or 9) × 2 + 1 output, × 4 bytes
        let b = derive_bytes_per_point(1.0, 1.0);
        let curl = 4.0 * (3.0 + 6.0 + 1.0);
        let grad = 4.0 * (3.0 + 18.0 + 1.0);
        assert_eq!(b, (curl + 3.0 * grad) / 4.0);
    }
}
