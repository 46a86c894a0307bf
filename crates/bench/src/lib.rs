//! The one test harness of the repository, shared by the `repro` binary,
//! the repo-level integration tests and the examples: how a service is
//! stood up ([`harness`]), how two answers are compared ([`bits`],
//! [`ranked_bits`], [`bits_outside`]) and what they are compared against
//! ([`reference_points`]), and the paper's selectivity tiers
//! ([`FRACTIONS`]).

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tdb_cluster::ClusterConfig;
use tdb_core::{DerivedField, QueryLimits, ServiceConfig, ThresholdPoint, TurbulenceService};
use tdb_field::PaddedVector;
use tdb_kernels::DiffScheme;
use tdb_turbgen::SyntheticDataset;
use tdb_zorder::Box3;

/// The paper's threshold selectivities on the MHD dataset: fractions of
/// all grid points above thresholds 80 / 60 / 44 (≈4 300, 87 000 and
/// 909 000 points of 1024³), with the tier's label and threshold.
pub const FRACTIONS: [(f64, &str, f64); 3] = [
    (3.95e-6, "high (80.0)", 80.0),
    (8.06e-5, "medium (60.0)", 60.0),
    (8.47e-4, "low (44.0)", 44.0),
];

static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under the system temp dir, removed — with everything
/// in it — when the value is dropped (a failing test unwinds through the
/// drop like a passing one returns through it).
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("thresholdb_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A built service and the scratch directory its partition files live in.
/// Dereferences to the shared service, so `service.get_threshold(..)`,
/// `Arc::clone(&service)` and `&service` as a `&TurbulenceService` all
/// work on it; the directory goes when this value does.
pub struct TestService {
    // declared first: the service closes its files before the directory goes
    service: Arc<TurbulenceService>,
    dir: ScratchDir,
}

impl TestService {
    /// Where the partition files are (`node0/velocity_part0.tdb`, ...).
    pub fn dir(&self) -> &Path {
        self.dir.path()
    }
}

impl Deref for TestService {
    type Target = Arc<TurbulenceService>;

    fn deref(&self) -> &Self::Target {
        &self.service
    }
}

/// A service under construction: [`ServiceConfig::mhd`] at test scale (two
/// nodes of two processes and two disk arrays, seed `0x7db`) in a scratch
/// directory of its own, adjusted by the methods below.
pub struct Harness {
    config: ServiceConfig,
    dir: ScratchDir,
}

/// Starts a harness for an `n`-cube MHD archive of `timesteps` steps; `tag`
/// names the scratch directory.
pub fn harness(tag: &str, n: usize, timesteps: u32) -> Harness {
    let dir = ScratchDir::new(tag);
    let mut config = ServiceConfig::mhd(dir.path(), n, timesteps, 0x7db);
    config.cluster.num_nodes = 2;
    config.cluster.procs_per_node = 2;
    config.cluster.arrays_per_node = 2;
    Harness { config, dir }
}

impl Harness {
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.config.cluster.num_nodes = nodes;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.config.dataset.seed = seed;
        self
    }

    /// Another dataset in place of the MHD one (its grid must tile into
    /// the chunks chosen for `n`).
    pub fn dataset(mut self, dataset: SyntheticDataset) -> Self {
        self.config.dataset = dataset;
        self
    }

    pub fn limits(mut self, limits: QueryLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Everything else — faults, codec, replication, process and array
    /// counts — is a field of the cluster configuration.
    pub fn cluster(mut self, tweak: impl FnOnce(&mut ClusterConfig)) -> Self {
        tweak(&mut self.config.cluster);
        self
    }

    /// Generates and bulk-loads the archive.
    pub fn build(self) -> TestService {
        TestService {
            service: Arc::new(TurbulenceService::build(self.config).expect("service build")),
            dir: self.dir,
        }
    }
}

/// `harness(tag, n, timesteps)` on `nodes` nodes, built.
pub fn test_service(tag: &str, n: usize, timesteps: u32, nodes: usize) -> TestService {
    harness(tag, n, timesteps).nodes(nodes).build()
}

/// Bit-exact, order-*sensitive* view of an answer (top-k answers are
/// ranked; threshold answers arrive in Morton order).
pub fn ranked_bits(points: &[ThresholdPoint]) -> Vec<(u64, u32)> {
    points
        .iter()
        .map(|p| (p.zindex, p.value.to_bits()))
        .collect()
}

/// Bit-exact, order-independent view of a threshold answer.
pub fn bits(points: &[ThresholdPoint]) -> Vec<(u64, u32)> {
    let mut v = ranked_bits(points);
    v.sort_unstable();
    v
}

/// The points outside every box of `missing`.
pub fn points_outside(points: &[ThresholdPoint], missing: &[Box3]) -> Vec<ThresholdPoint> {
    let outside = |p: &&ThresholdPoint| {
        let (x, y, z) = p.coords();
        !missing.iter().any(|b| b.contains_point(x, y, z))
    };
    points.iter().filter(outside).copied().collect()
}

/// [`bits`] of [`points_outside`] — what a degraded answer must equal,
/// given the complete one.
pub fn bits_outside(reference: &[ThresholdPoint], missing: &[Box3]) -> Vec<(u64, u32)> {
    bits(&points_outside(reference, missing))
}

/// The dense reference every answer is checked against: regenerates the
/// time-step and evaluates the derived norm over the whole grid directly
/// — no atoms, chunks, nodes or caches — keeping the points at or above
/// `threshold`, x fastest.
pub fn reference_points(
    service: &TurbulenceService,
    raw_field: &str,
    derived: DerivedField,
    timestep: u32,
    threshold: f64,
) -> Vec<ThresholdPoint> {
    let step = service.dataset().generate(timestep);
    let data = step
        .fields
        .iter()
        .find(|(n, _)| *n == raw_field)
        .map(|(_, d)| d.as_vector3())
        .expect("the dataset stores the raw field");
    let scheme = DiffScheme::new(&service.dataset().grid, service.cluster().config().fd_order);
    let (nx, ny, nz) = data.dims();
    let mut padded = PaddedVector::zeros(nx, ny, nz, derived.halo(&scheme));
    padded.fill_periodic_from(&data, [0, 0, 0]);
    let norm = derived.eval(&padded, &scheme, [0, 0, 0]);
    let mut out = Vec::new();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let v = norm.get(x, y, z);
                // spelled out, not `tdb_field::at_or_above`: an oracle must
                // not share the code it checks
                if f64::from(v) >= threshold {
                    out.push(ThresholdPoint::at(x as u32, y as u32, z as u32, v));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique() {
        let a = ScratchDir::new("t");
        let b = ScratchDir::new("t");
        assert_ne!(a.path(), b.path());
        assert!(a.path().exists() && b.path().exists());
    }

    #[test]
    fn a_dropped_service_takes_its_scratch_directory_with_it() {
        let service = test_service("harness_raii", 16, 1, 1);
        let dir = service.dir().to_path_buf();
        assert!(dir.join("node0").is_dir(), "partition files live here");
        drop(service);
        assert!(!dir.exists(), "{} was left behind", dir.display());
    }
}
