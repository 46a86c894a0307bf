//! Shared helpers for the `repro` harness, repo-level integration tests
//! and examples.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::Duration;

use tdb_cluster::ClusterConfig;
use tdb_core::{ServiceConfig, TurbulenceService};
use tdb_turbgen::SyntheticDataset;

static UNIQUE: AtomicU64 = AtomicU64::new(0);
static CLEAN_STALE: Once = Once::new();

/// Best-effort removal of `thresholdb_*` scratch dirs left behind by
/// crashed or killed runs. Only dirs untouched for a day are removed, so
/// concurrent test processes never race each other on live dirs; when two
/// sweeps race on the *same* stale dir, whoever loses sees `NotFound`
/// part-way through its `remove_dir_all` — that is success, not failure.
fn clean_stale_scratch() {
    let cutoff = Duration::from_secs(24 * 60 * 60);
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        if !entry
            .file_name()
            .to_string_lossy()
            .starts_with("thresholdb_")
        {
            continue;
        }
        // the entry may vanish between readdir and stat: treat as cleaned
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age > cutoff);
        if stale {
            match std::fs::remove_dir_all(entry.path()) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => eprintln!(
                    "warning: could not sweep stale scratch dir {}: {e}",
                    entry.path().display()
                ),
            }
        }
    }
}

/// A fresh scratch directory under the system temp dir. The first call per
/// process also sweeps out stale scratch dirs from previous runs.
pub fn scratch_dir(tag: &str) -> PathBuf {
    CLEAN_STALE.call_once(clean_stale_scratch);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("thresholdb_{tag}_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Builds a small MHD service for tests: `n`-cube grid, `timesteps` steps,
/// `nodes` database nodes.
pub fn test_service(tag: &str, n: usize, timesteps: u32, nodes: usize) -> TurbulenceService {
    test_service_with(tag, n, timesteps, nodes, |_| {})
}

/// Like [`test_service`] but lets the caller adjust the cluster
/// configuration (e.g. enable scan coalescing) before the build.
pub fn test_service_with(
    tag: &str,
    n: usize,
    timesteps: u32,
    nodes: usize,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> TurbulenceService {
    let mut cluster = ClusterConfig {
        num_nodes: nodes,
        procs_per_node: 2,
        arrays_per_node: 2,
        chunk_atoms: 2,
        ..ClusterConfig::default()
    };
    tweak(&mut cluster);
    let config = ServiceConfig {
        dataset: SyntheticDataset::mhd(n, timesteps, 0x7db),
        cluster,
        limits: Default::default(),
        data_dir: scratch_dir(tag),
    };
    TurbulenceService::build(config).expect("service build")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique() {
        let a = scratch_dir("t");
        let b = scratch_dir("t");
        assert_ne!(a, b);
        assert!(a.exists() && b.exists());
    }
}
