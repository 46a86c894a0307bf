//! Setup: archive, running server, oracle and primed caches for one
//! workload — everything `setup_s` covers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tdb_cluster::ClusterConfig;
use tdb_core::{ServiceConfig, SyntheticDataset, TurbulenceService};
use tdb_wire::client::ClientError;
use tdb_wire::server::ServerConfig;
use tdb_wire::{Client, Server};

use crate::oracle::{Answer, Oracle};
use crate::workload::{keys, Clear, Key, Prime, Query, QueryGen, Region, Spec, Tier};
use crate::workload::{LAG_WIDTH, PDF_BINS, TOPK};

/// Scratch root, inside the checkout the benchmark runs from (the
/// benchmark may read and write nowhere else).
pub const SCRATCH_ROOT: &str = ".perf_scratch";

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> std::io::Result<PathBuf> {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(SCRATCH_ROOT).join(format!("{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A built archive behind a running wire server, with its oracle.
pub struct World {
    pub spec: Spec,
    pub seed: u64,
    pub keys: Vec<Key>,
    pub service: Arc<TurbulenceService>,
    pub oracle: Oracle,
    /// `Some` until `drop` stops it.
    server: Option<Server>,
    dir: PathBuf,
}

impl Drop for World {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        // best effort: a scratch dir left behind is ignored by git
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

impl World {
    /// Generates and bulk-loads the archive (seeded by `seed`), starts the
    /// server, builds the oracle and primes the caches. Returns the world
    /// and the seconds all of that took.
    pub fn setup(spec: Spec, seed: u64) -> Result<(World, f64), String> {
        let started = Instant::now();
        let dir = scratch_dir().map_err(|e| format!("scratch dir: {e}"))?;
        let dataset = SyntheticDataset::mhd(spec.grid, spec.timesteps, seed);
        let defaults = ClusterConfig::default();
        let cluster = ClusterConfig {
            chunk_atoms: spec.chunk_atoms,
            bufferpool_bytes: spec.bufferpool_bytes.unwrap_or(defaults.bufferpool_bytes),
            ..defaults
        };
        let keys = keys(spec.timesteps);
        let with_points = spec.workload == crate::workload::Workload::MixedZipf;
        // generation is single-threaded: the archive and the oracle each
        // regenerate the time-steps, one per core
        let (service, oracle) = std::thread::scope(|scope| {
            let oracle =
                scope.spawn(|| Oracle::build(&dataset, cluster.fd_order, &keys, with_points, seed));
            let service = TurbulenceService::build(ServiceConfig {
                dataset: dataset.clone(),
                cluster: cluster.clone(),
                limits: Default::default(),
                data_dir: dir.clone(),
            });
            (service, oracle.join())
        });
        let cleanup = |msg: String| {
            let _ = std::fs::remove_dir_all(&dir);
            msg
        };
        let service = Arc::new(service.map_err(|e| cleanup(format!("archive build: {e}")))?);
        let oracle = oracle.map_err(|_| cleanup("oracle build panicked".into()))?;
        let server = Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| cleanup(format!("server start: {e}")))?;
        let world = World {
            spec,
            seed,
            keys,
            service,
            oracle,
            server: Some(server),
            dir,
        };
        world.prime()?;
        let secs = started.elapsed().as_secs_f64();
        Ok((world, secs))
    }

    pub fn connect(&self) -> Result<Client, String> {
        let addr = self
            .server
            .as_ref()
            .map(Server::addr)
            .ok_or("server already stopped")?;
        Client::connect(addr).map_err(|e| format!("connect: {e}"))
    }

    /// Key `index` of [`World::keys`]. The generator only produces indices
    /// inside the table, so one outside it is a bug in this program.
    pub fn key(&self, index: usize) -> Key {
        self.keys[index]
    }

    pub fn data_dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// The query stream of one client of this world's workload.
    pub fn queries(&self, client: usize) -> QueryGen {
        QueryGen::new(self.spec.workload, self.spec.timesteps, self.seed, client)
    }

    /// The untimed reset the workload asks for before every query.
    pub fn clear(&self) {
        match self.spec.clear {
            Clear::Nothing => {}
            Clear::Caches => self.service.cluster().clear_caches(),
            Clear::CachesAndPools => {
                self.service.cluster().clear_caches();
                self.service.cluster().clear_buffer_pools();
            }
        }
    }

    /// Fills the caches as the workload's [`Prime`] policy says; every
    /// priming answer is checked like a measured one.
    pub fn prime(&self) -> Result<(), String> {
        let nkeys = self.keys.len();
        let plan: Vec<Query> = match self.spec.prime {
            Prime::Nothing => Vec::new(),
            Prime::AllKeysBelowEveryTier => (0..nkeys)
                .map(|key| Query::Threshold {
                    key,
                    tier: Tier::Prime,
                    region: Region::Whole,
                })
                .collect(),
            Prime::ThresholdAndPdf => {
                let mut plan: Vec<Query> = (0..nkeys).map(|key| Query::Pdf { key }).collect();
                plan.extend((0..nkeys).map(|key| Query::Threshold {
                    key,
                    tier: Tier::Medium,
                    region: Region::Whole,
                }));
                plan
            }
        };
        if plan.is_empty() {
            return Ok(());
        }
        let mut client = self.connect()?;
        for q in &plan {
            let answer = self
                .issue(&mut client, q)
                .map_err(|e| format!("priming {q:?}: {e}"))?;
            self.oracle
                .check(q, &answer)
                .map_err(|e| format!("priming: {e}"))?;
        }
        Ok(())
    }

    /// Sends one query over the wire and reduces the response to an
    /// [`Answer`].
    pub fn issue(&self, client: &mut Client, q: &Query) -> Result<Answer, ClientError> {
        match *q {
            Query::Threshold { key, tier, region } => {
                let k = self.key(key);
                let a = client.get_threshold(
                    k.field_name(),
                    k.derived,
                    k.timestep,
                    region.wire_box(self.oracle.grid()),
                    self.oracle.threshold(key, tier),
                )?;
                Ok(Answer::threshold(
                    a.points,
                    a.cache_hits,
                    a.nodes,
                    &a.breakdown,
                    a.degraded.is_some(),
                ))
            }
            // `Client` drops the `degraded` marker of PDF and top-k
            // responses; a partial answer still fails the oracle check
            Query::Pdf { key } => {
                let k = self.key(key);
                let counts = client.get_pdf(
                    k.field_name(),
                    k.derived,
                    k.timestep,
                    0.0,
                    self.oracle.pdf_width(key),
                    PDF_BINS,
                )?;
                Ok(Answer::Pdf {
                    counts,
                    degraded: false,
                })
            }
            Query::TopK { key } => {
                let k = self.key(key);
                let points = client.get_topk(k.field_name(), k.derived, k.timestep, TOPK)?;
                Ok(Answer::TopK {
                    points,
                    degraded: false,
                })
            }
            Query::Points {
                field,
                timestep,
                set,
            } => {
                let values = client.get_points(
                    crate::workload::field_name(field),
                    timestep,
                    LAG_WIDTH,
                    self.oracle.positions(set),
                )?;
                Ok(Answer::Points { values })
            }
        }
    }
}
