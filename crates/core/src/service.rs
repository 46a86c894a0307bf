//! The service facade: archive generation, bulk load, and query entry
//! points.

use std::collections::HashMap;
use std::path::PathBuf;

use parking_lot::Mutex;
use tdb_cluster::mediator::ThresholdRequest;
use tdb_cluster::{Cluster, ClusterBuilder, ClusterConfig, PdfResponse, TopKResponse};
use tdb_field::{FieldStats, VectorField};
use tdb_kernels::{DerivedField, DiffScheme};
use tdb_turbgen::dataset::FieldData;
use tdb_turbgen::SyntheticDataset;
use tdb_zorder::Box3;

use crate::error::{BuildError, QueryError};
use crate::query::{QueryLimits, ThresholdQuery, ThresholdResult};

/// Everything needed to stand a service up.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub dataset: SyntheticDataset,
    pub cluster: ClusterConfig,
    pub limits: QueryLimits,
    /// Directory for partition files.
    pub data_dir: PathBuf,
}

impl ServiceConfig {
    /// The synthetic MHD archive on an `n`-cube grid over the default
    /// cluster — the one way a service configuration is made. Chunks are
    /// 32³ points from 128³ up, where the halo band is a paper-like share
    /// of what a chunk reads, and 16³ below, so that a small grid still
    /// tiles into enough chunks to spread over the nodes.
    pub fn mhd(data_dir: impl Into<PathBuf>, n: usize, timesteps: u32, seed: u64) -> Self {
        Self {
            dataset: SyntheticDataset::mhd(n, timesteps, seed),
            cluster: ClusterConfig {
                chunk_atoms: if n >= 128 { 4 } else { 2 },
                ..ClusterConfig::default()
            },
            limits: QueryLimits::default(),
            data_dir: data_dir.into(),
        }
    }

    /// A laptop-scale MHD archive (64³, 4 time-steps, 4 nodes) for
    /// quickstarts.
    pub fn small_mhd(dir: impl Into<PathBuf>) -> Self {
        Self::mhd(dir, 64, 4, 0x7db)
    }
}

/// The running service: the paper's Web-services layer, minus SOAP.
pub struct TurbulenceService {
    dataset: SyntheticDataset,
    cluster: Cluster,
    limits: QueryLimits,
    /// Memoised whole-field statistics per (field, derived, timestep).
    stats_cache: Mutex<HashMap<(String, String, u32), FieldStats>>,
}

impl TurbulenceService {
    /// Generates every time-step of the dataset and bulk-loads it into a
    /// fresh cluster.
    pub fn build(config: ServiceConfig) -> Result<Self, BuildError> {
        let fields: Vec<(String, u8)> = config
            .dataset
            .raw_fields()
            .into_iter()
            .map(|f| (f.name.to_string(), f.ncomp as u8))
            .collect();
        let field_refs: Vec<(&str, u8)> = fields.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        let mut builder = ClusterBuilder::new(
            &config.data_dir,
            &config.dataset.name,
            config.dataset.grid.clone(),
            &field_refs,
            config.cluster.clone(),
        )?;
        for t in 0..config.dataset.timesteps {
            let step = config.dataset.generate(t);
            for (name, data) in &step.fields {
                match data {
                    FieldData::Vector(v) => {
                        builder.ingest_timestep(t, name, 3, |atom| v.extract_atom(atom))?
                    }
                    FieldData::Scalar(s) => {
                        builder.ingest_timestep(t, name, 1, |atom| s.extract_atom(atom).to_vec())?
                    }
                }
            }
        }
        Ok(Self {
            dataset: config.dataset,
            cluster: builder.finish()?,
            limits: config.limits,
            stats_cache: Mutex::new(HashMap::new()),
        })
    }

    /// The underlying cluster (experiment control: cache/buffer-pool
    /// clearing, device registry).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The dataset descriptor.
    pub fn dataset(&self) -> &SyntheticDataset {
        &self.dataset
    }

    /// Result-size limits.
    pub fn limits(&self) -> QueryLimits {
        self.limits
    }

    /// The whole-grid query box.
    pub fn full_box(&self) -> Box3 {
        let (nx, ny, nz) = self.dataset.grid.dims();
        Box3::grid(nx as u32, ny as u32, nz as u32)
    }

    fn validate(&self, raw_field: &str, timestep: u32, b: &Box3) -> Result<(), QueryError> {
        if self.dataset.raw_field(raw_field).is_none() {
            return Err(QueryError::UnknownField(raw_field.to_string()));
        }
        if timestep >= self.dataset.timesteps {
            return Err(QueryError::UnknownTimestep {
                timestep,
                available: self.dataset.timesteps,
            });
        }
        if !self.full_box().contains_box(b) {
            return Err(QueryError::RegionOutOfBounds);
        }
        Ok(())
    }

    fn request(&self, q: &ThresholdQuery) -> ThresholdRequest {
        ThresholdRequest {
            raw_field: q.raw_field.clone(),
            derived: q.derived,
            timestep: q.timestep,
            query_box: q.query_box.unwrap_or_else(|| self.full_box()),
            threshold: q.threshold,
            use_cache: q.use_cache,
            mode: q.mode,
            procs_override: q.procs_override,
            strict: self.limits.strict,
            node_deadline_s: self.limits.node_deadline_s,
        }
    }

    /// The end of every threshold query, single or batched: backend
    /// errors mapped, the result-size limit enforced, the outcome counted.
    fn finish_threshold(
        &self,
        response: tdb_storage::StorageResult<ThresholdResult>,
    ) -> Result<ThresholdResult, QueryError> {
        let response = response.map_err(|e| {
            tdb_obs::m::QUERY_THRESHOLD_FAILED.inc();
            QueryError::Backend(e.to_string())
        })?;
        let points = response.points.len() as u64;
        if points > self.limits.max_points {
            tdb_obs::m::QUERY_THRESHOLD_REJECTED.inc();
            return Err(QueryError::ThresholdTooLow {
                points,
                limit: self.limits.max_points,
            });
        }
        tdb_obs::m::QUERY_THRESHOLD_OK.inc();
        Ok(response)
    }

    /// `GetThreshold`: all locations where the derived field's norm is at
    /// or above the threshold (paper Algorithm 1 end to end).
    pub fn get_threshold(&self, q: &ThresholdQuery) -> Result<ThresholdResult, QueryError> {
        let req = self.request(q);
        self.validate(&q.raw_field, q.timestep, &req.query_box)?;
        self.finish_threshold(self.cluster.get_threshold(&req))
    }

    /// Runs several threshold queries as one admitted batch: queries over
    /// the same scan key share a single atom scan on every node (the
    /// mediator's scan scheduler coalesces them), and each gets exactly
    /// the answer it would have received alone.
    pub fn get_threshold_batch(
        &self,
        queries: &[ThresholdQuery],
    ) -> Vec<Result<ThresholdResult, QueryError>> {
        // validate everything up front; invalid queries never reach the
        // cluster but keep their slot in the result vector
        let prepared: Vec<Result<ThresholdRequest, QueryError>> = queries
            .iter()
            .map(|q| {
                let req = self.request(q);
                self.validate(&q.raw_field, q.timestep, &req.query_box)?;
                Ok(req)
            })
            .collect();
        let valid: Vec<ThresholdRequest> = prepared
            .iter()
            .filter_map(|r| r.as_ref().ok().cloned())
            .collect();
        let mut responses = self.cluster.get_threshold_batch(&valid).into_iter();
        prepared
            .into_iter()
            .map(|slot| {
                let _req = slot?;
                let response = responses.next().ok_or_else(|| {
                    QueryError::Backend("batch executor returned too few responses".to_string())
                })?;
                self.finish_threshold(response)
            })
            .collect()
    }

    /// A frozen view of every process-wide metric (buffer-pool and cache
    /// counters, per-device I/O, query counts and latencies).
    pub fn metrics_snapshot(&self) -> tdb_obs::MetricsSnapshot {
        tdb_obs::global().snapshot()
    }

    /// PDF of the derived field's norm over a time-step (paper Fig. 2).
    pub fn get_pdf(
        &self,
        q: &ThresholdQuery,
        origin: f64,
        bin_width: f64,
        nbins: usize,
    ) -> Result<PdfResponse, QueryError> {
        let req = self.request(q);
        self.validate(&q.raw_field, q.timestep, &req.query_box)?;
        self.cluster
            .get_pdf(&req, origin, bin_width, nbins)
            .map_err(|e| QueryError::Backend(e.to_string()))
    }

    /// The k most intense locations of a derived field.
    pub fn get_topk(&self, q: &ThresholdQuery, k: usize) -> Result<TopKResponse, QueryError> {
        let req = self.request(q);
        self.validate(&q.raw_field, q.timestep, &req.query_box)?;
        self.cluster
            .get_topk(&req, k)
            .map_err(|e| QueryError::Backend(e.to_string()))
    }

    /// Raw-field cutout (the data-download path users fall back to when
    /// the threshold limit bites).
    pub fn get_cutout(
        &self,
        raw_field: &str,
        timestep: u32,
        cutout: &Box3,
    ) -> Result<(VectorField<3>, tdb_cluster::TimeBreakdown), QueryError> {
        self.validate(raw_field, timestep, cutout)?;
        self.cluster
            .get_cutout(raw_field, timestep, cutout)
            .map_err(|e| QueryError::Backend(e.to_string()))
    }

    /// Top-k with PDF-guided pruning: instead of scanning with an unbounded
    /// threshold, consult the (cacheable) PDF to pick a threshold expected
    /// to pass roughly `k` points, run a threshold query there, and lower
    /// the threshold bin by bin if too few points survive. Warm PDFs make
    /// this much cheaper than [`TurbulenceService::get_topk`] while
    /// returning identical answers.
    pub fn get_topk_guided(
        &self,
        q: &ThresholdQuery,
        k: usize,
    ) -> Result<Vec<tdb_cache::ThresholdPoint>, QueryError> {
        assert!(k >= 1);
        let stats = self.derived_stats(&q.raw_field, q.derived, q.timestep)?;
        // PDF over [min, max] in 64 bins — served from the PDF cache on
        // repeats
        let span = (stats.max - stats.min).max(1e-12);
        let nbins = 64usize;
        let width = span / nbins as f64;
        let pdf = self.get_pdf(q, stats.min, width, nbins)?;
        // walk bins from the top until the cumulative count reaches k
        let counts = pdf.histogram.counts();
        let mut cumulative = 0u64;
        let mut bin = counts.len();
        while bin > 0 && cumulative < k as u64 {
            bin -= 1;
            cumulative += counts.get(bin).copied().unwrap_or(0);
        }
        let mut threshold = stats.min + width * bin as f64;
        loop {
            let probe = ThresholdQuery {
                threshold,
                ..q.clone()
            };
            let r = self.get_threshold(&probe)?;
            if r.points.len() >= k || threshold <= stats.min {
                let mut points = r.points;
                tdb_cluster::select_topk(&mut points, k);
                points.sort_unstable_by(tdb_cluster::topk_order);
                return Ok(points);
            }
            // rounding starved us: step one bin down (floor at the minimum)
            threshold = (threshold - width).max(stats.min);
        }
    }

    /// Interpolates a raw field at arbitrary positions (grid units, may
    /// be fractional) with 4/6/8-point Lagrange polynomials — the JHTDB
    /// `GetVelocity` family of point queries.
    pub fn interpolate_at(
        &self,
        raw_field: &str,
        timestep: u32,
        positions: &[[f64; 3]],
        order: tdb_kernels::interp::LagOrder,
    ) -> Result<(Vec<[f32; 3]>, tdb_cluster::TimeBreakdown), QueryError> {
        self.validate(raw_field, timestep, &self.full_box())?;
        self.cluster
            .get_points(raw_field, timestep, positions, order)
            .map_err(|e| QueryError::Backend(e.to_string()))
    }

    /// The norm of a derived quantity over a whole regenerated time-step:
    /// the dense reference that statistics and thresholds are picked from.
    fn derived_norm(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
    ) -> Result<tdb_field::ScalarField, QueryError> {
        self.validate(raw_field, timestep, &self.full_box())?;
        let step = self.dataset.generate(timestep);
        let data = step
            .fields
            .iter()
            .find(|(n, _)| *n == raw_field)
            .map(|(_, d)| d.as_vector3())
            .ok_or_else(|| QueryError::UnknownField(raw_field.to_string()))?;
        let scheme = DiffScheme::new(&self.dataset.grid, self.cluster.config().fd_order);
        let (nx, ny, nz) = data.dims();
        let mut padded = tdb_field::PaddedVector::zeros(nx, ny, nz, derived.halo(&scheme));
        padded.fill_periodic_from(&data, [0, 0, 0]);
        Ok(derived.eval(&padded, &scheme, [0, 0, 0]))
    }

    /// Exact whole-field statistics of a derived quantity, computed from
    /// the regenerated time-step (used to pick thresholds as multiples of
    /// the RMS, as the experiments do). Memoised.
    pub fn derived_stats(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
    ) -> Result<FieldStats, QueryError> {
        let key = (raw_field.to_string(), derived.name(), timestep);
        if let Some(s) = self.stats_cache.lock().get(&key) {
            return Ok(*s);
        }
        let stats = FieldStats::of(&self.derived_norm(raw_field, derived, timestep)?);
        self.stats_cache.lock().insert(key, stats);
        Ok(stats)
    }

    /// Picks the threshold whose expected selectivity matches `fraction`
    /// of all grid points (experiment calibration helper): the exact
    /// `1 - fraction` quantile of the derived field's norm.
    pub fn threshold_for_fraction(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        fraction: f64,
    ) -> Result<f64, QueryError> {
        assert!((0.0..=1.0).contains(&fraction));
        let norm = self.derived_norm(raw_field, derived, timestep)?;
        // tdb-lint: allow(float-width) — selects an exact f32 data value
        // as the threshold; the widening to f64 below is lossless
        let mut values: Vec<f32> = norm.as_slice().to_vec();
        let k = ((values.len() as f64) * fraction).round() as usize;
        let k = k.clamp(1, values.len());
        let idx = values.len() - k;
        let (_, pivot, _) = values.select_nth_unstable_by(idx, |a, b| a.total_cmp(b));
        Ok(f64::from(*pivot))
    }
}
