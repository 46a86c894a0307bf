//! The service facade: archive generation, bulk load, and query entry
//! points.

use std::path::PathBuf;

use tdb_cache::ThresholdPoint;
use tdb_cluster::mediator::ThresholdRequest;
use tdb_cluster::{
    BatchAnswer, BatchQuery, Cluster, ClusterBuilder, ClusterConfig, PdfResponse, QueryMode,
};
use tdb_field::{FieldStats, VectorField};
use tdb_kernels::DerivedField;
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
}

impl TurbulenceService {
    /// Generates every time-step of the dataset and bulk-loads it into a
    /// fresh cluster. A cluster configuration the grid cannot hold is
    /// refused before anything is generated or written.
    pub fn build(config: ServiceConfig) -> Result<Self, BuildError> {
        config
            .cluster
            .validate(config.dataset.grid.dims())
            .map_err(BuildError::InvalidConfig)?;
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

    /// A validated threshold request: a threshold that is not a finite
    /// number selects nothing sensible (and a NaN compares false both
    /// ways), so it is refused as the wire refuses it.
    fn threshold_request(&self, q: &ThresholdQuery) -> Result<ThresholdRequest, QueryError> {
        if !q.threshold.is_finite() {
            return Err(QueryError::InvalidParameter(
                "threshold must be a finite number",
            ));
        }
        self.request(q)
    }

    /// The one way a query becomes a [`ThresholdRequest`]: its field,
    /// time-step and box validated. Each kind checks its own parameters.
    fn request(&self, q: &ThresholdQuery) -> Result<ThresholdRequest, QueryError> {
        let req = ThresholdRequest {
            raw_field: q.raw_field.clone(),
            derived: q.derived,
            timestep: q.timestep,
            query_box: q.query_box.unwrap_or_else(|| self.full_box()),
            threshold: q.threshold,
            use_cache: q.use_cache,
            mode: QueryMode::Full,
            procs_override: None,
            strict: self.limits.strict,
            node_deadline_s: self.limits.node_deadline_s,
        };
        self.validate(&req.raw_field, req.timestep, &req.query_box)?;
        Ok(req)
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
        let req = self.threshold_request(q)?;
        self.finish_threshold(self.cluster.get_threshold(&req))
    }

    /// Runs several threshold queries as one admitted batch: queries over
    /// the same scan key share a single atom scan on every node (one
    /// `Cluster::run_batch`), and each gets exactly the answer it would
    /// have received alone.
    pub fn get_threshold_batch(
        &self,
        queries: &[ThresholdQuery],
    ) -> Vec<Result<ThresholdResult, QueryError>> {
        // validate everything up front; invalid queries never reach the
        // cluster but keep their slot in the result vector
        let prepared: Vec<Result<ThresholdRequest, QueryError>> =
            queries.iter().map(|q| self.threshold_request(q)).collect();
        let batch = (prepared.iter().filter_map(|r| r.as_ref().ok().cloned()))
            .map(BatchQuery::Threshold)
            .collect();
        let mut responses = self.cluster.run_batch(batch).into_iter();
        prepared
            .into_iter()
            .map(|slot| {
                let _req = slot?;
                let response = responses.next().ok_or_else(|| {
                    QueryError::Backend("batch executor returned too few responses".to_string())
                })?;
                self.finish_threshold(response.and_then(BatchAnswer::into_threshold))
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
        if bin_width.is_nan() || bin_width <= 0.0 || nbins == 0 || nbins > 4096 {
            return Err(QueryError::InvalidParameter(
                "pdf bins must satisfy 0 < nbins <= 4096 and bin_width > 0",
            ));
        }
        // a NaN origin or an infinite width would put every point in bin
        // 0 and cache that under the non-finite value's bits
        if !(origin.is_finite() && bin_width.is_finite()) {
            return Err(QueryError::InvalidParameter(
                "pdf origin and bin_width must be finite numbers",
            ));
        }
        let req = self.request(q)?;
        self.cluster
            .get_pdf(&req, origin, bin_width, nbins)
            .map_err(|e| QueryError::Backend(e.to_string()))
    }

    /// The k most intense locations of a derived field.
    pub fn get_topk(&self, q: &ThresholdQuery, k: usize) -> Result<ThresholdResult, QueryError> {
        if k == 0 || k > 100_000 {
            return Err(QueryError::InvalidParameter(
                "k must satisfy 0 < k <= 100000",
            ));
        }
        let req = self.request(q)?;
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

    /// Interpolates a raw field at arbitrary positions (grid units, may
    /// be fractional) with 4/6/8-point Lagrange polynomials — the JHTDB
    /// `GetVelocity` family of point queries. A position that is not a
    /// finite number is refused: it would wrap to NaN on a periodic axis
    /// and clamp onto the wall on a bounded one.
    pub fn interpolate_at(
        &self,
        raw_field: &str,
        timestep: u32,
        positions: &[[f64; 3]],
        order: tdb_kernels::interp::LagOrder,
    ) -> Result<(Vec<[f32; 3]>, tdb_cluster::TimeBreakdown), QueryError> {
        if !positions.iter().flatten().all(|v| v.is_finite()) {
            return Err(QueryError::InvalidParameter(
                "positions must be finite numbers",
            ));
        }
        self.validate(raw_field, timestep, &self.full_box())?;
        self.cluster
            .get_points(raw_field, timestep, positions, order)
            .map_err(|e| QueryError::Backend(e.to_string()))
    }

    /// The `k` largest values of a derived field's time-step as the archive
    /// holds them, in [`tdb_cluster::topk_order`]: a top-k of the whole
    /// grid through the one scan path (the mediator holds 16 B per point
    /// it collects). Strict, so a node outage fails the call rather than
    /// skewing what is computed from a part of the grid.
    fn archive_topk(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        k: usize,
    ) -> Result<Vec<ThresholdPoint>, QueryError> {
        let q = ThresholdQuery::whole_timestep(raw_field, derived, timestep, 0.0).without_cache();
        let req = ThresholdRequest {
            strict: true,
            ..self.request(&q)?
        };
        let top = self.cluster.get_topk(&req, k);
        Ok(top.map_err(|e| QueryError::Backend(e.to_string()))?.points)
    }

    /// Whole-field statistics of a derived quantity over what the archive
    /// holds (used to pick thresholds as multiples of the RMS, as the
    /// experiments do). Each call is a scan.
    pub fn derived_stats(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
    ) -> Result<FieldStats, QueryError> {
        let n = self.full_box().num_points() as usize;
        let mut points = self.archive_topk(raw_field, derived, timestep, n)?;
        if points.is_empty() {
            return Err(QueryError::Backend("the scan returned no value".into()));
        }
        // accumulated x fastest, as a dense field holds them, so the sums
        // round the same however the scan was split
        points.sort_unstable_by_key(|p| {
            let (x, y, z) = p.coords();
            (z, y, x)
        });
        let mut acc = FieldStats::empty();
        acc.extend(points.iter().map(|p| f64::from(p.value)));
        Ok(acc.finish())
    }

    /// Picks the threshold whose selectivity matches `fraction` of all
    /// grid points (experiment calibration helper): the k-th largest value
    /// the archive holds, k = round(N · fraction) — at most N, raised to
    /// at least 1 — an exact f32 data value, widened losslessly.
    pub fn threshold_for_fraction(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        fraction: f64,
    ) -> Result<f64, QueryError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(QueryError::InvalidParameter(
                "fraction must satisfy 0 <= fraction <= 1",
            ));
        }
        let n = self.full_box().num_points() as f64;
        let k = ((n * fraction).round() as usize).max(1);
        let points = self.archive_topk(raw_field, derived, timestep, k)?;
        let kth = points.last().map(|p| f64::from(p.value));
        kth.ok_or_else(|| QueryError::Backend("the scan returned no value".into()))
    }
}
