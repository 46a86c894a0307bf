//! Query and result types.

use tdb_kernels::DerivedField;
use tdb_zorder::Box3;

/// Server-side result-size limits and failure policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryLimits {
    /// Maximum locations a threshold query may return ("currently this
    /// limit is set conservatively to 10⁶ locations", paper §4).
    pub max_points: u64,
    /// Fail the whole query when any node is unavailable or over its
    /// deadline instead of degrading to a partial answer.
    pub strict: bool,
    /// Per-node modelled-time deadline in seconds; a node whose modelled
    /// evaluation time exceeds it is treated as failed (degraded or, in
    /// strict mode, an error). `None` disables the deadline.
    pub node_deadline_s: Option<f64>,
}

impl Default for QueryLimits {
    fn default() -> Self {
        Self {
            max_points: 1_000_000,
            strict: false,
            node_deadline_s: None,
        }
    }
}

/// A threshold query as submitted by a client.
#[derive(Debug, Clone)]
pub struct ThresholdQuery {
    /// Stored raw field the derived quantity is computed from.
    pub raw_field: String,
    /// Derived quantity whose norm is compared against the threshold.
    pub derived: DerivedField,
    pub timestep: u32,
    /// Spatial region; `None` queries the entire time-step (the common
    /// case in the paper).
    pub query_box: Option<Box3>,
    pub threshold: f64,
    /// Whether to consult/update the semantic cache.
    pub use_cache: bool,
}

impl ThresholdQuery {
    /// The typical query: a whole time-step, cache enabled.
    pub fn whole_timestep(
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        threshold: f64,
    ) -> Self {
        Self {
            raw_field: raw_field.to_string(),
            derived,
            timestep,
            query_box: None,
            threshold,
            use_cache: true,
        }
    }

    /// Disables the cache for this query (the paper's "no cache" runs).
    pub fn without_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }

    /// Restricts the query to a box.
    pub fn in_box(mut self, b: Box3) -> Self {
        self.query_box = Some(b);
        self
    }
}

/// Result of a threshold query: the mediator's assembled answer as it
/// is — locations (Morton-coded) with the field norm at each, the
/// modelled/measured time breakdown (Fig. 9 phases) and the time model it
/// is read from at the configured process count, how many of the
/// participating nodes answered from their semantic cache, the span tree,
/// and, when nodes failed and the answer is partial, which nodes and which
/// grid boxes are missing.
pub type ThresholdResult = tdb_cluster::ThresholdResponse;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_helpers_compose() {
        let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 2, 44.0)
            .without_cache()
            .in_box(Box3::cube(32));
        assert!(!q.use_cache);
        assert_eq!(q.query_box, Some(Box3::cube(32)));
        assert_eq!(q.timestep, 2);
    }

    #[test]
    fn default_limit_matches_paper() {
        assert_eq!(QueryLimits::default().max_points, 1_000_000);
    }
}
