//! ThresholDB: efficient threshold queries of derived fields in a
//! numerical-simulation database.
//!
//! This crate is the public face of the reproduction of Kanov, Burns &
//! Lalescu (EDBT 2015): a [`TurbulenceService`] that
//!
//! 1. generates a synthetic turbulence archive ([`tdb_turbgen`]),
//! 2. bulk-loads it into a simulated cluster of database nodes
//!    ([`tdb_cluster`], [`tdb_storage`]),
//! 3. evaluates threshold / PDF / top-k / cutout queries of raw and
//!    derived fields data-parallel near the data, with an
//!    application-aware semantic cache ([`tdb_cache`]).
//!
//! ```no_run
//! use tdb_core::{ServiceConfig, TurbulenceService, ThresholdQuery};
//! use tdb_kernels::DerivedField;
//!
//! let config = ServiceConfig::small_mhd("/tmp/tdb-demo");
//! let service = TurbulenceService::build(config).unwrap();
//! let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 44.0);
//! let result = service.get_threshold(&q).unwrap();
//! println!("{} points above threshold: {}", result.points.len(), result.breakdown);
//! ```

// the query path returns typed errors, it does not panic (DESIGN.md §8)
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod baseline;
pub mod batch;
pub mod error;
pub mod query;
pub mod service;

pub use baseline::{local_evaluation_estimate, LocalBaselineReport};
pub use batch::{BatchSession, JobId, JobSpec, JobState, MyDb};
pub use error::{BuildError, QueryError};
pub use query::{QueryLimits, ThresholdQuery, ThresholdResult};
pub use service::{ServiceConfig, TurbulenceService};

// Re-export the vocabulary types users need alongside the service.
pub use tdb_cache::ThresholdPoint;
pub use tdb_cluster::{DegradedInfo, FailedNode, TimeBreakdown};
pub use tdb_kernels::interp::LagOrder;
pub use tdb_kernels::{DerivedField, FdOrder};
pub use tdb_obs::{AttrValue, MetricsSnapshot, QueryTrace, TraceSpan};
pub use tdb_turbgen::SyntheticDataset;
pub use tdb_zorder::Box3;
