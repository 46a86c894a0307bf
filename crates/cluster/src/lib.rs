//! Distributed data-parallel evaluation over a simulated database cluster.
//!
//! Mirrors the JHTDB runtime (paper Figs. 1 & 5): a mediator splits every
//! query by the spatial layout of the data, submits the parts
//! asynchronously to the database nodes that own them, and assembles the
//! results. Each node evaluates its part with `P` worker processes over a
//! queue of fixed-size *chunks* (cubes of atoms), requesting only a
//! kernel-half-width band of halo data from adjacent nodes.
//!
//! The cluster is simulated in-process: nodes are threaded runtimes with
//! private storage ([`tdb_storage`]) and a private semantic cache
//! ([`tdb_cache`]); disks and links are device models; per-query I/O and
//! network time are derived from the *actual* access pattern by a
//! closed-form time model ([`sim`]), while compute and cache lookups are
//! measured (DESIGN.md §4).

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

pub mod assemble;
pub mod config;
pub mod cputime;
mod maxima;
pub mod mediator;
mod merge;
pub mod node;
pub mod placement;
pub mod rebalance;
pub mod scan;
mod scatter;
pub mod sim;
pub mod timing;
mod topology;
pub mod wire;

pub use config::{ClusterConfig, ReplicationConfig};
pub use mediator::{
    BatchAnswer, BatchQuery, Cluster, ClusterBuilder, DegradedInfo, FailedNode, PdfResponse,
    ThresholdResponse, TopKResponse,
};
pub use node::QueryMode;
pub use placement::{Chunk, Layout, PlacementMode};
pub use rebalance::RebalanceReport;
pub use scan::{
    select_topk, topk_order, ScanAssignment, ScanKernel, ScanParticipant, SharedOutcome,
    SharedScanRequest,
};
pub use sim::NodeTimeModel;
pub use tdb_storage::{CompressionConfig, CompressionMode};
pub use timing::TimeBreakdown;
