//! Scientific analysis on top of threshold-query results.
//!
//! The paper's use cases (§3): cluster the locations of maximum vorticity
//! with a friends-of-friends algorithm in 3-D (one time-step) or 4-D
//! (space-time) to find the most intense events and follow their
//! evolution.

pub mod fof;

pub use fof::{fof_clusters_3d, fof_clusters_4d, ClusterStats, SpaceTimePoint};
