//! The Web-services front end.
//!
//! "Access to the data is provided by means of Web-services ... The
//! Web-services are hosted on a front-end Web-server, which handles user
//! requests" (paper §2, Fig. 1). This crate is that layer for ThresholDB:
//! a line-delimited JSON protocol served over TCP by [`server::Server`],
//! spoken by [`client::Client`], with two binaries:
//!
//! * `tdb-server` — builds a synthetic archive and serves it,
//! * `tdbql` — a small interactive/scripted query client.
//!
//! The JSON codec ([`json`]) is written in-repo (no external
//! serialization crates) and is also used to persist experiment results.

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

pub mod admission;
pub mod client;
pub mod json;
pub mod proto;
pub mod server;

pub use admission::{Admission, AdmissionConfig, AdmissionQueue, Permit, TenantSpec};
pub use client::Client;
pub use json::Json;
pub use proto::{Request, Response};
pub use server::Server;
pub use tdb_cluster::{CompressionConfig, CompressionMode};
