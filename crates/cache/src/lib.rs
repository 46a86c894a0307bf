//! The application-aware semantic cache for threshold-query results.
//!
//! "Rather than caching just data ... we cache query results along with
//! query metadata and subsequent queries are evaluated against the cache"
//! (paper §1). Each database node owns a local cache on its SSD. The
//! paper keeps it in two SQL tables, `cacheInfo` (per dataset, field,
//! time-step: the region examined and the threshold used) and `cacheData`
//! (every grid point whose field norm exceeded that threshold, keyed by
//! Morton code); here an entry is **one row of one table**: the
//! `cacheInfo` key maps to an immutable value holding region, threshold,
//! a checksum and the `cacheData` rows as one zindex-sorted slab.
//!
//! A query hits iff an entry exists for its (dataset, field, time-step),
//! the requested threshold is **at or above** the stored one, and the query
//! box lies inside the stored region (Algorithm 1, line 12). Hits are
//! answered by a scan of the entry's rows filtered by box and threshold.
//! Misses are recomputed from raw data and the entry replaced.
//!
//! "All modifications of and queries to the cache are executed within a
//! transaction with snapshot isolation level to avoid dirty-reads or an
//! inconsistent view of the cache" (§4). Here the table is one locked map
//! of immutable, shared rows: a lookup takes one row's pointer and sees
//! the entry whole or not at all (and writes nothing — the LRU stamp is
//! an atomic beside the entry), and an insert — replacement and
//! least-recently-used eviction across all quantities included — lands in
//! one critical section. The threshold cache ([`semantic`]) and the
//! histogram cache ([`pdf`]) are two instances of that one table.

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

pub mod pdf;
pub mod semantic;
pub mod stats;
mod table;

pub use pdf::{PdfCache, PdfKey, PdfLookup};
pub use semantic::{CacheConfig, CacheInfoKey, CacheLookup, SemanticCache, ThresholdPoint};
pub use stats::CacheStats;
