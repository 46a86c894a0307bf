//! The per-node storage engine.
//!
//! Each JHTDB database node stores its share of the simulation in tables
//! "partitioned spatially along contiguous ranges of the Morton z-curve",
//! with "the data for each partition resid\[ing\] in one database file"
//! striped over four RAID-5 disk arrays (paper §2, §5.1). This crate is
//! that engine, built from scratch (the SSD-resident cache tables are
//! `tdb-cache`'s):
//!
//! * [`record`] — the `(timestep, zindex) → atom payload` record, its
//!   samples a shared view of the decoded block they came from,
//! * [`block`] — checksummed block encoding (table-driven CRC-32, bulk
//!   decode into one buffer per block),
//! * [`sstable`] — immutable sorted partition files with a fence index
//!   (the clustered index of the paper: lookups are key-range scans),
//!   validated against the file before it is believed,
//! * [`bufferpool`] — a shared LRU block cache (SQL Server's buffer pool)
//!   with single-flight loads that run outside its lock,
//! * [`lru`] — the one eviction policy, least recently used to a byte
//!   budget, of the buffer pool and both result caches,
//! * [`table`] — a partitioned table spread over disk arrays,
//! * [`device`] — device profiles and per-query I/O accounting used by the
//!   evaluation's modelled time breakdown (DESIGN.md §4),
//! * [`faults`] — deterministic, seeded fault injection threaded through
//!   block reads, cache inserts and node evaluation (robustness testing).
//!
//! Bytes off the disk are parsed one way: every fixed-width field of a
//! block, record, fence or trailer is [`tdb_compress::varint::take`] then
//! `from_be_bytes` / `from_le_bytes`, so a short buffer is a
//! [`StorageError::Corrupt`] naming the file, never a panic.

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

pub mod block;
pub mod bufferpool;
pub mod device;
pub mod error;
pub mod faults;
pub mod lru;
pub mod record;
pub mod sstable;
pub mod table;

pub use block::{checksum, decode_block_meta, encode_block_with, BlockCodecStats, BlockMeta};
pub use bufferpool::BufferPool;
pub use device::{DeviceId, DeviceProfile, DeviceRegistry, IoSession};
pub use error::{IoResultExt, StorageError, StorageResult};
pub use faults::{BlockReadFault, FaultCounts, FaultKind, FaultPlan, FaultRule, FaultSite};
pub use record::{AtomData, AtomKey, AtomRecord};
pub use sstable::{BlockCache, DecodedBlock, PartitionReader, PartitionWriter};
pub use table::{Table, TableBuilder};
pub use tdb_compress::{CompressionConfig, CompressionMode};

/// A directory for one unit test's partition files, removed with the
/// files when the test is done with it.
#[cfg(test)]
pub(crate) struct TestDir(std::path::PathBuf);

#[cfg(test)]
impl TestDir {
    pub(crate) fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("tdb_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

#[cfg(test)]
impl std::ops::Deref for TestDir {
    type Target = std::path::Path;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

#[cfg(test)]
impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
