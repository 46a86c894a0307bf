//! Partitioned tables over disk arrays.
//!
//! "The tables storing the data are partitioned spatially along contiguous
//! ranges of the Morton z-curve and the data for each partition reside in
//! one database file" striped over the node's disk arrays (paper §5.1).
//! Ingestion is timestep-major, which matches the clustered key order, so
//! every partition file is a single sorted run.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tdb_compress::CompressionConfig;
use tdb_zorder::ZRange;

use crate::device::{DeviceId, IoSession};
use crate::error::{IoResultExt, StorageError, StorageResult};
use crate::record::{AtomKey, AtomRecord};
use crate::sstable::BlockCache;
use crate::sstable::{PartitionReader, PartitionWriter};

/// Streaming bulk loader for one table. Partitions are defined by
/// contiguous z-ranges; `append_timestep` routes records to partitions.
pub struct TableBuilder {
    name: String,
    ncomp: u8,
    zones: Vec<ZRange>,
    writers: Vec<PartitionWriter>,
    paths: Vec<PathBuf>,
    devices: Vec<DeviceId>,
    next_timestep: u32,
}

impl TableBuilder {
    /// Creates partition files `dir/{name}_part{i}.tdb`, one per z-range,
    /// assigned round-robin to `devices` (the node's disk arrays), with
    /// blocks written under `codec` ([`CompressionConfig::default`] keeps
    /// the seed on-disk format byte for byte).
    pub fn new(
        dir: impl AsRef<Path>,
        name: &str,
        ncomp: u8,
        zones: Vec<ZRange>,
        devices: &[DeviceId],
        codec: CompressionConfig,
    ) -> StorageResult<Self> {
        assert!(!zones.is_empty(), "table needs at least one partition");
        assert!(!devices.is_empty(), "table needs at least one device");
        assert!(
            zones
                .iter()
                .zip(zones.iter().skip(1))
                .all(|(a, b)| a.end < b.start),
            "partition z-ranges must be sorted and disjoint"
        );
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).at_file(dir.display().to_string())?;
        let mut writers = Vec::with_capacity(zones.len());
        let mut paths = Vec::with_capacity(zones.len());
        let mut devs = Vec::with_capacity(zones.len());
        for (i, dev) in devices.iter().cycle().take(zones.len()).enumerate() {
            let path = dir.join(format!("{name}_part{i}.tdb"));
            writers.push(PartitionWriter::create_with(&path, ncomp, codec)?);
            paths.push(path);
            devs.push(*dev);
        }
        Ok(Self {
            name: name.to_string(),
            ncomp,
            zones,
            writers,
            paths,
            devices: devs,
            next_timestep: 0,
        })
    }

    /// Appends one time-step's records (sorted by zindex). Time-steps must
    /// arrive in increasing order — the archive ingest pattern.
    pub fn append_timestep(
        &mut self,
        timestep: u32,
        records: impl IntoIterator<Item = AtomRecord>,
    ) -> StorageResult<()> {
        if timestep < self.next_timestep {
            return Err(StorageError::KeyOrder {
                detail: format!(
                    "timestep {timestep} after {}",
                    self.next_timestep.saturating_sub(1)
                ),
            });
        }
        self.next_timestep = timestep + 1;
        for rec in records {
            if rec.key.timestep != timestep {
                return Err(StorageError::KeyOrder {
                    detail: format!("record {:?} in timestep {timestep} batch", rec.key),
                });
            }
            let zone = self
                .zones
                .partition_point(|z| z.end < rec.key.zindex)
                .min(self.zones.len() - 1);
            match (self.zones.get(zone), self.writers.get_mut(zone)) {
                (Some(z), Some(w)) if z.contains(rec.key.zindex) => w.append(rec)?,
                _ => {
                    return Err(StorageError::KeyOrder {
                        detail: format!("zindex {} outside every partition zone", rec.key.zindex),
                    })
                }
            }
        }
        Ok(())
    }

    /// Finishes every partition and opens the table for reading through
    /// `pool`. `file_id_base` namespaces buffer-pool keys across tables.
    pub fn finish(self, pool: Arc<BlockCache>, file_id_base: u64) -> StorageResult<Table> {
        let mut partitions = Vec::with_capacity(self.writers.len());
        let parts = self
            .writers
            .into_iter()
            .zip(self.paths)
            .zip(self.devices)
            .zip(self.zones);
        for (i, (((w, path), device), zone)) in parts.enumerate() {
            w.finish()?;
            let reader =
                PartitionReader::open(&path, file_id_base + i as u64, device, Arc::clone(&pool))?;
            partitions.push(PartitionHandle { zone, reader });
        }
        Ok(Table {
            name: self.name,
            ncomp: self.ncomp,
            partitions,
        })
    }
}

struct PartitionHandle {
    zone: ZRange,
    reader: PartitionReader,
}

/// A read-only partitioned table.
pub struct Table {
    name: String,
    ncomp: u8,
    partitions: Vec<PartitionHandle>,
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Component count of the stored field.
    pub fn ncomp(&self) -> u8 {
        self.ncomp
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Records of `timestep` whose zindex falls in any of `zranges`, in
    /// key order. `zranges` must be sorted and disjoint — that is what
    /// makes the output ordered without a sort — and a list that is not
    /// is refused rather than answered out of order.
    pub fn scan(
        &self,
        timestep: u32,
        zranges: &[ZRange],
        session: &mut IoSession,
    ) -> StorageResult<Vec<AtomRecord>> {
        if !zranges
            .iter()
            .zip(zranges.iter().skip(1))
            .all(|(a, b)| a.end < b.start)
        {
            return Err(StorageError::internal(format!(
                "table {}: scan ranges must be sorted and disjoint",
                self.name
            )));
        }
        let mut out = Vec::new();
        for zr in zranges {
            // zones are sorted and disjoint: the ones a range touches are
            // consecutive, starting at the first that ends at or after it
            let first = self.partitions.partition_point(|p| p.zone.end < zr.start);
            for p in self.partitions.iter().skip(first) {
                if p.zone.start > zr.end {
                    break;
                }
                let lo = AtomKey::new(timestep, zr.start.max(p.zone.start));
                let hi = AtomKey::new(timestep, zr.end.min(p.zone.end));
                out.extend(p.reader.scan_range(lo, hi, session)?);
            }
        }
        debug_assert!(
            out.iter()
                .zip(out.iter().skip(1))
                .all(|(a, b)| a.key < b.key),
            "sorted ranges over sorted disjoint zones come out in key order"
        );
        Ok(out)
    }

    /// Batched point lookups: `zindexes` (sorted, unique) of one timestep
    /// are grouped into contiguous runs, each served by a single
    /// clustered-index range scan — scattered halo atoms therefore pay one
    /// seek per run, not one per atom. A run spans only codes that were
    /// asked for, so nothing unasked comes back; a list that is not sorted
    /// and unique is refused (its runs would overlap or go backwards).
    pub fn get_many(
        &self,
        timestep: u32,
        zindexes: &[u64],
        session: &mut IoSession,
    ) -> StorageResult<Vec<AtomRecord>> {
        let mut runs: Vec<ZRange> = Vec::new();
        for &z in zindexes {
            match runs.last_mut() {
                Some(r) if r.end + 1 == z => r.end = z,
                Some(r) if z <= r.end => {
                    return Err(StorageError::internal(format!(
                        "table {}: get_many zindexes must be sorted and unique ({z} after {})",
                        self.name, r.end
                    )))
                }
                _ => runs.push(ZRange::new(z, z)),
            }
        }
        let out = self.scan(timestep, &runs, session)?;
        debug_assert!(out
            .iter()
            .all(|r| zindexes.binary_search(&r.key.zindex).is_ok()));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceProfile, DeviceRegistry};
    use tdb_zorder::ATOM_POINTS;

    fn rec(ts: u32, z: u64) -> AtomRecord {
        AtomRecord::new(AtomKey::new(ts, z), 1, vec![z as f32; ATOM_POINTS]).unwrap()
    }

    fn setup(tag: &str, zones: Vec<ZRange>, timesteps: u32) -> (Table, crate::TestDir) {
        let dir = crate::TestDir::new(&format!("table_{tag}"));
        let mut reg = DeviceRegistry::new();
        let devs: Vec<DeviceId> = (0..2)
            .map(|_| reg.register(DeviceProfile::hdd_array()))
            .collect();
        let mut b = TableBuilder::new(
            &*dir,
            "velocity",
            1,
            zones.clone(),
            &devs,
            CompressionConfig::default(),
        )
        .unwrap();
        for t in 0..timesteps {
            let recs: Vec<AtomRecord> = zones
                .iter()
                .flat_map(|z| (z.start..=z.end).map(move |zi| rec(t, zi)))
                .collect();
            b.append_timestep(t, recs).unwrap();
        }
        let table = b.finish(Arc::new(BlockCache::new(1 << 22)), 0).unwrap();
        (table, dir)
    }

    #[test]
    fn scan_honours_zranges_and_timestep() {
        let zones = vec![ZRange::new(0, 31), ZRange::new(32, 63)];
        let (table, _dir) = setup("scan", zones, 3);
        assert_eq!(table.num_partitions(), 2);
        let mut s = IoSession::new();
        let got = table.scan(1, &[ZRange::new(10, 40)], &mut s).unwrap();
        let zs: Vec<u64> = got.iter().map(|r| r.key.zindex).collect();
        assert_eq!(zs, (10..=40).collect::<Vec<_>>());
        assert!(got.iter().all(|r| r.key.timestep == 1));
    }

    #[test]
    fn scan_multiple_ranges_sorted_output() {
        let zones = vec![ZRange::new(0, 63)];
        let (table, _dir) = setup("multi", zones, 1);
        let mut s = IoSession::new();
        let got = table
            .scan(0, &[ZRange::new(5, 7), ZRange::new(20, 21)], &mut s)
            .unwrap();
        let zs: Vec<u64> = got.iter().map(|r| r.key.zindex).collect();
        assert_eq!(zs, vec![5, 6, 7, 20, 21]);
    }

    #[test]
    fn unordered_requests_are_refused_not_misanswered() {
        // the output order rests on the input order (no sort, no filter),
        // so a caller breaking the contract gets an error in any build
        let zones = vec![ZRange::new(0, 31), ZRange::new(32, 63)];
        let (table, _dir) = setup("contract", zones, 1);
        let mut s = IoSession::new();
        let sorted = table.get_many(0, &[3, 4, 9, 40], &mut s).unwrap();
        let zs: Vec<u64> = sorted.iter().map(|r| r.key.zindex).collect();
        assert_eq!(zs, vec![3, 4, 9, 40]);
        for bad in [&[9u64, 3][..], &[3, 3], &[3, 4, 4], &[3, 4, 9, 5]] {
            let e = table.get_many(0, bad, &mut s).unwrap_err();
            assert!(matches!(e, StorageError::Internal { .. }), "{bad:?}: {e}");
        }
        for bad in [
            [ZRange::new(20, 21), ZRange::new(5, 7)],
            [ZRange::new(5, 10), ZRange::new(10, 12)],
        ] {
            let e = table.scan(0, &bad, &mut s).unwrap_err();
            assert!(matches!(e, StorageError::Internal { .. }), "{bad:?}: {e}");
        }
    }

    #[test]
    fn partitions_charge_different_devices() {
        let zones = vec![ZRange::new(0, 199), ZRange::new(200, 399)];
        let (table, _dir) = setup("devices", zones, 1);
        let mut s = IoSession::new();
        table.scan(0, &[ZRange::new(0, 399)], &mut s).unwrap();
        // two partitions → two devices charged
        assert!(s.access(DeviceId(0)).bytes > 0);
        assert!(s.access(DeviceId(1)).bytes > 0);
    }

    #[test]
    fn builder_rejects_bad_input() {
        let dir = crate::TestDir::new("table_bad");
        let mut reg = DeviceRegistry::new();
        let d = reg.register(DeviceProfile::hdd_array());
        let mut b = TableBuilder::new(
            &*dir,
            "f",
            1,
            vec![ZRange::new(0, 7)],
            &[d],
            CompressionConfig::default(),
        )
        .unwrap();
        b.append_timestep(1, vec![rec(1, 0)]).unwrap();
        // timestep going backwards
        assert!(b.append_timestep(0, vec![rec(0, 0)]).is_err());
        // record outside any zone
        assert!(b.append_timestep(2, vec![rec(2, 100)]).is_err());
        // record with mismatched timestep
        assert!(b.append_timestep(3, vec![rec(4, 0)]).is_err());
    }
}
