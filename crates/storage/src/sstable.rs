//! Immutable sorted partition files.
//!
//! A partition file holds atom records sorted by clustered key
//! `(timestep, zindex)` in checksummed blocks, with an in-footer fence
//! index (first/last key per block). Range scans binary-search the fences
//! and read only overlapping blocks — the clustered-index range scan the
//! paper's queries compile to. The archive is append-once, so sorted runs
//! never need compaction.
//!
//! A block is read, verified and decoded once, on the buffer-pool miss
//! path and outside the pool lock; a scan then hands out its records as
//! views of the block's one sample buffer, so a pool hit copies nothing.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tdb_compress::varint::take;
use tdb_compress::{CompressionConfig, CompressionMode};

use crate::block::{decode_block_meta, encode_block_with, TARGET_BLOCK_BYTES};
use crate::bufferpool::{BlockKey, BufferPool, PoolValue};
use crate::device::{DeviceId, IoSession};
use crate::error::{IoResultExt, StorageError, StorageResult};
use crate::faults::FaultPlan;
use crate::record::{AtomKey, AtomRecord};

const FOOTER_MAGIC: u32 = 0x7db1_f007;
/// The trailer that ends a file: `nfences u32 | ncomp u8 | footer_start u64 | magic u32`.
const TRAILER_LEN: usize = 17;
/// One fence of the index before the trailer: `first | last | offset u64 | len u32`.
const FENCE_LEN: usize = 2 * AtomKey::ENCODED_LEN + 12;
/// The smallest block: magic, record count and CRC around no records.
const MIN_BLOCK_LEN: u32 = 12;

/// Bounded retry budget for transient block-read failures.
const MAX_READ_ATTEMPTS: u32 = 3;
/// Modelled backoff charged before retry `n` (doubles per attempt), seconds.
const RETRY_BACKOFF_S: f64 = 2e-3;

/// A checksum-verified, parsed partition block as held by the buffer
/// pool. Decoding (including codec reconstruction) happens once, on the
/// miss path, into one sample buffer that the records view; the pool
/// budget tracks the *decoded* footprint while the device accounting
/// charges the on-disk (possibly compressed) bytes. Records handed to a
/// scan share that buffer, so it outlives the block's eviction for as
/// long as a scan still holds one — the budget stays `logical_len`.
#[derive(Debug, Clone)]
pub struct DecodedBlock {
    pub records: Arc<Vec<AtomRecord>>,
    /// Bytes read from the device (compressed size for V2 blocks).
    pub disk_len: u32,
    /// Bytes the decoded records occupy in memory.
    pub logical_len: u64,
}

impl PoolValue for DecodedBlock {
    fn weight(&self) -> usize {
        self.logical_len as usize
    }
}

/// The buffer-pool type partition readers share.
pub type BlockCache = BufferPool<DecodedBlock>;

/// Fence-index entry: one block's key range and file location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fence {
    pub first: AtomKey,
    pub last: AtomKey,
    pub offset: u64,
    pub len: u32,
}

/// Streaming bulk-load writer. Records must arrive in strictly increasing
/// key order; blocks are cut near [`TARGET_BLOCK_BYTES`].
pub struct PartitionWriter {
    file: File,
    path: PathBuf,
    ncomp: u8,
    codec: CompressionConfig,
    fences: Vec<Fence>,
    pending: Vec<AtomRecord>,
    pending_bytes: usize,
    offset: u64,
    last_key: Option<AtomKey>,
}

impl PartitionWriter {
    /// Creates (truncates) the partition file in the seed (uncompressed)
    /// format.
    pub fn create(path: impl AsRef<Path>, ncomp: u8) -> StorageResult<Self> {
        Self::create_with(path, ncomp, CompressionConfig::default())
    }

    /// Creates (truncates) the partition file, writing blocks under
    /// `codec`. [`CompressionMode::Off`] keeps the seed format
    /// byte-identical.
    pub fn create_with(
        path: impl AsRef<Path>,
        ncomp: u8,
        codec: CompressionConfig,
    ) -> StorageResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path).at_file(path.display().to_string())?;
        Ok(Self {
            file,
            path,
            ncomp,
            codec,
            fences: Vec::new(),
            pending: Vec::new(),
            pending_bytes: 0,
            offset: 0,
            last_key: None,
        })
    }

    /// Appends one record; keys must strictly increase.
    pub fn append(&mut self, rec: AtomRecord) -> StorageResult<()> {
        if rec.ncomp != self.ncomp {
            return Err(StorageError::SchemaMismatch {
                expected_ncomp: self.ncomp,
                got_ncomp: rec.ncomp,
            });
        }
        if let Some(last) = self.last_key {
            if rec.key <= last {
                return Err(StorageError::KeyOrder {
                    detail: format!("{:?} after {:?}", rec.key, last),
                });
            }
        }
        self.last_key = Some(rec.key);
        self.pending_bytes += AtomRecord::encoded_len(rec.ncomp);
        self.pending.push(rec);
        if self.pending_bytes >= TARGET_BLOCK_BYTES {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> StorageResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let (Some(first), Some(last)) = (self.pending.first(), self.pending.last()) else {
            return Ok(());
        };
        let (first, last) = (first.key, last.key);
        let (blk, stats) = encode_block_with(&self.pending, &self.codec);
        if self.codec.is_active() {
            use tdb_obs::m;
            match self.codec.mode {
                CompressionMode::Lossless => m::COMPRESS_BLOCKS_LOSSLESS.inc(),
                CompressionMode::Lossy => m::COMPRESS_BLOCKS_LOSSY.inc(),
                CompressionMode::Off => {}
            }
            m::COMPRESS_BYTES_LOGICAL.add(stats.logical_bytes);
            m::COMPRESS_BYTES_STORED.add(stats.stored_bytes);
            m::COMPRESS_CORRECTIONS.add(stats.corrections);
            // worst uncorrected error ever written, in microns of value
            let micro = (stats.max_error * 1e6).ceil() as i64;
            if micro > m::COMPRESS_MAX_ERROR_MICRO.get() {
                m::COMPRESS_MAX_ERROR_MICRO.set(micro);
            }
        }
        self.file
            .write_all(&blk)
            .at_file(self.path.display().to_string())?;
        self.fences.push(Fence {
            first,
            last,
            offset: self.offset,
            len: blk.len() as u32,
        });
        self.offset += blk.len() as u64;
        self.pending.clear();
        self.pending_bytes = 0;
        Ok(())
    }

    /// Flushes the tail block and writes the footer.
    pub fn finish(mut self) -> StorageResult<PathBuf> {
        self.flush_block()?;
        let mut footer = Vec::with_capacity(self.fences.len() * FENCE_LEN + TRAILER_LEN);
        for f in &self.fences {
            footer.extend_from_slice(&f.first.encode());
            footer.extend_from_slice(&f.last.encode());
            footer.extend_from_slice(&f.offset.to_be_bytes());
            footer.extend_from_slice(&f.len.to_be_bytes());
        }
        footer.extend_from_slice(&(self.fences.len() as u32).to_be_bytes());
        footer.push(self.ncomp);
        footer.extend_from_slice(&self.offset.to_be_bytes()); // start of footer
        footer.extend_from_slice(&FOOTER_MAGIC.to_be_bytes());
        let path_str = self.path.display().to_string();
        self.file.write_all(&footer).at_file(&path_str)?;
        self.file.sync_all().at_file(&path_str)?;
        Ok(self.path)
    }
}

/// Read handle over a finished partition file. Block reads go through the
/// node's shared [`BufferPool`]; misses charge the owning disk array in the
/// caller's [`IoSession`].
pub struct PartitionReader {
    file: File,
    path: String,
    file_id: u64,
    device: DeviceId,
    pool: Arc<BlockCache>,
    ncomp: u8,
    fences: Vec<Fence>,
}

impl PartitionReader {
    /// Opens a partition file and loads its fence index. The footer
    /// carries no checksum, so nothing in it is believed before it is
    /// checked against the file: the trailer's geometry must account for
    /// every byte, and the fences must be key-ordered and tile the block
    /// region `[0, footer_start)` without gap or overlap — which also
    /// bounds every later block read by the file's length. What a fence
    /// says about its block's keys is checked when the block is loaded.
    pub fn open(
        path: impl AsRef<Path>,
        file_id: u64,
        device: DeviceId,
        pool: Arc<BlockCache>,
    ) -> StorageResult<Self> {
        let path_str = path.as_ref().display().to_string();
        let corrupt = |detail: String| StorageError::Corrupt {
            file: path_str.clone(),
            detail,
        };
        let short = |_| corrupt("truncated footer".into());
        let mut file = File::open(&path).at_file(&path_str)?;
        let total = file.seek(SeekFrom::End(0)).at_file(&path_str)?;
        let trailer_at = total
            .checked_sub(TRAILER_LEN as u64)
            .ok_or_else(|| corrupt("file shorter than footer trailer".into()))?;
        let mut trailer = [0u8; TRAILER_LEN];
        file.read_exact_at(&mut trailer, trailer_at)
            .at_file(&path_str)?;
        let mut t = trailer.as_slice();
        let nfences = take(&mut t).map(u32::from_be_bytes).map_err(short)? as usize;
        let [ncomp] = take(&mut t).map_err(short)?;
        let footer_start = take(&mut t).map(u64::from_be_bytes).map_err(short)?;
        let magic = take(&mut t).map(u32::from_be_bytes).map_err(short)?;
        if magic != FOOTER_MAGIC {
            return Err(corrupt(format!("bad footer magic {magic:#x}")));
        }
        let fence_bytes = nfences
            .checked_mul(FENCE_LEN)
            .filter(|&n| footer_start.checked_add(n as u64) == Some(trailer_at))
            .ok_or_else(|| corrupt("footer geometry inconsistent".into()))?;
        let mut buf = vec![0u8; fence_bytes];
        file.read_exact_at(&mut buf, footer_start)
            .at_file(&path_str)?;
        let mut b = buf.as_slice();
        let mut fences: Vec<Fence> = Vec::with_capacity(nfences);
        let mut end = 0u64; // of the blocks accounted for so far
        for i in 0..nfences {
            let fence = Fence {
                first: AtomKey::decode(take(&mut b).map_err(short)?),
                last: AtomKey::decode(take(&mut b).map_err(short)?),
                offset: take(&mut b).map(u64::from_be_bytes).map_err(short)?,
                len: take(&mut b).map(u32::from_be_bytes).map_err(short)?,
            };
            if fence.first > fence.last || fences.last().is_some_and(|p| p.last >= fence.first) {
                return Err(corrupt(format!("fence {i} keys out of order")));
            }
            if fence.offset != end || fence.len < MIN_BLOCK_LEN {
                return Err(corrupt(format!("fence {i} is not the next block")));
            }
            end = end.saturating_add(u64::from(fence.len));
            fences.push(fence);
        }
        if end != footer_start {
            return Err(corrupt("blocks do not end at the footer".into()));
        }
        Ok(Self {
            file,
            path: path_str,
            file_id,
            device,
            pool,
            ncomp,
            fences,
        })
    }

    /// Component count of stored records.
    pub fn ncomp(&self) -> u8 {
        self.ncomp
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.fences.len()
    }

    /// Reads one block through the buffer pool; a miss charges the disk
    /// array one request plus the block's bytes. The per-request latency
    /// in the array profile is calibrated to the *effective* block-read
    /// rate of the paper's nodes (partial sequentiality and read-ahead
    /// included), so every miss pays it.
    ///
    /// Transient failures (injected or retryable I/O kinds) get a bounded
    /// retry with modelled exponential backoff; the retry happens inside
    /// the loader so the pool still counts a single miss, and workers
    /// wanting the same block meanwhile wait for this load. Permanent
    /// failures propagate immediately with the partition path attached.
    fn read_block(
        &self,
        idx: usize,
        fence: Fence,
        session: &mut IoSession,
    ) -> StorageResult<DecodedBlock> {
        let key = BlockKey {
            file_id: self.file_id,
            block_no: idx as u32,
        };
        let plan = self.pool.fault_plan().cloned();
        self.pool.get_or_load(key, session, |s| {
            let mut attempt = 1u32;
            loop {
                match self.load_block_once(fence, idx, plan.as_deref(), attempt, s) {
                    Ok(block) => {
                        if attempt > 1 {
                            tdb_obs::m::STORAGE_READ_RETRY_SUCCESS.inc();
                        }
                        return Ok(block);
                    }
                    Err(e) if e.is_transient() && attempt < MAX_READ_ATTEMPTS => {
                        tdb_obs::m::STORAGE_READ_RETRIES.inc();
                        s.injected_delay_s += RETRY_BACKOFF_S * f64::from(1u32 << (attempt - 1));
                        attempt += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        })
    }

    /// One attempt at reading block `idx` from disk: consults the fault
    /// plan first (a fired fault replaces the device access), then performs
    /// the real positioned read and decode.
    fn load_block_once(
        &self,
        fence: Fence,
        idx: usize,
        plan: Option<&FaultPlan>,
        attempt: u32,
        s: &mut IoSession,
    ) -> StorageResult<DecodedBlock> {
        if let Some(plan) = plan {
            let f = plan.block_read_fault(self.file_id, idx as u32, attempt);
            s.injected_delay_s += f.latency_s;
            if f.corrupt {
                return Err(StorageError::Corrupt {
                    file: self.path.clone(),
                    detail: format!("injected corruption in block {idx}"),
                });
            }
            if f.transient {
                // the request was issued and failed: charge the seek, no bytes
                s.charge(self.device, 1, 0);
                return Err(StorageError::Injected {
                    site: "block_read".into(),
                    detail: format!("transient read failure, block {idx} attempt {attempt}"),
                    transient: true,
                });
            }
        }
        let mut buf = vec![0u8; fence.len as usize];
        self.file
            .read_exact_at(&mut buf, fence.offset)
            .at_file(&self.path)?;
        s.charge(self.device, 1, u64::from(fence.len));
        let started = std::time::Instant::now();
        let (records, meta) = decode_block_meta(&buf, &self.path)?;
        if meta.compressed {
            tdb_obs::m::COMPRESS_RECONSTRUCT_S.observe(started.elapsed().as_secs_f64());
        }
        // the fence came from an unchecksummed footer: the block it leads
        // to must be the one it describes
        let keys = |r: Option<&AtomRecord>| r.map(|r| r.key);
        if (keys(records.first()), keys(records.last())) != (Some(fence.first), Some(fence.last))
            || records.iter().any(|r| r.ncomp != self.ncomp)
        {
            return Err(StorageError::Corrupt {
                file: self.path.clone(),
                detail: format!("block {idx} disagrees with its fence"),
            });
        }
        Ok(DecodedBlock {
            records: Arc::new(records),
            disk_len: fence.len,
            logical_len: meta.logical_bytes,
        })
    }

    /// All records with `lo <= key <= hi`, in key order.
    pub fn scan_range(
        &self,
        lo: AtomKey,
        hi: AtomKey,
        session: &mut IoSession,
    ) -> StorageResult<Vec<AtomRecord>> {
        if lo > hi {
            return Ok(Vec::new());
        }
        // first block whose last key >= lo
        let start = self.fences.partition_point(|f| f.last < lo);
        let mut out = Vec::new();
        for (idx, fence) in self.fences.iter().enumerate().skip(start) {
            if fence.first > hi {
                break;
            }
            let block = self.read_block(idx, *fence, session)?;
            // records are key-sorted: the matches are one contiguous run
            let from = block.records.partition_point(|r| r.key < lo);
            let to = block.records.partition_point(|r| r.key <= hi);
            out.extend_from_slice(block.records.get(from..to).unwrap_or_default());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultRule;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use tdb_zorder::ATOM_POINTS;

    fn rec(ts: u32, z: u64) -> AtomRecord {
        let data = (0..ATOM_POINTS)
            .map(|i| (i as f32) + (ts as f32) * 1000.0 + z as f32)
            .collect();
        AtomRecord::new(AtomKey::new(ts, z), 1, data).unwrap()
    }

    fn write_records(
        path: PathBuf,
        codec: CompressionConfig,
        records: impl IntoIterator<Item = AtomRecord>,
    ) -> PathBuf {
        let mut w = PartitionWriter::create_with(path, 1, codec).unwrap();
        for r in records {
            w.append(r).unwrap();
        }
        w.finish().unwrap()
    }

    fn write_partition(dir: &Path, name: &str, keys: &[(u32, u64)]) -> PathBuf {
        let records = keys.iter().map(|&(ts, z)| rec(ts, z));
        write_records(dir.join(name), CompressionConfig::default(), records)
    }

    fn open_with(path: &Path, pool: Arc<BlockCache>) -> StorageResult<PartitionReader> {
        let mut reg = crate::device::DeviceRegistry::new();
        let dev = reg.register(crate::device::DeviceProfile::hdd_array());
        PartitionReader::open(path, 1, dev, pool)
    }

    fn open_at(path: &Path) -> StorageResult<PartitionReader> {
        open_with(path, Arc::new(BlockCache::new(1 << 22)))
    }

    fn build(dir: &Path, keys: &[(u32, u64)]) -> PartitionReader {
        open_at(&write_partition(dir, "part_0.tdb", keys)).unwrap()
    }

    fn tmpdir(tag: &str) -> crate::TestDir {
        crate::TestDir::new(&format!("sstable_{tag}"))
    }

    #[test]
    fn write_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let keys: Vec<(u32, u64)> = (0u32..50)
            .map(|i| (i / 25, u64::from(i % 25) * 2))
            .collect();
        let r = build(&dir, &keys);
        assert!(r.num_blocks() >= 2, "multi-block file expected");
        let mut s = IoSession::new();
        let all = r
            .scan_range(AtomKey::new(0, 0), AtomKey::new(9, u64::MAX), &mut s)
            .unwrap();
        assert_eq!(all.len(), 50);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
        assert!(s.total_bytes() > 0);
    }

    #[test]
    fn range_scan_is_selective() {
        let dir = tmpdir("selective");
        let keys: Vec<(u32, u64)> = (0u32..200).map(|i| (0, u64::from(i) * 3)).collect();
        let r = build(&dir, &keys);
        let mut s = IoSession::new();
        let hit = r
            .scan_range(AtomKey::new(0, 30), AtomKey::new(0, 60), &mut s)
            .unwrap();
        assert_eq!(hit.len(), 11); // z = 30,33,...,60
                                   // selective scan touches few blocks
        assert!(s.pool_misses < r.num_blocks() as u64);
        let empty = r
            .scan_range(AtomKey::new(5, 0), AtomKey::new(5, 10), &mut s)
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn buffer_pool_absorbs_repeat_scans() {
        let dir = tmpdir("pool");
        let keys: Vec<(u32, u64)> = (0u32..60).map(|i| (0, u64::from(i))).collect();
        let r = build(&dir, &keys);
        let mut s1 = IoSession::new();
        r.scan_range(AtomKey::new(0, 0), AtomKey::new(0, 59), &mut s1)
            .unwrap();
        assert!(s1.pool_misses > 0);
        let mut s2 = IoSession::new();
        r.scan_range(AtomKey::new(0, 0), AtomKey::new(0, 59), &mut s2)
            .unwrap();
        assert_eq!(s2.pool_misses, 0, "second scan should be all pool hits");
        assert_eq!(s2.total_bytes(), 0);
    }

    #[test]
    fn fetched_records_outlive_eviction_and_clear() {
        let dir = tmpdir("views");
        let keys: Vec<(u32, u64)> = (0u32..200).map(|i| (0, u64::from(i))).collect();
        let path = write_partition(&dir, "part_v.tdb", &keys);
        // room for two of the seven blocks
        let pool = Arc::new(BlockCache::new(2 * TARGET_BLOCK_BYTES + 4096));
        let r = open_with(&path, Arc::clone(&pool)).unwrap();
        let per_block = TARGET_BLOCK_BYTES.div_ceil(AtomRecord::encoded_len(1));
        let mut s = IoSession::new();
        let held = r
            .scan_range(AtomKey::new(0, 0), AtomKey::new(0, 39), &mut s)
            .unwrap();
        assert_eq!(s.pool_misses, 2);
        // the budget is charged the decoded footprint of the whole blocks
        assert_eq!(
            pool.used_bytes(),
            2 * per_block * AtomRecord::encoded_len(1)
        );
        // push both blocks out, then drop everything else too
        r.scan_range(AtomKey::new(0, 64), AtomKey::new(0, 199), &mut s)
            .unwrap();
        let mut again = IoSession::new();
        r.scan_range(AtomKey::new(0, 0), AtomKey::new(0, 0), &mut again)
            .unwrap();
        assert_eq!(again.pool_misses, 1, "block 0 must have been evicted");
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.used_bytes(), 0);
        // the views still read the samples they were handed
        assert_eq!(held.len(), 40);
        for (r, &(ts, z)) in held.iter().zip(&keys) {
            assert_eq!(r, &rec(ts, z));
        }
    }

    #[test]
    fn writer_rejects_out_of_order_and_schema() {
        let dir = tmpdir("order");
        let mut w = PartitionWriter::create(dir.join("p.tdb"), 1).unwrap();
        w.append(rec(0, 5)).unwrap();
        assert!(matches!(
            w.append(rec(0, 5)),
            Err(StorageError::KeyOrder { .. })
        ));
        assert!(matches!(
            w.append(rec(0, 3)),
            Err(StorageError::KeyOrder { .. })
        ));
        let bad = AtomRecord::new(AtomKey::new(0, 9), 3, vec![0.0; 3 * ATOM_POINTS]).unwrap();
        assert!(matches!(
            w.append(bad),
            Err(StorageError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_footer_detected() {
        let dir = tmpdir("corrupt");
        let path = write_partition(&dir, "p.tdb", &[(0, 1)]);
        // flip a byte in the trailer
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 2] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(open_at(&path), Err(StorageError::Corrupt { .. })));
    }

    /// A damaged file is `Corrupt`, and the error says which file.
    fn names(err: &StorageError, path: &Path) -> bool {
        matches!(err, StorageError::Corrupt { file, .. } if *file == path.display().to_string())
    }

    #[test]
    fn forged_footer_start_is_corrupt_not_overflow() {
        let dir = tmpdir("forged_start");
        let keys: Vec<(u32, u64)> = (0u32..10).map(|i| (0, u64::from(i))).collect();
        let path = write_partition(&dir, "p.tdb", &keys);
        let mut data = std::fs::read(&path).unwrap();
        let start_at = data.len() - 12; // footer_start, then the magic
        data[start_at..start_at + 8].copy_from_slice(&(u64::MAX - 3).to_be_bytes());
        std::fs::write(&path, &data).unwrap();
        let err = open_at(&path).err().expect("the footer cannot start there");
        assert!(names(&err, &path), "{err}");
    }

    #[test]
    fn fence_disagreeing_with_its_block_is_corrupt() {
        let dir = tmpdir("forged_fence");
        let keys: Vec<(u32, u64)> = (0u32..40).map(|i| (0, u64::from(i))).collect();
        let path = write_partition(&dir, "p.tdb", &keys);
        let mut data = std::fs::read(&path).unwrap();
        // the `last` key of the first of two fences, zeroed: it equals the
        // fence's `first`, so nothing in the footer contradicts it
        let last_at = data.len() - TRAILER_LEN - 2 * FENCE_LEN + AtomKey::ENCODED_LEN;
        data[last_at..last_at + AtomKey::ENCODED_LEN].fill(0);
        std::fs::write(&path, &data).unwrap();
        let r = open_at(&path).unwrap();
        assert_eq!(r.num_blocks(), 2);
        let err = scan_all(&r).unwrap_err();
        assert!(
            names(&err, &path) && err.to_string().contains("block 0"),
            "{err}"
        );
    }

    /// 66 one-component records over two time-steps — two full blocks and
    /// a two-record tail — of libm-free bit patterns, a NaN payload each.
    fn pinned_records() -> Vec<AtomRecord> {
        (0..66u32)
            .map(|r| {
                let mut data: Vec<f32> = (0..ATOM_POINTS)
                    .map(|i| 0x3f80_0000 + (((i * 37 + r as usize * 1009) % 4096) << 8) as u32)
                    .map(f32::from_bits)
                    .collect();
                data[r as usize * 31 % ATOM_POINTS] = f32::from_bits(0x7fc0_dead ^ r);
                let key = AtomKey::new(3 + r / 40, u64::from(r % 40) << 33 | 5);
                AtomRecord::new(key, 1, data).unwrap()
            })
            .collect()
    }

    /// Keys, component counts and sample bits (the records hold NaNs).
    fn bits(records: &[AtomRecord]) -> Vec<(AtomKey, u8, Vec<u32>)> {
        records
            .iter()
            .map(|r| (r.key, r.ncomp, r.data.iter().map(|v| v.to_bits()).collect()))
            .collect()
    }

    const GOLDEN_PARTITION: &[u8] = include_bytes!("../tests/golden/partition_v1.bin");

    fn scan_all(r: &PartitionReader) -> StorageResult<Vec<AtomRecord>> {
        let (lo, hi) = (AtomKey::new(0, 0), AtomKey::new(u32::MAX, u64::MAX));
        r.scan_range(lo, hi, &mut IoSession::new())
    }

    /// Blocks, fence index and trailer together: the golden file was written
    /// by the writer as it stood before the footer went through the checked
    /// reader, and must keep coming out of, and reading back through, this one.
    #[test]
    fn partition_format_is_pinned_to_golden_bytes() {
        let dir = tmpdir("golden");
        let records = pinned_records();
        let codec = CompressionConfig::default();
        let written = write_records(dir.join("written.tdb"), codec, records.clone());
        let written = std::fs::read(written).unwrap();
        assert!(written == GOLDEN_PARTITION, "partition encoding drifted");
        let path = dir.join("golden.tdb");
        std::fs::write(&path, GOLDEN_PARTITION).unwrap();
        let r = open_at(&path).unwrap();
        assert_eq!((r.num_blocks(), r.ncomp()), (3, 1));
        assert!(bits(&scan_all(&r).unwrap()) == bits(&records));
    }

    /// Hostile footers: seeded forgeries of the golden partition's trailer
    /// and fence index, truncations and extensions of the file. `open`, a
    /// full scan and a point scan per record reproduce the original records
    /// bit for bit or fail `Corrupt` naming the file — never a panic, other
    /// or fewer records, or a read sized by a forged length — and a forgery
    /// the footer alone exposes is refused by `open` itself.
    #[test]
    fn hostile_footers_yield_corrupt_or_the_original() {
        const KEY: usize = AtomKey::ENCODED_LEN;
        let dir = tmpdir("hostile");
        let path = dir.join("hostile.tdb");
        let original = pinned_records();
        let want = bits(&original);
        let total = GOLDEN_PARTITION.len();
        let trailer_at = total - TRAILER_LEN;
        let nfences = 3;
        let footer_at = trailer_at - nfences * FENCE_LEN;
        let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        // overwrites the big-endian field of `width` bytes at `at` with
        // zero, its neighbours, the largest value, `extra` or noise
        let forge = |bad: &mut [u8], rng: &mut TestRng, at: usize, width: usize, extra: u64| {
            let max = u64::MAX >> (64 - 8 * width);
            let old = bad[at..at + width]
                .iter()
                .fold(0, |v, &b| v << 8 | u64::from(b));
            let forged = match rng.below(6) {
                0 => 0,
                1 => old.wrapping_add(1) & max,
                2 => old.wrapping_sub(1) & max,
                3 => max,
                4 => extra,
                _ => rng.next_u64() & max,
            };
            bad[at..at + width].copy_from_slice(&forged.to_be_bytes()[8 - width..]);
        };
        let mut rng = TestRng::deterministic("hostile_footers", 0);
        for case in 0..3250usize {
            let mut bad = GOLDEN_PARTITION.to_vec();
            let fence_at = footer_at + pick(&mut rng, nfences) * FENCE_LEN;
            match case % 13 {
                // 0..=4 may leave a footer that is consistent in itself
                // (noise can land on anything; ordered keys that are not
                // the block's, and a component count, only the blocks can
                // contradict): the rest `open` itself must refuse
                0 => bad[footer_at + pick(&mut rng, total - footer_at)] ^= 1 << rng.below(8),
                1 => {
                    for _ in 0..=rng.below(16) {
                        bad[footer_at + pick(&mut rng, total - footer_at)] = rng.next_u64() as u8;
                    }
                }
                2 => bad.extend((0..=rng.below(64)).map(|_| rng.next_u64() as u8)),
                3 => bad[trailer_at + 4] = 2 + rng.below(254) as u8, // ncomp
                // `last` := `first` or the reverse, hiding a block's records
                4 => {
                    let (from, to) = [(0, KEY), (KEY, 0)][pick(&mut rng, 2)];
                    bad.copy_within(fence_at + from..fence_at + from + KEY, fence_at + to);
                }
                // cut at every byte of the footer, then anywhere
                5 => bad.truncate(match footer_at + case / 13 {
                    cut if cut < total => cut,
                    _ => pick(&mut rng, total),
                }),
                6 => forge(&mut bad, &mut rng, trailer_at, 4, 1), // nfences
                7 => forge(&mut bad, &mut rng, trailer_at + 5, 8, u64::MAX - 3), // footer_start
                8 => bad[total - 4 + pick(&mut rng, 4)] ^= 1 << rng.below(8), // magic
                9 => forge(&mut bad, &mut rng, fence_at + 2 * KEY, 8, 1 << 63), // offset
                10 => forge(&mut bad, &mut rng, fence_at + 2 * KEY + 8, 4, 11), // len
                // keys out of order within a fence, or from fence to fence
                11 => match rng.below(3) {
                    0 => {
                        let (first, last) = bad[fence_at..fence_at + 2 * KEY].split_at_mut(KEY);
                        first.swap_with_slice(last);
                    }
                    1 => {
                        bad.copy_within(footer_at + KEY..footer_at + 2 * KEY, footer_at + FENCE_LEN)
                    }
                    _ => bad[footer_at + FENCE_LEN..footer_at + FENCE_LEN + KEY].fill(0),
                },
                // two fences swapped, or the first block too short to be
                // one, the second making up the difference
                _ => match rng.below(2) {
                    0 => {
                        let (a, b) =
                            bad[footer_at..footer_at + 2 * FENCE_LEN].split_at_mut(FENCE_LEN);
                        a.swap_with_slice(b);
                    }
                    _ => {
                        let short = rng.below(12);
                        let rest = 2 * (32 * 2061 + 12) - short;
                        let at = footer_at + 2 * KEY + 8; // len, then the next fence
                        bad[at..at + 4].copy_from_slice(&(short as u32).to_be_bytes());
                        bad[at + 28..at + 36].copy_from_slice(&short.to_be_bytes());
                        bad[at + 36..at + 40].copy_from_slice(&(rest as u32).to_be_bytes());
                    }
                },
            }
            std::fs::write(&path, &bad).unwrap();
            let opened = open_at(&path);
            assert!(
                opened.is_err() || case % 13 < 5 || bad == GOLDEN_PARTITION,
                "case {case}: open believed a footer that contradicts itself"
            );
            let outcome = opened.and_then(|r| {
                // no block read is sized beyond the file
                assert!(r.fences.iter().all(|f| f.len as usize <= bad.len()));
                assert!(bits(&scan_all(&r)?) == want, "case {case}: other records");
                assert_eq!(r.ncomp(), 1, "case {case}: other component count");
                for (rec, want) in original.iter().zip(&want) {
                    let one = bits(&r.scan_range(rec.key, rec.key, &mut IoSession::new())?);
                    assert!(
                        one == std::slice::from_ref(want),
                        "case {case}: {:?} lost",
                        rec.key
                    );
                }
                Ok(())
            });
            assert!(
                outcome.map_or_else(|e| names(&e, &path), |()| true),
                "case {case}"
            );
        }
    }

    fn build_faulted(dir: &Path, keys: &[(u32, u64)], plan: Arc<FaultPlan>) -> PartitionReader {
        let pool = Arc::new(BlockCache::with_faults(1 << 20, Some(plan)));
        open_with(&write_partition(dir, "part_f.tdb", keys), pool).unwrap()
    }

    #[test]
    fn transient_faults_retry_to_byte_identical_scan() {
        let dir = tmpdir("transient");
        let keys: Vec<(u32, u64)> = (0u32..200).map(|i| (0, u64::from(i))).collect();
        // p = 0.4 per attempt: a block only fails outright if three
        // consecutive rolls fire (6.4%); seed 66 clears every block here.
        let plan = FaultPlan::new(66)
            .with_rule(FaultRule::transient_reads(0.4))
            .shared();
        let faulted = build_faulted(&dir, &keys, plan.clone());
        let clean = build(&dir, &keys);
        let lo = AtomKey::new(0, 0);
        let hi = AtomKey::new(0, 199);
        let mut sf = IoSession::new();
        let got = faulted.scan_range(lo, hi, &mut sf).unwrap();
        let mut sc = IoSession::new();
        let want = clean.scan_range(lo, hi, &mut sc).unwrap();
        assert_eq!(got, want, "retried scan must be byte-identical");
        assert!(plan.counts().transient > 0, "some faults must have fired");
        assert!(
            sf.injected_delay_s > 0.0,
            "retry backoff must show up in the modelled time"
        );
    }

    #[test]
    fn exhausted_retries_surface_a_transient_error() {
        let dir = tmpdir("exhausted");
        let keys: Vec<(u32, u64)> = (0u32..10).map(|i| (0, u64::from(i))).collect();
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::transient_reads(1.0))
            .shared();
        let r = build_faulted(&dir, &keys, plan);
        let mut s = IoSession::new();
        let e = r
            .scan_range(AtomKey::new(0, 0), AtomKey::new(0, 9), &mut s)
            .unwrap_err();
        assert!(e.is_transient(), "error class survives retry exhaustion");
        assert!(e.to_string().contains("block_read"), "{e}");
    }

    #[test]
    fn injected_corruption_names_the_file_and_block() {
        let dir = tmpdir("injcorrupt");
        let keys: Vec<(u32, u64)> = (0u32..10).map(|i| (0, u64::from(i))).collect();
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::corrupt_block(1, 0))
            .shared();
        let r = build_faulted(&dir, &keys, plan);
        let mut s = IoSession::new();
        let e = r
            .scan_range(AtomKey::new(0, 0), AtomKey::new(0, 9), &mut s)
            .unwrap_err();
        assert!(matches!(e, StorageError::Corrupt { .. }));
        let msg = e.to_string();
        assert!(
            msg.contains("part_f.tdb") && msg.contains("block 0"),
            "{msg}"
        );
    }

    #[test]
    fn latency_faults_charge_modelled_delay_only() {
        let dir = tmpdir("latency");
        let keys: Vec<(u32, u64)> = (0u32..50).map(|i| (0, u64::from(i))).collect();
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::slow_reads(1.0, 0.01))
            .shared();
        let r = build_faulted(&dir, &keys, plan);
        let mut s = IoSession::new();
        let got = r
            .scan_range(AtomKey::new(0, 0), AtomKey::new(0, 49), &mut s)
            .unwrap();
        assert_eq!(got.len(), 50, "latency faults never lose data");
        let expected = 0.01 * s.pool_misses as f64;
        assert!(
            (s.injected_delay_s - expected).abs() < 1e-9,
            "one delay per faulted miss: {} vs {expected}",
            s.injected_delay_s
        );
        // pool hits skip the plan entirely
        let mut s2 = IoSession::new();
        r.scan_range(AtomKey::new(0, 0), AtomKey::new(0, 49), &mut s2)
            .unwrap();
        assert_eq!(s2.injected_delay_s, 0.0);
    }

    // Smooth in lattice coordinates, matching the sub-sampled spatial codec.
    fn smooth_rec(ts: u32, zidx: u64) -> AtomRecord {
        let data = (0..ATOM_POINTS)
            .map(|i| {
                let (x, y, z) = (i % 8, (i / 8) % 8, i / 64);
                let phase = zidx as f64 * 0.05 + ts as f64 * 0.1;
                ((x as f64 * 0.25 + phase).sin() * (y as f64 * 0.2).cos() + 0.1 * z as f64) as f32
            })
            .collect();
        AtomRecord::new(AtomKey::new(ts, zidx), 1, data).unwrap()
    }

    fn build_codec(
        dir: &Path,
        name: &str,
        keys: &[(u32, u64)],
        codec: CompressionConfig,
    ) -> PartitionReader {
        let records = keys.iter().map(|&(ts, z)| smooth_rec(ts, z));
        open_at(&write_records(
            dir.join(format!("{name}.tdb")),
            codec,
            records,
        ))
        .unwrap()
    }

    #[test]
    fn lossless_partition_scan_is_bitwise_identical_and_charges_fewer_bytes() {
        let dir = tmpdir("lossless");
        let keys: Vec<(u32, u64)> = (0u32..120).map(|i| (0, u64::from(i))).collect();
        let clean = build_codec(&dir, "clean", &keys, CompressionConfig::default());
        let comp = build_codec(&dir, "lossless", &keys, CompressionConfig::lossless());
        let lo = AtomKey::new(0, 0);
        let hi = AtomKey::new(0, 119);
        let mut sc = IoSession::new();
        let want = clean.scan_range(lo, hi, &mut sc).unwrap();
        let mut sf = IoSession::new();
        let got = comp.scan_range(lo, hi, &mut sf).unwrap();
        assert_eq!(got.len(), want.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.key, b.key);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(
            sf.total_bytes() < sc.total_bytes(),
            "compressed cold scan must move fewer device bytes: {} vs {}",
            sf.total_bytes(),
            sc.total_bytes()
        );
    }

    #[test]
    fn lossy_partition_scan_stays_within_bound_and_beats_4x() {
        let dir = tmpdir("lossy");
        let keys: Vec<(u32, u64)> = (0u32..120).map(|i| (0, u64::from(i))).collect();
        let bound = 1e-3;
        let clean = build_codec(&dir, "clean4x", &keys, CompressionConfig::default());
        let comp = build_codec(&dir, "lossy4x", &keys, CompressionConfig::lossy(2, bound));
        let lo = AtomKey::new(0, 0);
        let hi = AtomKey::new(0, 119);
        let mut sc = IoSession::new();
        let want = clean.scan_range(lo, hi, &mut sc).unwrap();
        let mut sf = IoSession::new();
        let got = comp.scan_range(lo, hi, &mut sf).unwrap();
        assert_eq!(got.len(), want.len());
        for (a, b) in want.iter().zip(&got) {
            for (x, y) in a.data.iter().zip(&b.data) {
                assert!((f64::from(*x) - f64::from(*y)).abs() <= bound);
            }
        }
        assert!(
            sf.total_bytes() * 4 <= sc.total_bytes(),
            "lossy cold scan must move ≥4× fewer device bytes: {} vs {}",
            sf.total_bytes(),
            sc.total_bytes()
        );
    }

    #[test]
    fn transient_faults_on_compressed_partition_retry_byte_identical() {
        let dir = tmpdir("comp_transient");
        let keys: Vec<(u32, u64)> = (0u32..150).map(|i| (0, u64::from(i))).collect();
        let plan = FaultPlan::new(66)
            .with_rule(FaultRule::transient_reads(0.4))
            .shared();
        let records = keys.iter().map(|&(ts, z)| smooth_rec(ts, z));
        let path = write_records(
            dir.join("comp_f.tdb"),
            CompressionConfig::lossless(),
            records,
        );
        let pool = Arc::new(BlockCache::with_faults(1 << 22, Some(plan.clone())));
        let faulted = open_with(&path, pool).unwrap();
        let clean = build_codec(&dir, "comp_c", &keys, CompressionConfig::lossless());
        let lo = AtomKey::new(0, 0);
        let hi = AtomKey::new(0, 149);
        let mut sf = IoSession::new();
        let got = faulted.scan_range(lo, hi, &mut sf).unwrap();
        let mut sc = IoSession::new();
        let want = clean.scan_range(lo, hi, &mut sc).unwrap();
        assert_eq!(got, want, "retried compressed scan must be byte-identical");
        assert!(plan.counts().transient > 0, "some faults must have fired");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn scan_matches_reference_model(
            zs in prop::collection::btree_set(0u64..500, 1..80),
            lo in 0u64..500, span in 0u64..500,
        ) {
            let dir = tmpdir("prop");
            let keys: Vec<(u32, u64)> = zs.iter().map(|&z| (0, z)).collect();
            let r = build(&dir, &keys);
            let hi = lo.saturating_add(span);
            let mut s = IoSession::new();
            let got: Vec<u64> = r
                .scan_range(AtomKey::new(0, lo), AtomKey::new(0, hi), &mut s)
                .unwrap()
                .into_iter()
                .map(|rec| rec.key.zindex)
                .collect();
            let expect: Vec<u64> = zs.iter().copied().filter(|&z| z >= lo && z <= hi).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
