//! Checksummed block encoding.
//!
//! Partition files are written and read in blocks of roughly
//! [`TARGET_BLOCK_BYTES`]. Every block carries a CRC-32 so corruption is
//! detected on read rather than propagated into query answers.
//!
//! Two block formats share the CRC framing and are told apart by magic:
//!
//! * **V1** (`magic | nrec | raw records | crc`) — the seed format,
//!   written whenever compression is off; byte-identical to before the
//!   compression tier existed.
//! * **V2** (`magic2 | nrec | compressed records | crc`) — each record is
//!   `key | ncomp | per-plane (u32 length + self-describing codec
//!   payload)`; the codec id byte inside each plane payload makes blocks
//!   self-describing, so readers need no table-level configuration
//!   (DESIGN.md §10).
//!
//! Every block miss of a cold query runs through here, so the path is
//! built to move bytes at memory speed: the CRC is table-driven
//! (slicing, sixteen bytes a step), and a block decodes into **one**
//! contiguous `f32` buffer — raw payloads converted in bulk, V2 planes
//! reconstructed straight into their slice of it — which its records
//! then share as [`AtomData`] views.

use std::sync::Arc;

use tdb_compress::varint::take;
use tdb_compress::{decode_plane_into, encode_plane, CompressionConfig};
use tdb_zorder::ATOM_POINTS;

use crate::error::{StorageError, StorageResult};
use crate::record::{AtomData, AtomKey, AtomRecord};

/// Target on-disk block size. Atoms are ~6 KiB (3 components), so a block
/// holds on the order of ten records — large enough to amortise a seek,
/// small enough for selective range scans.
pub const TARGET_BLOCK_BYTES: usize = 64 * 1024;

const BLOCK_MAGIC: u32 = 0x7db1_0c0d;
/// Magic of compressed (V2) blocks.
const BLOCK_MAGIC_V2: u32 = 0x7db2_0c0d;

/// Bytes of a record before its samples: key, then the component count.
const RECORD_HEADER_LEN: usize = AtomKey::ENCODED_LEN + 1;

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slicing lookup tables: `[0]` is the classic byte-at-a-time table,
/// `[k]` advances a byte that is followed by `k` more bytes of the step.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

// indexed by loop counters bounded by the array lengths, and evaluated at
// compile time: an out-of-range index cannot reach a query
#[allow(clippy::indexing_slicing)]
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// XOR of the table entries for the eight bytes of `word`, the lowest
/// byte being followed by `AFTER + 7` more bytes of the step.
#[inline(always)]
#[allow(clippy::indexing_slicing)] // AFTER + 7 - i < 16 and a u8 indexes 256 entries
fn crc_fold<const AFTER: usize>(word: u64) -> u32 {
    let mut acc = 0;
    for (i, byte) in word.to_le_bytes().into_iter().enumerate() {
        acc ^= CRC_TABLES[AFTER + 7 - i][usize::from(byte)];
    }
    acc
}

/// CRC-32 (IEEE 802.3, reflected) over `data`, sixteen bytes per step.
pub fn checksum(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    let mut steps = data.chunks_exact(16);
    for step in &mut steps {
        let Ok(step) = <[u8; 16]>::try_from(step) else {
            continue; // chunks_exact(16) yields only 16-byte slices
        };
        let step = u128::from_le_bytes(step);
        crc = crc_fold::<8>(step as u64 ^ u64::from(crc)) ^ crc_fold::<0>((step >> 64) as u64);
    }
    #[allow(clippy::indexing_slicing)] // a u8 indexes 256 entries
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// Encoder-side stats of one block, aggregated into the `compress.*`
/// metrics by the partition writer.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockCodecStats {
    /// Bytes the records occupy decoded (the V1 encoding size).
    pub logical_bytes: u64,
    /// Bytes the block occupies on disk.
    pub stored_bytes: u64,
    /// Sparse corrections across all planes (lossy codec only).
    pub corrections: u64,
    /// Worst uncorrected reconstruction error across all planes.
    pub max_error: f64,
}

/// Decoder-side facts about a block, reported by
/// [`decode_block_meta`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockMeta {
    /// Whether the block was stored in the compressed (V2) format.
    pub compressed: bool,
    /// Bytes the decoded records occupy in memory (the buffer-pool
    /// weight of the block).
    pub logical_bytes: u64,
}

fn logical_bytes(records: &[AtomRecord]) -> u64 {
    records
        .iter()
        .map(|r| AtomRecord::encoded_len(r.ncomp) as u64)
        .sum()
}

/// Appends `samples` as little-endian bytes, a plane-sized run at a time.
fn put_f32s_le(out: &mut Vec<u8>, samples: &[f32]) {
    let mut buf = [0u8; ATOM_POINTS * 4];
    for run in samples.chunks(ATOM_POINTS) {
        let (bytes, _) = buf.split_at_mut(run.len() * 4);
        for (b, v) in bytes.chunks_exact_mut(4).zip(run) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(bytes);
    }
}

/// Appends the little-endian `f32`s in `bytes` (a multiple of 4 long).
fn extend_f32s_le(out: &mut Vec<f32>, bytes: &[u8]) {
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(<[u8; 4]>::try_from(c).unwrap_or_default())),
    );
}

/// Serialises records into one V1 block: `magic | nrec | payload | crc`.
pub fn encode_block(records: &[AtomRecord]) -> Arc<[u8]> {
    let mut out = Vec::with_capacity(logical_bytes(records) as usize + 12);
    out.extend_from_slice(&BLOCK_MAGIC.to_be_bytes());
    out.extend_from_slice(&(records.len() as u32).to_be_bytes());
    for r in records {
        out.extend_from_slice(&r.key.encode());
        out.push(r.ncomp);
        put_f32s_le(&mut out, &r.data);
    }
    seal(out)
}

/// Appends the CRC of `out` and freezes it into the shared buffer blocks
/// travel in (an O(1) clone).
fn seal(mut out: Vec<u8>) -> Arc<[u8]> {
    let crc = checksum(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out.into()
}

/// Serialises records under `codec`. [`CompressionMode::Off`] delegates
/// to [`encode_block`], keeping the seed format byte-identical; active
/// codecs write a V2 block whose planes are self-describing compressed
/// payloads.
///
/// [`CompressionMode::Off`]: tdb_compress::CompressionMode::Off
pub fn encode_block_with(
    records: &[AtomRecord],
    codec: &CompressionConfig,
) -> (Arc<[u8]>, BlockCodecStats) {
    let mut stats = BlockCodecStats {
        logical_bytes: logical_bytes(records),
        ..Default::default()
    };
    if !codec.is_active() {
        let blk = encode_block(records);
        stats.stored_bytes = blk.len() as u64;
        return (blk, stats);
    }
    let mut out = Vec::new();
    out.extend_from_slice(&BLOCK_MAGIC_V2.to_be_bytes());
    out.extend_from_slice(&(records.len() as u32).to_be_bytes());
    for r in records {
        out.extend_from_slice(&r.key.encode());
        out.push(r.ncomp);
        for c in 0..usize::from(r.ncomp) {
            let enc = encode_plane(codec, r.plane(c));
            stats.corrections += enc.corrections as u64;
            stats.max_error = stats.max_error.max(enc.max_error);
            out.extend_from_slice(&(enc.bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&enc.bytes);
        }
    }
    let blk = seal(out);
    stats.stored_bytes = blk.len() as u64;
    (blk, stats)
}

/// Decodes a block (either format) from the bytes as read from the
/// device, also reporting which format it was and its decoded footprint.
/// The CRC is verified once, before anything else is believed; every
/// length the block then declares is checked against the bytes actually
/// present before it sizes an allocation.
pub fn decode_block_meta(
    data: impl AsRef<[u8]>,
    file: &str,
) -> StorageResult<(Vec<AtomRecord>, BlockMeta)> {
    let data = data.as_ref();
    let corrupt = |detail: String| StorageError::Corrupt {
        file: file.into(),
        detail,
    };
    let short = |_| corrupt("block shorter than header".into());
    let (mut payload, mut tail) = data.split_at(data.len().saturating_sub(4));
    let crc = take(&mut tail).map(u32::from_be_bytes).map_err(short)?;
    if checksum(payload) != crc {
        return Err(corrupt("crc mismatch".into()));
    }
    let compressed = match take(&mut payload).map(u32::from_be_bytes).map_err(short)? {
        BLOCK_MAGIC => false,
        BLOCK_MAGIC_V2 => true,
        other => return Err(corrupt(format!("bad magic {other:#x}"))),
    };
    let nrec = take(&mut payload).map(u32::from_be_bytes).map_err(short)? as usize;
    if nrec > payload.len() / RECORD_HEADER_LEN {
        return Err(corrupt(format!(
            "{nrec} records cannot fit {} payload bytes",
            payload.len()
        )));
    }
    // raw samples take four payload bytes each; compressed planes grow
    // the buffer as they are reconstructed
    let mut samples: Vec<f32> = Vec::with_capacity(if compressed { 0 } else { payload.len() / 4 });
    let mut heads: Vec<(AtomKey, u8)> = Vec::with_capacity(nrec);
    for _ in 0..nrec {
        let [key @ .., ncomp] = take::<RECORD_HEADER_LEN>(&mut payload)
            .map_err(|_| corrupt("truncated record header".into()))?;
        let key = AtomKey::decode(key);
        if compressed {
            decode_compressed_planes(&mut payload, key, ncomp, &mut samples).map_err(&corrupt)?;
        } else {
            let len = usize::from(ncomp) * ATOM_POINTS * 4;
            if payload.len() < len {
                return Err(corrupt(format!("truncated record payload (key {key:?})")));
            }
            let (raw, rest) = payload.split_at(len);
            extend_f32s_le(&mut samples, raw);
            payload = rest;
        }
        heads.push((key, ncomp));
    }
    if !payload.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after {nrec} records",
            payload.len()
        )));
    }
    if compressed {
        samples.shrink_to_fit();
    }
    let samples = Arc::new(samples);
    let mut at = 0;
    let records: Vec<AtomRecord> = heads
        .into_iter()
        .map(|(key, ncomp)| {
            let span = at..at + usize::from(ncomp) * ATOM_POINTS;
            at = span.end;
            AtomRecord {
                key,
                ncomp,
                data: AtomData::view(&samples, span),
            }
        })
        .collect();
    let meta = BlockMeta {
        compressed,
        logical_bytes: logical_bytes(&records),
    };
    Ok((records, meta))
}

/// The planes of one V2 record (`ncomp × (u32 length + payload)`, after
/// its header), reconstructed onto the end of `samples`.
fn decode_compressed_planes(
    payload: &mut &[u8],
    key: AtomKey,
    ncomp: u8,
    samples: &mut Vec<f32>,
) -> Result<(), String> {
    for c in 0..ncomp {
        let len = take(payload)
            .map(u32::from_le_bytes)
            .map_err(|_| format!("truncated plane {c} length (key {key:?})"))?
            as usize;
        if payload.len() < len {
            return Err(format!("truncated plane {c} payload (key {key:?})"));
        }
        let (plane, rest) = payload.split_at(len);
        *payload = rest;
        let at = samples.len();
        samples.resize(at + ATOM_POINTS, 0.0);
        let out = samples.get_mut(at..).unwrap_or_default();
        decode_plane_into(plane, out).map_err(|e| format!("plane {c} of {key:?}: {e}"))?;
    }
    Ok(())
}

/// The bit-at-a-time CRC-32 the tables are derived from, kept as the
/// reference [`checksum`] is tested against.
#[cfg(test)]
fn checksum_bitwise(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn rec(ts: u32, z: u64) -> AtomRecord {
        let data = (0..ATOM_POINTS).map(|i| (i as f32) + z as f32).collect();
        AtomRecord::new(AtomKey::new(ts, z), 1, data).unwrap()
    }

    #[test]
    fn crc32_known_vector() {
        // standard check value for "123456789"
        assert_eq!(checksum(b"123456789"), 0xcbf4_3926);
        assert_eq!(checksum(b""), 0);
    }

    proptest! {
        #[test]
        fn checksum_matches_bitwise_reference(
            bytes in prop::collection::vec(any::<u8>(), 8..4096 + 9),
        ) {
            // every start alignment within a word, lengths 0..=4096
            for align in 0..8 {
                let data = &bytes[align..bytes.len() - (8 - align)];
                prop_assert_eq!(checksum(data), checksum_bitwise(data));
            }
        }
    }

    #[test]
    fn block_roundtrip() {
        let records: Vec<_> = (0..5).map(|i| rec(2, i * 3)).collect();
        let blk = encode_block(&records);
        let back = decode_block_meta(blk, "t").unwrap().0;
        assert_eq!(back, records);
    }

    #[test]
    fn empty_block_roundtrip() {
        let blk = encode_block(&[]);
        assert!(decode_block_meta(blk, "t").unwrap().0.is_empty());
    }

    #[test]
    fn bit_flip_is_detected() {
        let records = vec![rec(0, 1), rec(0, 2)];
        let blk = encode_block(&records);
        for pos in [0usize, 5, 100, blk.len() - 1] {
            let mut bad = blk.to_vec();
            bad[pos] ^= 0x10;
            let err = decode_block_meta(bad, "f").unwrap_err();
            assert!(
                matches!(err, StorageError::Corrupt { .. }),
                "flip at {pos} not detected"
            );
        }
    }

    #[test]
    fn truncated_block_is_detected() {
        let blk = encode_block(&[rec(0, 1)]);
        assert!(decode_block_meta(&blk[..blk.len() / 2], "f").is_err());
        assert!(decode_block_meta([1, 2, 3], "f").is_err());
    }

    // Smooth in lattice coordinates (like a simulation field), not in the
    // flattened sample index — the spatial codec sub-samples per axis.
    fn smooth_rec(ts: u32, zidx: u64, ncomp: u8) -> AtomRecord {
        let data = (0..usize::from(ncomp) * ATOM_POINTS)
            .map(|i| {
                let (x, y, z) = (i % 8, (i / 8) % 8, (i / 64) % 8);
                let phase = zidx as f64 * 0.05 + (i / ATOM_POINTS) as f64;
                ((x as f64 * 0.25 + phase).sin() * (y as f64 * 0.2).cos() + 0.1 * z as f64) as f32
            })
            .collect();
        AtomRecord::new(AtomKey::new(ts, zidx), ncomp, data).unwrap()
    }

    #[test]
    fn codec_off_is_byte_identical_to_v1() {
        let records: Vec<_> = (0..4).map(|i| rec(1, i * 2)).collect();
        let (blk, stats) = encode_block_with(&records, &CompressionConfig::default());
        assert_eq!(&blk[..], &encode_block(&records)[..]);
        assert_eq!(stats.stored_bytes, blk.len() as u64);
        let (back, meta) = decode_block_meta(blk, "t").unwrap();
        assert_eq!(back, records);
        assert!(!meta.compressed);
    }

    #[test]
    fn lossless_block_roundtrips_bitwise_and_shrinks() {
        let mut records: Vec<_> = (0..6).map(|i| smooth_rec(3, i * 5, 3)).collect();
        for (i, at, v) in [(2, 17, f32::NAN), (4, 900, f32::NEG_INFINITY)] {
            let mut data = records[i].data.to_vec();
            data[at] = v;
            records[i] = AtomRecord::new(records[i].key, 3, data).unwrap();
        }
        let (blk, stats) = encode_block_with(&records, &CompressionConfig::lossless());
        assert!(stats.stored_bytes < stats.logical_bytes, "{stats:?}");
        assert_eq!(stats.corrections, 0);
        let (back, meta) = decode_block_meta(blk, "t").unwrap();
        assert!(meta.compressed);
        assert_eq!(meta.logical_bytes, stats.logical_bytes);
        assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.key, b.key);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn lossy_block_beats_4x_within_bound() {
        let records: Vec<_> = (0..8).map(|i| smooth_rec(0, i * 3, 3)).collect();
        let bound = 1e-3;
        let (blk, stats) = encode_block_with(&records, &CompressionConfig::lossy(2, bound));
        assert!(stats.max_error <= bound);
        assert!(
            stats.stored_bytes * 4 <= stats.logical_bytes,
            "ratio {:.2}",
            stats.logical_bytes as f64 / stats.stored_bytes as f64
        );
        let (back, meta) = decode_block_meta(blk, "t").unwrap();
        assert!(meta.compressed);
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.key, b.key);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert!((f64::from(*x) - f64::from(*y)).abs() <= bound);
            }
        }
    }

    #[test]
    fn compressed_bit_flip_is_detected() {
        let records: Vec<_> = (0..4).map(|i| smooth_rec(0, i, 1)).collect();
        let (blk, _) = encode_block_with(&records, &CompressionConfig::lossless());
        for pos in [0usize, 9, blk.len() / 2, blk.len() - 1] {
            let mut bad = blk.to_vec();
            bad[pos] ^= 0x04;
            assert!(
                decode_block_meta(bad, "f").is_err(),
                "flip at {pos} not detected"
            );
        }
    }

    /// Two records of fixed bit patterns (mixed component counts): a
    /// libm-free ramp with NaN payloads (quiet, negative, signalling),
    /// −0, denormals, ±Inf and ±MAX planted in it.
    fn pinned_records() -> Vec<AtomRecord> {
        const SPECIALS: [u32; 12] = [
            0x7fc0_dead,
            0xffc0_0001,
            0x7f80_0001,
            0x8000_0000,
            0x0000_0001,
            0x007f_ffff,
            0x8000_0001,
            0x7f80_0000,
            0xff80_0000,
            0x7f7f_ffff,
            0xff7f_ffff,
            0x0000_0000,
        ];
        [
            (7u32, 0x0123_4567_89ab_cdefu64, 2u8),
            (7, 0x0123_4567_89ab_cdf0, 1),
        ]
        .into_iter()
        .enumerate()
        .map(|(r, (ts, z, ncomp))| {
            let n = usize::from(ncomp) * ATOM_POINTS;
            let mut data: Vec<f32> = (0..n)
                .map(|i| f32::from_bits(0x3f80_0000 + (((i * 37 + r * 1009) % 4096) << 8) as u32))
                .collect();
            for (k, bits) in SPECIALS.into_iter().enumerate() {
                data[(k * 97 + r * 31) % n] = f32::from_bits(bits);
            }
            AtomRecord::new(AtomKey::new(ts, z), ncomp, data).unwrap()
        })
        .collect()
    }

    fn bits(records: &[AtomRecord]) -> Vec<u32> {
        records
            .iter()
            .flat_map(|r| r.data.iter().map(|v| v.to_bits()))
            .collect()
    }

    fn heads(records: &[AtomRecord]) -> Vec<(AtomKey, u8)> {
        records.iter().map(|r| (r.key, r.ncomp)).collect()
    }

    /// The on-disk format is pinned: the golden files were written by the
    /// encoder as it stood before the bulk / table-driven rewrite, and
    /// must keep coming out of, and reading back through, this one.
    #[test]
    fn block_formats_are_pinned_to_golden_bytes() {
        let records = pinned_records();
        let golden: [(&[u8], CompressionConfig); 3] = [
            (
                include_bytes!("../tests/golden/block_v1.bin"),
                CompressionConfig::default(),
            ),
            (
                include_bytes!("../tests/golden/block_v2_lossless.bin"),
                CompressionConfig::lossless(),
            ),
            (
                include_bytes!("../tests/golden/block_v2_lossy.bin"),
                CompressionConfig::lossy(2, 1e-3),
            ),
        ];
        let lossy_decoded: Vec<u32> = include_bytes!("../tests/golden/block_v2_lossy.decoded.bin")
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        for (want, codec) in golden {
            let (blk, stats) = encode_block_with(&records, &codec);
            assert_eq!(&blk[..], want, "{:?} encoding drifted", codec.mode);
            assert_eq!(stats.stored_bytes, want.len() as u64);
            let (back, meta) = decode_block_meta(want, "golden").unwrap();
            assert_eq!(meta.compressed, codec.is_active());
            assert_eq!(meta.logical_bytes, stats.logical_bytes);
            assert_eq!(heads(&back), heads(&records));
            if codec.mode == tdb_compress::CompressionMode::Lossy {
                assert_eq!(bits(&back), lossy_decoded, "lossy reconstruction drifted");
            } else {
                assert_eq!(
                    bits(&back),
                    bits(&records),
                    "{:?} not bit-exact",
                    codec.mode
                );
            }
        }
    }

    /// Replaces the trailing CRC so a mutated block gets past the
    /// checksum and its structure is what the decoder has to survive.
    fn reseal(block: &mut Vec<u8>) {
        let body = block.len().saturating_sub(4);
        block.truncate(body);
        let crc = checksum(block);
        block.extend_from_slice(&crc.to_be_bytes());
    }

    /// Hostile bytes: seeded mutations, truncations and extensions of
    /// V1 and V2 blocks. Whatever the CRC lets through is either the
    /// original records or a typed `Corrupt` naming the file — never a
    /// panic, an allocation sized by a forged count, or other data.
    #[test]
    fn hostile_blocks_yield_corrupt_or_the_original() {
        let records = pinned_records();
        let plane_len_at = 8 + RECORD_HEADER_LEN; // first V2 plane length field
        for codec in [
            CompressionConfig::default(),
            CompressionConfig::lossless(),
            CompressionConfig::lossy(2, 1e-3),
        ] {
            let (clean, _) = encode_block_with(&records, &codec);
            // what the intact block reads back as (lossy: not `records`)
            let (original, _) = decode_block_meta(clean.clone(), "hostile.tdb").unwrap();
            let mut rng = TestRng::deterministic("hostile_blocks", codec.mode as u32);
            for case in 0..3000 {
                let mut bad = clean.to_vec();
                let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
                // payload bytes are data, not structure: once resealed a
                // changed sample is simply a different valid block
                let mut structural = true;
                match case % 8 {
                    0 => {
                        let at = pick(&mut rng, bad.len());
                        bad[at] ^= 1 << rng.below(8);
                        structural = false;
                    }
                    1 => {
                        for _ in 0..=rng.below(16) {
                            let at = pick(&mut rng, bad.len());
                            bad[at] = rng.next_u64() as u8;
                        }
                        structural = false;
                    }
                    2 => bad.truncate(pick(&mut rng, bad.len())),
                    3 => {
                        let extra = 1 + rng.below(64);
                        bad.extend((0..extra).map(|_| rng.next_u64() as u8));
                    }
                    // forged record count, from off-by-one to u32::MAX
                    4 => {
                        let nrec = match rng.below(3) {
                            0 => u32::MAX,
                            1 => rng.next_u64() as u32,
                            _ => records.len() as u32 + 1 + rng.below(3) as u32,
                        };
                        bad[4..8].copy_from_slice(&nrec.to_be_bytes());
                    }
                    // forged component count of the first record
                    5 => bad[8 + AtomKey::ENCODED_LEN] = rng.next_u64() as u8,
                    // forged plane length / codec id (V2), magic (V1)
                    6 if codec.is_active() => {
                        let len = match rng.below(2) {
                            0 => u32::MAX,
                            _ => rng.next_u64() as u32,
                        };
                        bad[plane_len_at..plane_len_at + 4].copy_from_slice(&len.to_le_bytes());
                    }
                    7 if codec.is_active() => bad[plane_len_at + 4] = rng.next_u64() as u8,
                    _ => bad[pick(&mut rng, 4)] ^= 1 << rng.below(8),
                }
                // half the cases get a valid CRC back, so the parser (not
                // the checksum) has to reject them
                let resealed = rng.below(2) == 0;
                if resealed {
                    reseal(&mut bad);
                }
                match decode_block_meta(&bad, "hostile.tdb") {
                    // bitwise: the pinned records hold NaNs
                    Ok((back, _)) => assert!(
                        (heads(&back) == heads(&original) && bits(&back) == bits(&original))
                            || (resealed && !structural),
                        "case {case} ({:?}): accepted different records",
                        codec.mode
                    ),
                    Err(StorageError::Corrupt { file, .. }) => assert_eq!(file, "hostile.tdb"),
                    Err(other) => panic!("case {case}: untyped failure {other}"),
                }
            }
        }
    }
}
