//! Atom records: the unit the database stores.
//!
//! "Each time-step is spatially subdivided into database atoms, which are
//! of size 8³. Each such atom is indexed by the time-step ... and by the
//! Morton code of its lower left corner. This combination of index and data
//! forms a record in the database." (paper §2)
//!
//! The byte encoding of records belongs to the block codec
//! ([`crate::block`]): a block decodes into one sample buffer, and the
//! records it yields are keys plus [`AtomData`] views into that buffer.

use std::ops::{Deref, Range};
use std::sync::Arc;

use tdb_zorder::ATOM_POINTS;

use crate::error::{StorageError, StorageResult};

/// Clustered-index key of an atom record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomKey {
    pub timestep: u32,
    pub zindex: u64,
}

impl AtomKey {
    /// Creates a key.
    pub fn new(timestep: u32, zindex: u64) -> Self {
        Self { timestep, zindex }
    }

    /// Encoded size in bytes.
    pub const ENCODED_LEN: usize = 12;

    /// The key encoding (big-endian so byte order = key order).
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        let (timestep, zindex) = out.split_at_mut(4);
        timestep.copy_from_slice(&self.timestep.to_be_bytes());
        zindex.copy_from_slice(&self.zindex.to_be_bytes());
        out
    }

    /// Decodes a key.
    pub fn decode(bytes: [u8; Self::ENCODED_LEN]) -> AtomKey {
        let [a, b, c, d, zindex @ ..] = bytes;
        AtomKey {
            timestep: u32::from_be_bytes([a, b, c, d]),
            zindex: u64::from_be_bytes(zindex),
        }
    }
}

/// The samples of one record: an immutable view into a buffer shared by
/// every record decoded from the same block. Cloning bumps a refcount,
/// so an atom's data is copied once on its way from the buffer pool to a
/// padded cube; a view keeps its block's buffer alive past eviction.
#[derive(Clone)]
pub struct AtomData {
    buf: Arc<Vec<f32>>,
    span: Range<usize>,
}

impl AtomData {
    /// The view of `span` within a block's decoded buffer.
    pub(crate) fn view(buf: &Arc<Vec<f32>>, span: Range<usize>) -> Self {
        debug_assert!(span.start <= span.end && span.end <= buf.len());
        Self {
            buf: Arc::clone(buf),
            span,
        }
    }
}

impl From<Vec<f32>> for AtomData {
    fn from(samples: Vec<f32>) -> Self {
        let span = 0..samples.len();
        Self {
            buf: Arc::new(samples),
            span,
        }
    }
}

impl Deref for AtomData {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        // in range by construction: `view` is handed spans the decoder
        // just filled, `from` spans the whole buffer
        self.buf.get(self.span.clone()).unwrap_or(&[])
    }
}

impl<'a> IntoIterator for &'a AtomData {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for AtomData {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for AtomData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One atom record: key plus `ncomp` planes of 512 `f32` samples
/// (component-major, x-fastest within each plane).
#[derive(Debug, Clone, PartialEq)]
pub struct AtomRecord {
    pub key: AtomKey,
    pub ncomp: u8,
    pub data: AtomData,
}

impl AtomRecord {
    /// Builds a record, validating the payload length.
    pub fn new(key: AtomKey, ncomp: u8, data: Vec<f32>) -> StorageResult<Self> {
        if data.len() != usize::from(ncomp) * ATOM_POINTS {
            return Err(StorageError::SchemaMismatch {
                expected_ncomp: ncomp,
                got_ncomp: (data.len() / ATOM_POINTS) as u8,
            });
        }
        Ok(Self {
            key,
            ncomp,
            data: data.into(),
        })
    }

    /// Encoded size in bytes for a given component count.
    pub fn encoded_len(ncomp: u8) -> usize {
        AtomKey::ENCODED_LEN + 1 + usize::from(ncomp) * ATOM_POINTS * 4
    }

    /// Component plane `c` of the payload (empty for `c >= ncomp`, so a
    /// schema mix-up surfaces as missing data rather than a panic in the
    /// query path).
    pub fn plane(&self, c: usize) -> &[f32] {
        self.data
            .get(c * ATOM_POINTS..(c + 1) * ATOM_POINTS)
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{checksum, decode_block_meta, encode_block};
    use proptest::prelude::*;

    #[test]
    fn key_order_matches_encoding_order() {
        let keys = [
            AtomKey::new(0, 5),
            AtomKey::new(0, 6),
            AtomKey::new(1, 0),
            AtomKey::new(1, u64::MAX),
            AtomKey::new(2, 0),
        ];
        let mut encoded: Vec<_> = keys.iter().map(AtomKey::encode).collect();
        assert!(encoded.iter().map(|&e| AtomKey::decode(e)).eq(keys));
        let sorted = encoded.clone();
        encoded.sort();
        assert_eq!(encoded, sorted, "big-endian encoding must sort like keys");
    }

    #[test]
    fn record_roundtrip() {
        let data: Vec<f32> = (0..3 * ATOM_POINTS).map(|i| i as f32 * 0.5).collect();
        let r = AtomRecord::new(AtomKey::new(7, 12345), 3, data).unwrap();
        let blk = encode_block(std::slice::from_ref(&r));
        assert_eq!(blk.len(), AtomRecord::encoded_len(3) + 12);
        assert_eq!(decode_block_meta(blk, "t").unwrap().0, vec![r]);
    }

    #[test]
    fn new_rejects_wrong_payload_length() {
        let err = AtomRecord::new(AtomKey::new(0, 0), 3, vec![0.0; ATOM_POINTS]).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn decode_rejects_truncation() {
        // a block whose CRC is right but whose only record stops short
        let r = AtomRecord::new(AtomKey::new(1, 2), 1, vec![1.0; ATOM_POINTS]).unwrap();
        let blk = encode_block(&[r]);
        let mut cut = blk[..8 + 40].to_vec();
        cut.extend_from_slice(&checksum(&cut).to_be_bytes());
        let err = decode_block_meta(cut, "f").unwrap_err();
        assert!(
            err.to_string().contains("truncated record payload"),
            "{err}"
        );
    }

    #[test]
    fn plane_extracts_components() {
        let mut data = vec![0.0f32; 2 * ATOM_POINTS];
        data[ATOM_POINTS] = 9.0;
        let r = AtomRecord::new(AtomKey::new(0, 0), 2, data).unwrap();
        assert_eq!(r.plane(1)[0], 9.0);
        assert_eq!(r.plane(0)[0], 0.0);
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(ts in any::<u32>(), z in any::<u64>(),
                               ncomp in 1u8..=4,
                               seed in any::<u32>()) {
            let n = usize::from(ncomp) * ATOM_POINTS;
            let data: Vec<f32> = (0..n).map(|i| ((i as u32).wrapping_mul(seed)) as f32).collect();
            let r = AtomRecord::new(AtomKey::new(ts, z), ncomp, data).unwrap();
            let blk = encode_block(std::slice::from_ref(&r));
            prop_assert_eq!(decode_block_meta(blk, "t").unwrap().0, vec![r]);
        }
    }
}
