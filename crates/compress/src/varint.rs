//! LEB128 varints, zigzag mapping and the fixed-width reader.
//!
//! The codecs store counts, run lengths and signed deltas as varints so
//! small magnitudes — the overwhelmingly common case on smooth simulation
//! fields — cost one byte. Both readers take a `&mut &[u8]` cursor and
//! return `Err` on a short buffer; the storage tier parses block and
//! footer fields with the same [`take`].

use crate::CodecError;

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from the front of `buf`, advancing it.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf.split_first().ok_or(CodecError::Truncated)?;
        *buf = rest;
        if shift >= 64 {
            return Err(CodecError::Invalid("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads `N` bytes from the front of `buf`, advancing it: the one way a
/// fixed-width field comes off the disk (`take(buf).map(u32::from_be_bytes)`).
/// A short buffer is an error that leaves the cursor where it was.
pub fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let head = buf.get(..N).ok_or(CodecError::Truncated)?;
    let head = <[u8; N]>::try_from(head).map_err(|_| CodecError::Truncated)?;
    *buf = buf.get(N..).unwrap_or_default();
    Ok(head)
}

/// Maps a signed value to an unsigned one with small magnitudes staying
/// small: 0, -1, 1, -2, … → 0, 1, 2, 3, …
pub fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// 64-bit [`zigzag`], for quantised-lattice and correction residuals.
pub fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag64`].
pub fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_varints() {
        let mut b = Vec::new();
        put_u64(&mut b, 0);
        put_u64(&mut b, 127);
        put_u64(&mut b, 128);
        put_u64(&mut b, u64::MAX);
        let mut s = b.as_slice();
        assert_eq!(get_u64(&mut s).unwrap(), 0);
        assert_eq!(get_u64(&mut s).unwrap(), 127);
        assert_eq!(get_u64(&mut s).unwrap(), 128);
        assert_eq!(get_u64(&mut s).unwrap(), u64::MAX);
        assert!(s.is_empty());
        assert_eq!(get_u64(&mut s), Err(CodecError::Truncated));
    }

    #[test]
    fn take_reads_exactly_n_or_nothing() {
        let mut s: &[u8] = &[1, 2, 3, 4, 5, 6, 7];
        assert_eq!(take(&mut s).map(u32::from_be_bytes), Ok(0x0102_0304));
        // short input: an error, and the cursor has not moved
        assert_eq!(take::<4>(&mut s), Err(CodecError::Truncated));
        assert_eq!(take(&mut s), Ok([5, 6, 7]));
        assert_eq!(take(&mut s), Ok([]));
        assert_eq!(take::<1>(&mut s), Err(CodecError::Truncated));
    }

    proptest! {
        #[test]
        fn take_advances_n_or_leaves_the_cursor(
            bytes in prop::collection::vec(any::<u8>(), 0..24),
        ) {
            let mut s = bytes.as_slice();
            match take::<8>(&mut s) {
                Ok(head) => {
                    prop_assert_eq!(&head[..], &bytes[..8]);
                    prop_assert_eq!(s, &bytes[8..]);
                }
                Err(e) => {
                    prop_assert!(bytes.len() < 8);
                    prop_assert_eq!(e, CodecError::Truncated);
                    prop_assert_eq!(s, bytes.as_slice());
                }
            }
        }

        #[test]
        fn varint_roundtrip(v in any::<u64>()) {
            let mut b = Vec::new();
            put_u64(&mut b, v);
            let mut s = b.as_slice();
            prop_assert_eq!(get_u64(&mut s).unwrap(), v);
            prop_assert!(s.is_empty());
        }

        #[test]
        fn zigzag_roundtrip(v in any::<i32>()) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
