//! Bit-exact compression of `f32` sample streams.
//!
//! Pipeline: take each sample's raw bit pattern, delta it against the
//! previous pattern (wrapping, zigzag-mapped so near-equal neighbours
//! yield tiny words), *shuffle* the delta words into four byte lanes
//! (all low bytes, then the next lane, …), and code each lane with
//! varint-framed zero-run suppression. Smooth fields leave the high
//! lanes almost entirely zero, which the run coder collapses; NaN, Inf
//! and negative zero survive untouched because the codec never leaves
//! bit-pattern space.

use crate::varint::{get_u64, put_u64, unzigzag, zigzag};
use crate::CodecError;

/// Zero runs shorter than this stay literal: ending a literal segment and
/// opening the next costs two framing bytes.
const MIN_RUN: usize = 3;

/// Appends the lossless encoding of `samples` to `out`.
pub fn encode(samples: &[f32], out: &mut Vec<u8>) {
    put_u64(out, samples.len() as u64);
    // delta + zigzag in bit-pattern space
    let mut prev = 0u32;
    let words: Vec<u32> = samples
        .iter()
        .map(|v| {
            let bits = v.to_bits();
            let delta = bits.wrapping_sub(prev) as i32;
            prev = bits;
            zigzag(delta)
        })
        .collect();
    // byte shuffle: lane l holds byte l of every word
    for lane in 0..4 {
        let bytes: Vec<u8> = words.iter().map(|w| (w >> (8 * lane)) as u8).collect();
        encode_lane(&bytes, out);
    }
}

/// Decodes the samples encoded by [`encode`] into a slice of exactly the
/// encoded length, requiring the payload to be exactly the encoding (no
/// trailing bytes).
pub fn decode_into(mut body: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
    decode_prefix_into(&mut body, out)?;
    if !body.is_empty() {
        return Err(CodecError::Invalid("trailing bytes after lossless payload"));
    }
    Ok(())
}

/// Decodes `n` samples from the front of `buf`, advancing it past the
/// encoding — the embedding the spatial codec uses for its kept lattice.
pub fn decode_prefix(buf: &mut &[u8], n: usize) -> Result<Vec<f32>, CodecError> {
    let mut out = vec![0.0f32; n];
    decode_prefix_into(buf, &mut out)?;
    Ok(out)
}

fn decode_prefix_into(buf: &mut &[u8], out: &mut [f32]) -> Result<(), CodecError> {
    let n = out.len();
    let stored_n = get_u64(buf)? as usize;
    if stored_n != n {
        return Err(CodecError::Invalid("lossless sample count mismatch"));
    }
    let mut words = vec![0u32; n];
    for lane in 0..4 {
        decode_lane(buf, &mut words, lane)?;
    }
    let mut prev = 0u32;
    for (o, w) in out.iter_mut().zip(words) {
        prev = prev.wrapping_add(unzigzag(w) as u32);
        *o = f32::from_bits(prev);
    }
    Ok(())
}

/// One byte lane as alternating varint-framed segments: literal length,
/// literal bytes, zero-run length, repeating until the lane is complete
/// (the trailing zero-run is omitted when literals finish the lane).
fn encode_lane(bytes: &[u8], out: &mut Vec<u8>) {
    let mut pos = 0;
    while pos < bytes.len() {
        // find the next profitable zero run
        let mut run_start = bytes.len();
        let mut run_len = 0;
        let mut i = pos;
        while i < bytes.len() {
            if bytes[i] == 0 {
                let start = i;
                while i < bytes.len() && bytes[i] == 0 {
                    i += 1;
                }
                if i - start >= MIN_RUN || i == bytes.len() {
                    run_start = start;
                    run_len = i - start;
                    break;
                }
            } else {
                i += 1;
            }
        }
        let lit = &bytes[pos..run_start];
        put_u64(out, lit.len() as u64);
        out.extend_from_slice(lit);
        pos = run_start + run_len;
        if run_len > 0 {
            put_u64(out, run_len as u64);
        }
    }
    if bytes.is_empty() {
        put_u64(out, 0);
    }
}

fn decode_lane(buf: &mut &[u8], words: &mut [u32], lane: usize) -> Result<(), CodecError> {
    let n = words.len();
    let mut produced = 0;
    if n == 0 {
        // the empty lane still frames one zero-length literal
        if get_u64(buf)? != 0 {
            return Err(CodecError::Invalid("nonempty lane for empty stream"));
        }
        return Ok(());
    }
    while produced < n {
        let lit = get_u64(buf)? as usize;
        if lit > n - produced || lit > buf.len() {
            return Err(CodecError::Invalid("lane literal overruns stream"));
        }
        let (head, rest) = buf.split_at(lit);
        for (w, &b) in words[produced..produced + lit].iter_mut().zip(head) {
            *w |= u32::from(b) << (8 * lane);
        }
        *buf = rest;
        produced += lit;
        if produced < n {
            let run = get_u64(buf)? as usize;
            if run == 0 || run > n - produced {
                return Err(CodecError::Invalid("lane zero-run overruns stream"));
            }
            produced += run; // the words are already zero in this lane
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decode(body: &[u8], n: usize) -> Result<Vec<f32>, CodecError> {
        let mut out = vec![0.0f32; n];
        decode_into(body, &mut out)?;
        Ok(out)
    }

    fn roundtrip(samples: &[f32]) -> Vec<f32> {
        let mut b = Vec::new();
        encode(samples, &mut b);
        decode(&b, samples.len()).expect("decode")
    }

    fn assert_bitwise_equal(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn lossless_roundtrip_empty_and_small() {
        assert_bitwise_equal(&roundtrip(&[]), &[]);
        assert_bitwise_equal(&roundtrip(&[1.5]), &[1.5]);
        assert_bitwise_equal(&roundtrip(&[0.0; 100]), &[0.0; 100]);
    }

    #[test]
    fn lossless_roundtrip_specials_bitwise() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_dead), // payload-carrying NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // subnormal
            f32::MAX,
            f32::MIN,
        ];
        assert_bitwise_equal(&roundtrip(&specials), &specials);
    }

    #[test]
    fn smooth_data_compresses_well() {
        let samples: Vec<f32> = (0..4096).map(|i| (i as f32 * 1e-3).sin()).collect();
        let mut b = Vec::new();
        encode(&samples, &mut b);
        // bit-pattern deltas of smooth f32 data leave the two high lanes
        // nearly zero: expect ~2.2 bytes/sample against 4 raw
        assert!(
            b.len() * 4 < samples.len() * 4 * 3,
            "no gain: {} of {}",
            b.len(),
            samples.len() * 4
        );
        assert_bitwise_equal(&decode(&b, samples.len()).unwrap(), &samples);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let samples: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut b = Vec::new();
        encode(&samples, &mut b);
        for cut in [0, 1, b.len() / 2, b.len() - 1] {
            assert!(decode(&b[..cut], samples.len()).is_err(), "cut {cut}");
        }
        assert!(decode(&b, samples.len() + 1).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The satellite guarantee: arbitrary payloads — including NaN
        /// and Inf bit patterns — round-trip bitwise identical.
        #[test]
        fn lossless_roundtrip_bitwise_identical(bits in prop::collection::vec(any::<u32>(), 0..700)) {
            let samples: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let back = roundtrip(&samples);
            for (x, y) in samples.iter().zip(&back) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
