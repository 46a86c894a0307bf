//! Sparse correction streams of the spatial codec.
//!
//! A correction pins one sample the predictor missed. With a positive
//! quantisation step `q` (the codec uses `max_error / 2`) a correction is
//! usually just the quantised residual `round((orig − recon) / q)` as a
//! varint — the decoder adds it back onto its own reconstruction, so the
//! final error is at most `q / 2`. Samples the quantised form cannot
//! represent within the bound (non-finite originals, astronomic
//! residuals) escape to the original's exact 4 bit-pattern bytes. The
//! encoder always evaluates the *decoder's* arithmetic when deciding, so
//! the configured bound holds by construction.

use crate::varint::{get_u64, put_u64, take, unzigzag64, zigzag64};
use crate::CodecError;

/// Residuals/values beyond this many quantisation steps escape to exact
/// bits (guards the `f64 → i64` rounding against overflow).
pub(crate) const MAX_STEPS: f64 = (1u64 << 40) as f64;

/// What the decoder will produce for a quantised correction.
pub(crate) fn dequantised(recon: f32, d: i64, q: f64) -> f32 {
    (f64::from(recon) + d as f64 * q) as f32
}

enum Fix {
    Quantised(i64),
    Exact(u32),
}

/// Scans `orig` against `recon`, appends `varint ncorr` plus the
/// correction stream to `out`, and returns `(max_uncorrected_error,
/// ncorr)` — the worst error the decoder will exhibit and the correction
/// count, for the `compress.*` metrics.
pub(crate) fn encode(
    orig: &[f32],
    recon: &[f32],
    q: f64,
    max_error: f64,
    out: &mut Vec<u8>,
) -> (f64, usize) {
    let mut max_err = 0.0f64;
    let mut corr: Vec<(usize, Fix)> = Vec::new();
    for (idx, (&o, &r)) in orig.iter().zip(recon).enumerate() {
        // bitwise-equal needs no fix even when non-finite (a prior pass
        // may already have restored the sample's exact bits)
        if o.to_bits() == r.to_bits() {
            continue;
        }
        let err = (f64::from(o) - f64::from(r)).abs();
        // NaN anywhere fails the comparison, so non-finite samples (and
        // non-finite reconstructions) always land in the correction arm
        if err <= max_error && o.is_finite() {
            max_err = max_err.max(err);
            continue;
        }
        let fix = if q > 0.0 && o.is_finite() {
            let steps = (f64::from(o) - f64::from(r)) / q;
            let d = if steps.is_finite() && steps.abs() < MAX_STEPS {
                steps.round() as i64
            } else {
                0
            };
            let cand = dequantised(r, d, q);
            if d != 0 && cand.is_finite() && (f64::from(o) - f64::from(cand)).abs() <= max_error {
                Fix::Quantised(d)
            } else {
                Fix::Exact(o.to_bits())
            }
        } else {
            Fix::Exact(o.to_bits())
        };
        corr.push((idx, fix));
    }
    put_u64(out, corr.len() as u64);
    let mut prev = 0usize;
    for (idx, fix) in &corr {
        put_u64(out, (idx - prev) as u64); // ascending, delta-coded
        prev = *idx;
        match fix {
            Fix::Quantised(d) => put_u64(out, zigzag64(*d) + 1),
            Fix::Exact(bits) => {
                if q > 0.0 {
                    put_u64(out, 0); // escape marker
                }
                out.extend_from_slice(&bits.to_le_bytes());
            }
        }
    }
    (max_err, corr.len())
}

/// Applies a correction stream written by [`encode`] onto `vals`.
pub(crate) fn decode(buf: &mut &[u8], q: f64, vals: &mut [f32]) -> Result<(), CodecError> {
    let ncorr = get_u64(buf)? as usize;
    let mut idx = 0usize;
    for i in 0..ncorr {
        const RANGE: CodecError = CodecError::Invalid("correction index out of range");
        let delta = get_u64(buf)? as usize;
        idx = if i == 0 {
            delta
        } else {
            idx.checked_add(delta).ok_or(RANGE)?
        };
        let slot = vals.get_mut(idx).ok_or(RANGE)?;
        let exact = if q > 0.0 {
            let code = get_u64(buf)?;
            if code == 0 {
                true
            } else {
                *slot = dequantised(*slot, unzigzag64(code - 1), q);
                false
            }
        } else {
            true
        };
        if exact {
            *slot = f32::from_bits(take(buf).map(u32::from_le_bytes)?);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(orig: &[f32], recon: &[f32], q: f64, bound: f64) -> (Vec<f32>, f64, usize) {
        let mut b = Vec::new();
        let (max_err, n) = encode(orig, recon, q, bound, &mut b);
        let mut vals = recon.to_vec();
        let mut s = b.as_slice();
        decode(&mut s, q, &mut vals).expect("decode");
        assert!(s.is_empty());
        (vals, max_err, n)
    }

    #[test]
    fn quantised_corrections_restore_within_bound() {
        let orig: Vec<f32> = (0..100).map(|i| i as f32 * 0.37).collect();
        let recon: Vec<f32> = orig.iter().map(|v| v + 0.05).collect(); // uniformly off
        let bound = 1e-3;
        let (vals, max_err, n) = roundtrip(&orig, &recon, bound / 2.0, bound);
        assert_eq!(n, 100, "every sample off by 0.05 needs correcting");
        assert!(max_err <= bound);
        for (a, b) in orig.iter().zip(&vals) {
            assert!((f64::from(*a) - f64::from(*b)).abs() <= bound);
        }
    }

    #[test]
    fn nonfinite_and_huge_residuals_escape_to_exact_bits() {
        let orig = [f32::NAN, f32::INFINITY, 1.0e38, -0.5];
        let recon = [0.0f32, 0.0, -1.0e38, -0.5];
        let (vals, _, n) = roundtrip(&orig, &recon, 5e-4, 1e-3);
        assert_eq!(n, 3);
        assert!(vals[0].is_nan());
        assert_eq!(vals[1], f32::INFINITY);
        assert_eq!(vals[2], 1.0e38);
        assert_eq!(vals[3], -0.5);
    }

    #[test]
    fn forged_index_delta_is_rejected_not_overflowed() {
        // two exact-bits corrections (q = 0): index 3, then a delta of
        // u64::MAX that would wrap the running index
        let mut b = vec![2, 3, 0, 0, 0, 0];
        crate::varint::put_u64(&mut b, u64::MAX);
        let mut vals = [0.0f32; 8];
        let err = decode(&mut b.as_slice(), 0.0, &mut vals).unwrap_err();
        assert_eq!(err, CodecError::Invalid("correction index out of range"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn corrected_streams_always_meet_the_bound(
            bits in prop::collection::vec(any::<u32>(), 1..200),
            noise in prop::collection::vec(-1.0f64..1.0, 1..200),
            bound_exp in -6i32..0,
        ) {
            let n = bits.len().min(noise.len());
            let orig: Vec<f32> = bits.iter().take(n).map(|&b| f32::from_bits(b)).collect();
            let recon: Vec<f32> = orig
                .iter()
                .zip(&noise)
                .map(|(&o, &e)| if o.is_finite() { (f64::from(o) + e) as f32 } else { 0.0 })
                .collect();
            let bound = 10f64.powi(bound_exp);
            let (vals, max_err, _) = roundtrip(&orig, &recon, bound / 2.0, bound);
            prop_assert!(max_err <= bound);
            for (a, b) in orig.iter().zip(&vals) {
                if a.is_finite() {
                    prop_assert!((f64::from(*a) - f64::from(*b)).abs() <= bound, "{a} vs {b}");
                } else {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
