//! The spatial keyframe codec for one 8³ atom plane.
//!
//! Keep a sub-sampled lattice — every `stride`-th sample per axis plus
//! the far face, so interpolation never extrapolates — quantise the kept
//! samples, and re-derive every skipped sample at decode time by
//! separable Lagrange interpolation on the kept (non-uniform) node set
//! via [`tdb_kernels::lagrange_basis`]. Samples the interpolant misses
//! by more than `max_error` are repaired by one of two arms, chosen
//! per plane (a mode byte in the header):
//!
//! * **sparse** ([`MODE_SPARSE`]) — index-delta-coded corrections
//!   ([`crate::corrections`]); cheapest when the interpolant rarely
//!   misses (smooth, well-resolved data),
//! * **dense** ([`MODE_DENSE`]) — a bit-packed quantised residual for
//!   *every* skipped sample, with varint overflow and exact-bits escape
//!   codes; cheapest on rough data where sparse corrections would cover
//!   most of the plane anyway.
//!
//! Either way the bound holds by construction: the encoder reconstructs
//! with the decoder's own arithmetic before deciding what to store, and
//! anything still out of bound ships as the original's exact bits
//! (DESIGN.md §10 gives the argument). The encoder additionally tries
//! two quantisation steps — `max_error / 2` and `1.98 · max_error`, both
//! of which keep rounding within the bound — and keeps whichever
//! (quantum, arm) pair encodes smallest; the choice is self-describing,
//! so the decoder has no policy.
//!
//! With `max_error ≤ 0` the kept lattice is stored lossless instead of
//! quantised, and every sample the (then bit-exact at kept positions)
//! interpolant misses at all is corrected with its original bits.

use tdb_kernels::lagrange_basis;
use tdb_zorder::{ATOM_POINTS, ATOM_WIDTH};

use crate::corrections::{self, dequantised, MAX_STEPS};
use crate::varint::{get_u64, put_u64, take, unzigzag64, zigzag64};
use crate::{lossless, CodecError};

/// Mode byte: skipped samples repaired by sparse corrections only.
const MODE_SPARSE: u8 = 0;
/// Mode byte: a dense bit-packed residual stream covers every skipped
/// sample (sparse corrections still follow, for kept-node escapes).
const MODE_DENSE: u8 = 1;

/// Encoder-side stats reported as `compress.*` metrics by the storage
/// tier.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpatialStats {
    /// Max |reconstructed − original| over the samples *not* corrected —
    /// the worst error the decoder will exhibit (≤ the configured bound).
    pub max_error: f64,
    /// Number of sparse corrections stored.
    pub corrections: usize,
}

/// Kept sample positions along one axis: `0, stride, 2·stride, …` plus
/// the last index so the interpolant always brackets its targets.
fn kept_axis(stride: u32) -> Vec<usize> {
    let stride = (stride.max(1) as usize).min(ATOM_WIDTH - 1);
    let mut kept: Vec<usize> = (0..ATOM_WIDTH).step_by(stride).collect();
    if kept.last() != Some(&(ATOM_WIDTH - 1)) {
        kept.push(ATOM_WIDTH - 1);
    }
    kept
}

/// The quantisation step for a bound: half of it, so lattice rounding
/// spends at most half the error budget. Non-positive bounds disable
/// quantisation (bit-exact lattice).
fn quantum(max_error: f64) -> f64 {
    if max_error > 0.0 {
        max_error / 2.0
    } else {
        0.0
    }
}

/// The 8×k weight matrix for one axis: row `p` holds the Lagrange basis
/// over the kept nodes evaluated at position `p`. Rows at kept positions
/// are exactly the Kronecker delta, so kept samples reconstruct bit-exact.
fn axis_weights(kept: &[usize]) -> Vec<[f64; ATOM_WIDTH]> {
    let nodes: Vec<f64> = kept.iter().map(|&p| p as f64).collect();
    (0..ATOM_WIDTH)
        .map(|p| {
            let mut w = [0.0f64; ATOM_WIDTH];
            lagrange_basis(&nodes, p as f64, &mut w);
            w
        })
        .collect()
}

/// Separable tensor-product reconstruction of the full 8³ plane from the
/// kept lattice (x-fastest layout, matching atom payload order) into
/// `out` ([`ATOM_POINTS`] samples).
fn reconstruct(kept_vals: &[f32], kept: &[usize], out: &mut [f32]) {
    let k = kept.len();
    let w = axis_weights(kept); // identical per axis: the lattice is cubic
                                // pass 1: expand x (k³ → 8·k²)
    let mut t1 = vec![0.0f64; ATOM_WIDTH * k * k];
    for jl in 0..k * k {
        for x in 0..ATOM_WIDTH {
            let mut acc = 0.0f64;
            for i in 0..k {
                acc += w[x][i] * f64::from(kept_vals[i + jl * k]);
            }
            t1[x + jl * ATOM_WIDTH] = acc;
        }
    }
    // pass 2: expand y (8·k² → 8²·k)
    let mut t2 = vec![0.0f64; ATOM_WIDTH * ATOM_WIDTH * k];
    for l in 0..k {
        for y in 0..ATOM_WIDTH {
            for x in 0..ATOM_WIDTH {
                let mut acc = 0.0f64;
                for j in 0..k {
                    acc += w[y][j] * t1[x + (j + l * k) * ATOM_WIDTH];
                }
                t2[x + (y + l * ATOM_WIDTH) * ATOM_WIDTH] = acc;
            }
        }
    }
    // pass 3: expand z (8²·k → 8³)
    for z in 0..ATOM_WIDTH {
        for yx in 0..ATOM_WIDTH * ATOM_WIDTH {
            let mut acc = 0.0f64;
            for l in 0..k {
                acc += w[z][l] * t2[yx + l * ATOM_WIDTH * ATOM_WIDTH];
            }
            out[yx + z * ATOM_WIDTH * ATOM_WIDTH] = acc as f32;
        }
    }
}

/// Quantises one kept sample. Values the grid cannot hold (non-finite,
/// astronomically large) map to 0 — the corrections pass restores them,
/// and mapping rather than escaping keeps the reconstruction tensor
/// finite so one rogue sample cannot pollute the whole plane.
fn quantise(v: f32, q: f64) -> i64 {
    let steps = f64::from(v) / q;
    if steps.is_finite() && steps.abs() < MAX_STEPS {
        steps.round() as i64
    } else {
        0
    }
}

/// Plane indices *not* on the kept lattice, in payload order — the
/// positions the dense residual stream covers.
fn skipped_indices(kept: &[usize]) -> Vec<usize> {
    let mut on_axis = [false; ATOM_WIDTH];
    for &p in kept {
        on_axis[p] = true;
    }
    (0..ATOM_POINTS)
        .filter(|&i| {
            let (x, y, z) = (
                i % ATOM_WIDTH,
                (i / ATOM_WIDTH) % ATOM_WIDTH,
                i / (ATOM_WIDTH * ATOM_WIDTH),
            );
            !(on_axis[x] && on_axis[y] && on_axis[z])
        })
        .collect()
}

/// Encoded length of one varint.
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Writes the dense residual stream: one code per skipped sample, in
/// payload order. A code is `zigzag(d) + 1` for a quantised residual of
/// `d` steps, or `0` to escape to the original's exact 4 bytes. Codes
/// are bit-packed at a per-plane width `b`; codes that do not fit
/// inline (`code ≥ 2^b − 1`) pack the all-ones marker and spill to a
/// varint, interleaved in position order with the escape payloads.
/// Mutates `recon` into the decoder's post-stream state and returns the
/// number of samples actually adjusted (for the `compress.*` metrics).
fn dense_encode(
    plane: &[f32],
    recon: &mut [f32],
    skipped: &[usize],
    q: f64,
    max_error: f64,
    out: &mut Vec<u8>,
) -> usize {
    let mut codes = Vec::with_capacity(skipped.len());
    for &idx in skipped {
        let (o, r) = (plane[idx], recon[idx]);
        let mut code = 0u64;
        if o.is_finite() {
            let steps = (f64::from(o) - f64::from(r)) / q;
            let d = if steps.is_finite() && steps.abs() < MAX_STEPS {
                steps.round() as i64
            } else {
                0
            };
            let cand = dequantised(r, d, q);
            if cand.is_finite() && (f64::from(o) - f64::from(cand)).abs() <= max_error {
                recon[idx] = cand;
                code = zigzag64(d) + 1;
            }
        }
        if code == 0 {
            recon[idx] = o; // exact-bits escape
        }
        codes.push(code);
    }
    // pick the packed width minimising bitstream + overflow varints
    // (the 4-byte escape payloads cost the same at any width)
    let (mut best_b, mut best_cost) = (2usize, usize::MAX);
    for b in 2..=16usize {
        let esc = (1u64 << b) - 1;
        let cost = (codes.len() * b).div_ceil(8)
            + codes
                .iter()
                .filter(|&&c| c >= esc)
                .map(|&c| varint_len(c))
                .sum::<usize>();
        if cost < best_cost {
            (best_b, best_cost) = (b, cost);
        }
    }
    let (b, esc) = (best_b, (1u64 << best_b) - 1);
    out.push(b as u8);
    let mut acc = 0u64;
    let mut nbits = 0usize;
    for &c in &codes {
        acc |= c.min(esc) << nbits;
        nbits += b;
        while nbits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push(acc as u8);
    }
    for (&idx, &c) in skipped.iter().zip(&codes) {
        if c >= esc {
            put_u64(out, c);
        }
        if c == 0 {
            out.extend_from_slice(&plane[idx].to_bits().to_le_bytes());
        }
    }
    codes.iter().filter(|&&c| c != 1).count()
}

/// Applies a dense residual stream written by [`dense_encode`].
fn dense_decode(
    buf: &mut &[u8],
    skipped: &[usize],
    q: f64,
    vals: &mut [f32],
) -> Result<(), CodecError> {
    let (&b, rest) = buf.split_first().ok_or(CodecError::Truncated)?;
    *buf = rest;
    let b = usize::from(b);
    if !(2..=16).contains(&b) {
        return Err(CodecError::Invalid("dense residual width out of range"));
    }
    if q <= 0.0 {
        return Err(CodecError::Invalid(
            "dense residuals need a positive quantum",
        ));
    }
    let nbytes = (skipped.len() * b).div_ceil(8);
    if buf.len() < nbytes {
        return Err(CodecError::Truncated);
    }
    let (packed, rest) = buf.split_at(nbytes);
    *buf = rest;
    let esc = (1u64 << b) - 1;
    let mut acc = 0u64;
    let mut nbits = 0usize;
    let mut next = packed.iter();
    for &idx in skipped {
        while nbits < b {
            acc |= u64::from(*next.next().ok_or(CodecError::Truncated)?) << nbits;
            nbits += 8;
        }
        let mut c = acc & esc;
        acc >>= b;
        nbits -= b;
        if c == esc {
            c = get_u64(buf)?;
        }
        if c == 0 {
            vals[idx] = f32::from_bits(take(buf).map(u32::from_le_bytes)?);
        } else {
            vals[idx] = dequantised(vals[idx], unzigzag64(c - 1), q);
        }
    }
    Ok(())
}

/// Encodes one full payload variant (`quantum` × `mode`) into `out`.
fn encode_variant(
    plane: &[f32],
    stride: u32,
    kept: &[usize],
    q: f64,
    max_error: f64,
    mode: u8,
    out: &mut Vec<u8>,
) -> SpatialStats {
    // gather the kept lattice in z-major/y/x-minor order
    let k = kept.len();
    let mut kept_vals = Vec::with_capacity(k * k * k);
    for &z in kept {
        for &y in kept {
            for &x in kept {
                kept_vals.push(plane[x + (y + z * ATOM_WIDTH) * ATOM_WIDTH]);
            }
        }
    }
    put_u64(out, u64::from(stride));
    put_u64(out, ATOM_POINTS as u64);
    out.extend_from_slice(&q.to_le_bytes());
    out.push(mode);
    let lattice: Vec<f32> = if q > 0.0 {
        // delta-coded quantised lattice: what the decoder dequantises is
        // what we must interpolate from
        let mut prev = 0i64;
        let mut dequant = Vec::with_capacity(kept_vals.len());
        for &v in &kept_vals {
            let qi = quantise(v, q);
            put_u64(out, zigzag64(qi.wrapping_sub(prev)));
            prev = qi;
            dequant.push((qi as f64 * q) as f32);
        }
        dequant
    } else {
        lossless::encode(&kept_vals, out);
        kept_vals
    };
    let mut recon = vec![0.0f32; ATOM_POINTS];
    reconstruct(&lattice, kept, &mut recon);
    let dense_fixes = if mode == MODE_DENSE {
        dense_encode(plane, &mut recon, &skipped_indices(kept), q, max_error, out)
    } else {
        0
    };
    // sparse pass: everything still out of bound (for the dense arm that
    // is only kept-node escapes, since the stream repaired the rest)
    let (max_err, ncorr) = corrections::encode(plane, &recon, q, max_error, out);
    SpatialStats {
        max_error: max_err,
        corrections: ncorr + dense_fixes,
    }
}

/// Encodes `plane` (must be one atom plane of [`ATOM_POINTS`] samples)
/// and appends the payload to `out`. Returns the stats the storage tier
/// reports.
pub fn encode(plane: &[f32], stride: u32, max_error: f64, out: &mut Vec<u8>) -> SpatialStats {
    assert_eq!(
        plane.len(),
        ATOM_POINTS,
        "spatial codec works on atom planes"
    );
    let kept = kept_axis(stride);
    if max_error <= 0.0 {
        // bit-exact lattice, exact-bits corrections: one variant only
        return encode_variant(plane, stride, &kept, 0.0, max_error, MODE_SPARSE, out);
    }
    // Both candidate quanta keep rounding within the bound (error ≤ q/2):
    // the fine one favours few-correction planes, the coarse one shrinks
    // every stored integer by two bits. The smallest encoding wins; the
    // header carries the choice, so this is pure encoder policy.
    let mut best: Option<(Vec<u8>, SpatialStats)> = None;
    for q in [quantum(max_error), 1.98 * max_error] {
        for mode in [MODE_SPARSE, MODE_DENSE] {
            let mut buf = Vec::new();
            let stats = encode_variant(plane, stride, &kept, q, max_error, mode, &mut buf);
            if best.as_ref().is_none_or(|(b, _)| buf.len() < b.len()) {
                best = Some((buf, stats));
            }
        }
    }
    let (buf, stats) = best.expect("at least one encoding variant");
    out.extend_from_slice(&buf);
    stats
}

/// Decodes a payload written by [`encode`] into a caller-provided atom
/// plane.
pub fn decode_into(mut body: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
    if out.len() != ATOM_POINTS {
        return Err(CodecError::Invalid("spatial codec works on atom planes"));
    }
    let buf = &mut body;
    let stride = get_u64(buf)? as u32;
    if stride == 0 || stride as usize >= ATOM_WIDTH {
        return Err(CodecError::Invalid("spatial stride out of range"));
    }
    if get_u64(buf)? as usize != ATOM_POINTS {
        return Err(CodecError::Invalid("spatial plane size mismatch"));
    }
    let q = take(buf).map(f64::from_le_bytes)?;
    if !q.is_finite() || q < 0.0 {
        return Err(CodecError::Invalid("spatial quantum out of range"));
    }
    let (&mode, rest) = buf.split_first().ok_or(CodecError::Truncated)?;
    *buf = rest;
    if mode != MODE_SPARSE && mode != MODE_DENSE {
        return Err(CodecError::Invalid("unknown spatial repair mode"));
    }
    let kept = kept_axis(stride);
    let k = kept.len();
    let lattice: Vec<f32> = if q > 0.0 {
        let mut prev = 0i64;
        let mut vals = Vec::with_capacity(k * k * k);
        for _ in 0..k * k * k {
            prev = prev.wrapping_add(unzigzag64(get_u64(buf)?));
            vals.push((prev as f64 * q) as f32);
        }
        vals
    } else {
        lossless::decode_prefix(buf, k * k * k)?
    };
    reconstruct(&lattice, &kept, out);
    if mode == MODE_DENSE {
        dense_decode(buf, &skipped_indices(&kept), q, out)?;
    }
    corrections::decode(buf, q, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plane_from(f: impl Fn(usize, usize, usize) -> f64) -> Vec<f32> {
        let mut p = vec![0.0f32; ATOM_POINTS];
        for z in 0..ATOM_WIDTH {
            for y in 0..ATOM_WIDTH {
                for x in 0..ATOM_WIDTH {
                    p[x + (y + z * ATOM_WIDTH) * ATOM_WIDTH] = f(x, y, z) as f32;
                }
            }
        }
        p
    }

    fn decode(body: &[u8], n: usize) -> Result<Vec<f32>, CodecError> {
        let mut out = vec![0.0f32; n];
        decode_into(body, &mut out)?;
        Ok(out)
    }

    fn roundtrip(plane: &[f32], stride: u32, bound: f64) -> (Vec<f32>, SpatialStats, usize) {
        let mut b = Vec::new();
        let stats = encode(plane, stride, bound, &mut b);
        let back = decode(&b, plane.len()).expect("decode");
        (back, stats, b.len())
    }

    #[test]
    fn kept_axis_always_includes_both_faces() {
        for stride in 1..8 {
            let k = kept_axis(stride);
            assert_eq!(k.first(), Some(&0));
            assert_eq!(k.last(), Some(&7));
            assert!(k.windows(2).all(|w| w[0] < w[1]), "{k:?}");
        }
        assert_eq!(kept_axis(2), vec![0, 2, 4, 6, 7]);
    }

    #[test]
    fn polynomial_fields_interpolate_without_corrections_when_unquantised() {
        // degree ≤ 4 per axis: a 5-node basis reproduces them exactly, and
        // a non-positive bound keeps the lattice bit-exact
        let plane = plane_from(|x, y, z| {
            let (x, y, z) = (x as f64, y as f64, z as f64);
            0.5 * x * x - y * z + 2.0 * z - 3.0
        });
        let mut b = Vec::new();
        let stats = encode(&plane, 2, 0.0, &mut b);
        // f64 rounding in the basis weights may cost a few ULP-level
        // corrections, but the interpolation itself must be exact
        assert!(
            stats.corrections < 8,
            "polynomial must interpolate (almost) exactly: {}",
            stats.corrections
        );
        let back = decode(&b, plane.len()).expect("decode");
        for (a, b) in plane.iter().zip(&back) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn smooth_field_beats_4x_within_bound() {
        let plane = plane_from(|x, y, z| {
            (x as f64 * 0.5).sin() * (y as f64 * 0.4).cos() + (z as f64 * 0.3).sin()
        });
        let bound = 1e-2;
        let (back, stats, encoded) = roundtrip(&plane, 2, bound);
        for (a, b) in plane.iter().zip(&back) {
            assert!((f64::from(*a) - f64::from(*b)).abs() <= bound);
        }
        assert!(stats.max_error <= bound);
        let ratio = (ATOM_POINTS * 4) as f64 / encoded as f64;
        assert!(ratio >= 4.0, "ratio {ratio:.2}");
    }

    #[test]
    fn nonfinite_samples_roundtrip_bitwise_via_corrections() {
        let mut plane = plane_from(|x, _, _| x as f64);
        plane[17] = f32::NAN;
        plane[100] = f32::INFINITY;
        plane[511] = f32::NEG_INFINITY;
        let (back, _, _) = roundtrip(&plane, 2, 1e-3);
        assert!(back[17].is_nan());
        assert_eq!(back[100], f32::INFINITY);
        assert_eq!(back[511], f32::NEG_INFINITY);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[], ATOM_POINTS).is_err());
        assert!(decode(&[0, 0, 0], ATOM_POINTS).is_err());
        let plane = plane_from(|x, y, z| (x + y + z) as f64);
        let mut b = Vec::new();
        encode(&plane, 2, 1e-3, &mut b);
        assert!(decode(&b[..b.len() / 3], ATOM_POINTS).is_err());
        assert!(decode(&b, 13).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The satellite guarantee: lossy reconstruction error never
        /// exceeds the configured bound, for arbitrary payloads (finite
        /// and not), strides and bounds.
        #[test]
        fn reconstruction_error_never_exceeds_bound(
            bits in prop::collection::vec(any::<u32>(), ATOM_POINTS..ATOM_POINTS + 1),
            stride in 1u32..5,
            bound_exp in -6i32..0,
        ) {
            let plane: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let bound = 10f64.powi(bound_exp);
            let (back, stats, _) = roundtrip(&plane, stride, bound);
            prop_assert!(stats.max_error <= bound);
            for (a, b) in plane.iter().zip(&back) {
                if a.is_finite() {
                    prop_assert!(
                        (f64::from(*a) - f64::from(*b)).abs() <= bound,
                        "{a} decoded as {b}"
                    );
                } else {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
