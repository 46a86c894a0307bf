//! Threshold and PDF scan kernels over rows of an evaluated derived field.
//!
//! The cold-query inner loop of the paper — Morton encode → `f64`
//! threshold compare over every point of the evaluated norm — lives here
//! so cluster nodes, benches, and tests share one implementation:
//!
//! * [`threshold_scan_row`] / [`pdf_scan_row`] — the row reducers. The
//!   fused pipeline applies them to each derived row as it appears (there
//!   is no derived plane); the threshold one has a branch-free hit-count
//!   prepass that skips non-matching rows and reserves output exactly
//!   once, and a [`MortonRow`] encoder that hoists the `y`/`z` bit spreads
//!   out of the x-loop. [`ClipRows`] cuts a query's clip out of the rows
//!   of the evaluated domain.
//! * [`threshold_scan_clip`] / [`pdf_scan_clip`] — the same reducers run
//!   over a materialised field (proptested bit-identical to the original
//!   per-point loop, which lives on in this module's tests).
//!
//! All compare through [`at_or_above`] (in `f64`: a threshold like
//! `25.000000001` must exclude a stored `25.0`) and emit hits in
//! ascending `(z, y, x)` grid order.

use std::ops::Range;

use tdb_field::{at_or_above, Histogram, ScalarField};
use tdb_zorder::{Box3, MortonRow};

/// One scan hit: the point's Morton code and its field value.
pub type ScanHit = (u64, f32);

#[inline]
fn clip_offsets(domain: &Box3, clip: &Box3) -> (usize, usize, usize) {
    let (dlx, dly, dlz) = domain.lo3();
    let (clx, cly, clz) = clip.lo3();
    (
        (clx - dlx) as usize,
        (cly - dly) as usize,
        (clz - dlz) as usize,
    )
}

/// The footprint of a query's `clip` inside the rows of a field evaluated
/// over `domain` (which contains it).
#[derive(Debug, Clone)]
pub struct ClipRows {
    x: Range<usize>,
    y: Range<usize>,
    z: Range<usize>,
    lo: (u32, u32, u32),
}

impl ClipRows {
    pub fn new(domain: &Box3, clip: &Box3) -> Self {
        let (ox, oy, oz) = clip_offsets(domain, clip);
        let (nx, ny, nz) = clip.extent3();
        Self {
            x: ox..ox + nx,
            y: oy..oy + ny,
            z: oz..oz + nz,
            lo: clip.lo3(),
        }
    }

    /// The clip's part of domain row `(y, z)` with the global coordinates
    /// `(x0, y, z)` of its first point; `None` for rows outside the clip.
    #[inline]
    pub fn slice<'a>(&self, y: usize, z: usize, row: &'a [f32]) -> Option<(&'a [f32], [u32; 3])> {
        if !self.y.contains(&y) || !self.z.contains(&z) {
            return None;
        }
        let global = [
            self.lo.0,
            self.lo.1 + (y - self.y.start) as u32,
            self.lo.2 + (z - self.z.start) as u32,
        ];
        Some((row.get(self.x.clone())?, global))
    }
}

/// Appends every point of one grid row at or above `threshold` to `out`;
/// `row[i]` sits at global `(x0 + i, y, z)`.
#[inline]
pub fn threshold_scan_row<P: From<ScanHit>>(
    row: &[f32],
    [x0, y, z]: [u32; 3],
    threshold: f64,
    out: &mut Vec<P>,
) {
    // Branch-free prepass: autovectorizable count of row hits, so rows
    // with none (the common case at high thresholds) are skipped without
    // touching the output, and rows with some reserve exactly once.
    let hits = row.iter().filter(|&&v| at_or_above(v, threshold)).count();
    if hits == 0 {
        return;
    }
    out.reserve(hits);
    let mrow = MortonRow::new(y, z);
    for (x, &v) in row.iter().enumerate() {
        if at_or_above(v, threshold) {
            out.push(P::from((mrow.encode_x(x0 + x as u32), v)));
        }
    }
}

/// Accumulates one row into a histogram.
#[inline]
pub fn pdf_scan_row(row: &[f32], hist: &mut Histogram) {
    for &v in row {
        hist.push(f64::from(v));
    }
}

/// Runs `visit(sub_row, global)` over the clip's rows of a materialised
/// field in ascending `(z, y)` order.
fn for_clip_rows(
    norm: &ScalarField,
    domain: &Box3,
    clip: &Box3,
    mut visit: impl FnMut(&[f32], [u32; 3]),
) {
    let rows = ClipRows::new(domain, clip);
    for z in rows.z.clone() {
        for y in rows.y.clone() {
            if let Some((sub, global)) = rows.slice(y, z, norm.row(y, z)) {
                visit(sub, global);
            }
        }
    }
}

/// Threshold scan of the `clip` sub-box of a norm field evaluated over
/// `domain`, appending hits to `out`.
///
/// Bit-identical to the per-point loop it replaced: same `f64` compare,
/// same hit order, same values — only the loop structure differs.
pub fn threshold_scan_clip(
    norm: &ScalarField,
    domain: &Box3,
    clip: &Box3,
    threshold: f64,
    out: &mut Vec<ScanHit>,
) {
    for_clip_rows(norm, domain, clip, |row, global| {
        threshold_scan_row(row, global, threshold, out)
    });
}

/// Accumulates the `clip` sub-box of an evaluated norm into a histogram,
/// row by row.
pub fn pdf_scan_clip(norm: &ScalarField, domain: &Box3, clip: &Box3, hist: &mut Histogram) {
    for_clip_rows(norm, domain, clip, |row, _| pdf_scan_row(row, hist));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdb_zorder::encode3;

    /// Per-point reference threshold scan (the pre-chunking implementation,
    /// with its own comparison: an oracle must not share `at_or_above`).
    fn threshold_scan_clip_scalar(
        norm: &ScalarField,
        domain: &Box3,
        clip: &Box3,
        threshold: f64,
        out: &mut Vec<ScanHit>,
    ) {
        let (ox, oy, oz) = clip_offsets(domain, clip);
        let (cnx, cny, cnz) = clip.extent3();
        let (clx, cly, clz) = clip.lo3();
        for z in 0..cnz {
            for y in 0..cny {
                let row = &norm.row(y + oy, z + oz)[ox..ox + cnx];
                for (x, &v) in row.iter().enumerate() {
                    if f64::from(v) >= threshold {
                        out.push((encode3(clx + x as u32, cly + y as u32, clz + z as u32), v));
                    }
                }
            }
        }
    }

    fn field_from(vals: &[f32], nx: usize, ny: usize, nz: usize) -> ScalarField {
        ScalarField::from_fn(nx, ny, nz, |x, y, z| {
            vals[(x + nx * (y + ny * z)) % vals.len()]
        })
    }

    #[test]
    fn chunked_scan_finds_exact_points_in_order() {
        let mut f = ScalarField::zeros(4, 4, 4);
        f.set(1, 2, 3, 5.0);
        f.set(0, 0, 0, 4.9);
        let domain = Box3::new([8, 8, 8], [11, 11, 11]);
        let mut hits = Vec::new();
        threshold_scan_clip(&f, &domain, &domain, 4.9, &mut hits);
        assert_eq!(hits.len(), 2);
        // (z, y, x) ascending: (8,8,8) before (9,10,11)
        assert_eq!(hits[0].0, encode3(8, 8, 8));
        assert_eq!(hits[1].0, encode3(9, 10, 11));
        assert_eq!(hits[1].1, 5.0);
    }

    #[test]
    fn chunked_scan_compares_in_f64() {
        // 25.000000001 rounds to exactly 25.0 in f32; an f32 compare would
        // wrongly admit the 25.0 point.
        let mut f = ScalarField::zeros(2, 2, 2);
        f.set(0, 0, 0, 25.0);
        f.set(1, 1, 1, 26.0);
        let domain = Box3::new([0, 0, 0], [1, 1, 1]);
        let thr = 25.000000001_f64;
        let mut hits = Vec::new();
        threshold_scan_clip(&f, &domain, &domain, thr, &mut hits);
        assert_eq!(hits.len(), 1, "the 25.0 point must be excluded");
        assert_eq!(hits[0].1, 26.0);
    }

    /// Values including NaN/∞ so predicate edge cases are exercised.
    fn any_val() -> impl Strategy<Value = f32> {
        prop_oneof![
            -100.0f32..100.0,
            Just(f32::NAN),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            Just(-0.0f32),
        ]
    }

    fn any_threshold() -> impl Strategy<Value = f64> {
        prop_oneof![
            -100.0f64..100.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(25.000000001_f64),
        ]
    }

    proptest! {
        #[test]
        fn chunked_scan_is_identical_to_scalar_reference(
            vals in prop::collection::vec(any_val(), 64..512),
            threshold in any_threshold(),
            dlo in prop::array::uniform3(0u32..100),
            ext in prop::array::uniform3(1u32..9),
            shrink in prop::array::uniform3(0u32..3),
        ) {
            let (nx, ny, nz) = (ext[0] as usize, ext[1] as usize, ext[2] as usize);
            let f = field_from(&vals, nx, ny, nz);
            let domain = Box3::new(dlo, [
                dlo[0] + ext[0] - 1, dlo[1] + ext[1] - 1, dlo[2] + ext[2] - 1,
            ]);
            // Clip is a (possibly strict) sub-box of the domain.
            let clip = Box3::new(
                [
                    domain.lo[0] + shrink[0].min(ext[0] - 1),
                    domain.lo[1] + shrink[1].min(ext[1] - 1),
                    domain.lo[2] + shrink[2].min(ext[2] - 1),
                ],
                domain.hi,
            );
            let mut chunked = Vec::new();
            let mut scalar = Vec::new();
            threshold_scan_clip(&f, &domain, &clip, threshold, &mut chunked);
            threshold_scan_clip_scalar(&f, &domain, &clip, threshold, &mut scalar);
            prop_assert_eq!(chunked.len(), scalar.len());
            for ((cz, cv), (sz, sv)) in chunked.iter().zip(&scalar) {
                prop_assert_eq!(cz, sz);
                prop_assert_eq!(cv.to_bits(), sv.to_bits());
            }
        }
    }
}
