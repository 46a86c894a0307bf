//! Exact decomposition of an atom-lattice box into contiguous z-order ranges.
//!
//! The JHTDB stores atoms in a clustered index keyed by Morton code and
//! partitions tables "along contiguous ranges of the Morton z-curve" (§5.1).
//! To evaluate a spatial query as a small number of clustered index range
//! scans, the query's atom box is decomposed octree-style: any octree cell
//! fully inside the box contributes the single contiguous code range it
//! occupies; partially covered cells recurse. Adjacent output ranges are
//! merged, so the result is the *minimal* exact set of contiguous ranges.

use crate::boxes::Box3;
use crate::morton::encode3;

/// An inclusive range of Morton codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZRange {
    pub start: u64,
    pub end: u64,
}

impl ZRange {
    /// Creates a range; `start` must not exceed `end`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "invalid z-range [{start}, {end}]");
        Self { start, end }
    }

    /// Number of codes covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Always false: a range covers at least one code.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `code` falls inside.
    #[inline]
    pub fn contains(&self, code: u64) -> bool {
        code >= self.start && code <= self.end
    }

    /// Whether this range overlaps `other`.
    #[inline]
    pub fn overlaps(&self, other: &ZRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

/// Decomposes an **atom-lattice** box into the minimal exact set of
/// contiguous Morton-code ranges, sorted ascending.
///
/// `level_bits` is the number of bits per dimension of the enclosing octree
/// (the lattice must satisfy `hi < 2^level_bits`).
pub fn decompose_box(atom_box: &Box3, level_bits: u32) -> Vec<ZRange> {
    let n = 1u32 << level_bits;
    assert!(
        atom_box.hi.iter().all(|&h| h < n),
        "box {atom_box:?} exceeds 2^{level_bits} lattice"
    );
    let mut out = Vec::new();
    recurse(atom_box, [0, 0, 0], level_bits, &mut out);
    merge_adjacent(&mut out);
    out
}

fn recurse(query: &Box3, cell_lo: [u32; 3], level_bits: u32, out: &mut Vec<ZRange>) {
    let size = 1u32 << level_bits;
    let cell = Box3::new(
        cell_lo,
        [
            cell_lo[0] + size - 1,
            cell_lo[1] + size - 1,
            cell_lo[2] + size - 1,
        ],
    );
    let Some(overlap) = query.intersect(&cell) else {
        return;
    };
    if overlap == cell {
        // Fully covered cell: contiguous code block of 8^level_bits codes.
        let start = encode3(cell_lo[0], cell_lo[1], cell_lo[2]);
        let span = 1u64 << (3 * level_bits);
        out.push(ZRange::new(start, start + span - 1));
        return;
    }
    debug_assert!(level_bits > 0, "single-cell overlap must be full");
    let half = size / 2;
    for oct in 0..8u32 {
        let lo = [
            cell_lo[0] + if oct & 1 != 0 { half } else { 0 },
            cell_lo[1] + if oct & 2 != 0 { half } else { 0 },
            cell_lo[2] + if oct & 4 != 0 { half } else { 0 },
        ];
        recurse(query, lo, level_bits - 1, out);
    }
}

fn merge_adjacent(ranges: &mut Vec<ZRange>) {
    // Octree recursion in child order 0..8 emits ranges already sorted.
    debug_assert!(ranges.windows(2).all(|w| w[0].end < w[1].start));
    let mut merged: Vec<ZRange> = Vec::with_capacity(ranges.len());
    for r in ranges.drain(..) {
        match merged.last_mut() {
            Some(last) if last.end + 1 == r.start => last.end = r.end,
            _ => merged.push(r),
        }
    }
    *ranges = merged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::decode3;
    use proptest::prelude::*;

    fn codes_in(ranges: &[ZRange]) -> Vec<u64> {
        ranges
            .iter()
            .flat_map(|r| r.start..=r.end)
            .collect::<Vec<_>>()
    }

    #[test]
    fn full_lattice_is_one_range() {
        let b = Box3::cube(8);
        let r = decompose_box(&b, 3);
        assert_eq!(r, vec![ZRange::new(0, 511)]);
    }

    #[test]
    fn single_cell() {
        let b = Box3::new([3, 1, 2], [3, 1, 2]);
        let code = encode3(3, 1, 2);
        assert_eq!(decompose_box(&b, 4), vec![ZRange::new(code, code)]);
    }

    #[test]
    fn octant_is_one_range() {
        // upper-z half of a 4^3 lattice = octants 4..8 = codes 32..63
        let b = Box3::new([0, 0, 2], [3, 3, 3]);
        assert_eq!(decompose_box(&b, 2), vec![ZRange::new(32, 63)]);
    }

    #[test]
    fn slab_decomposition_is_exact() {
        let b = Box3::new([0, 0, 1], [7, 7, 2]); // z-slab crossing octant rows
        let ranges = decompose_box(&b, 3);
        let mut expect: Vec<u64> = b.points().map(|(x, y, z)| encode3(x, y, z)).collect();
        expect.sort_unstable();
        assert_eq!(codes_in(&ranges), expect);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn decomposition_is_exact_and_minimal(
            lo in prop::array::uniform3(0u32..16),
            ext in prop::array::uniform3(1u32..16),
        ) {
            let hi = [
                (lo[0] + ext[0] - 1).min(31),
                (lo[1] + ext[1] - 1).min(31),
                (lo[2] + ext[2] - 1).min(31),
            ];
            let b = Box3::new(lo, hi);
            let ranges = decompose_box(&b, 5);
            // sorted & disjoint with real gaps (minimality of merging)
            for w in ranges.windows(2) {
                prop_assert!(w[0].end + 1 < w[1].start);
            }
            // exact cover
            let total: u64 = ranges.iter().map(ZRange::len).sum();
            prop_assert_eq!(total, b.num_points());
            for r in &ranges {
                for code in [r.start, r.end] {
                    let (x, y, z) = decode3(code);
                    prop_assert!(b.contains_point(x, y, z));
                }
            }
        }

        #[test]
        fn membership_matches_box(
            lo in prop::array::uniform3(0u32..8),
            ext in prop::array::uniform3(1u32..8),
            px in 0u32..16, py in 0u32..16, pz in 0u32..16,
        ) {
            let hi = [
                (lo[0] + ext[0] - 1).min(15),
                (lo[1] + ext[1] - 1).min(15),
                (lo[2] + ext[2] - 1).min(15),
            ];
            let b = Box3::new(lo, hi);
            let ranges = decompose_box(&b, 4);
            let code = encode3(px, py, pz);
            let in_ranges = ranges.iter().any(|r| r.contains(code));
            prop_assert_eq!(in_ranges, b.contains_point(px, py, pz));
        }
    }
}
