//! Axis-aligned integer boxes.
//!
//! Threshold queries carry a query box `q = [xl, yl, zl, xu, yu, zu]`
//! (Algorithm 1 of the paper). Bounds are *inclusive* on both ends, matching
//! the paper's `q ∈ [start, end]` containment test. Periodic domains are
//! handled by splitting a wrapped request into non-wrapped pieces.

use crate::atom::{AtomCoord, ATOM_WIDTH};

/// Inclusive axis-aligned box on the integer grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Box3 {
    pub lo: [u32; 3],
    pub hi: [u32; 3],
}

impl Box3 {
    /// Creates a box from inclusive corner points.
    ///
    /// # Panics
    /// Panics if any `lo` component exceeds the matching `hi` component.
    pub fn new(lo: [u32; 3], hi: [u32; 3]) -> Self {
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "invalid box: lo {lo:?} > hi {hi:?}"
        );
        Self { lo, hi }
    }

    /// The box covering an entire cubic grid of edge `n`.
    pub fn cube(n: u32) -> Self {
        assert!(n > 0);
        Self::new([0, 0, 0], [n - 1, n - 1, n - 1])
    }

    /// The box covering a grid with edges `(nx, ny, nz)`.
    pub fn grid(nx: u32, ny: u32, nz: u32) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0);
        Self::new([0, 0, 0], [nx - 1, ny - 1, nz - 1])
    }

    /// Extent along each axis (number of points).
    #[inline]
    pub fn extent(&self) -> [u64; 3] {
        [
            u64::from(self.hi[0] - self.lo[0]) + 1,
            u64::from(self.hi[1] - self.lo[1]) + 1,
            u64::from(self.hi[2] - self.lo[2]) + 1,
        ]
    }

    /// Number of grid points contained.
    #[inline]
    pub fn num_points(&self) -> u64 {
        let e = self.extent();
        e[0] * e[1] * e[2]
    }

    /// The lower corner as a tuple (avoids index-slot access at call sites).
    #[inline]
    pub fn lo3(&self) -> (u32, u32, u32) {
        (self.lo[0], self.lo[1], self.lo[2])
    }

    /// The upper corner as a tuple.
    #[inline]
    pub fn hi3(&self) -> (u32, u32, u32) {
        (self.hi[0], self.hi[1], self.hi[2])
    }

    /// Extent along each axis as `usize` (number of points per axis).
    #[inline]
    pub fn extent3(&self) -> (usize, usize, usize) {
        (
            (self.hi[0] - self.lo[0]) as usize + 1,
            (self.hi[1] - self.lo[1]) as usize + 1,
            (self.hi[2] - self.lo[2]) as usize + 1,
        )
    }

    /// Whether the point is inside (inclusive).
    #[inline]
    pub fn contains_point(&self, x: u32, y: u32, z: u32) -> bool {
        x >= self.lo[0]
            && x <= self.hi[0]
            && y >= self.lo[1]
            && y <= self.hi[1]
            && z >= self.lo[2]
            && z <= self.hi[2]
    }

    /// Whether `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_box(&self, other: &Box3) -> bool {
        (0..3).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersect(&self, other: &Box3) -> Option<Box3> {
        let mut lo = [0u32; 3];
        let mut hi = [0u32; 3];
        for i in 0..3 {
            lo[i] = self.lo[i].max(other.lo[i]);
            hi[i] = self.hi[i].min(other.hi[i]);
            if lo[i] > hi[i] {
                return None;
            }
        }
        Some(Box3 { lo, hi })
    }

    /// Smallest box containing both.
    pub fn hull(&self, other: &Box3) -> Box3 {
        let mut lo = [0u32; 3];
        let mut hi = [0u32; 3];
        for i in 0..3 {
            lo[i] = self.lo[i].min(other.lo[i]);
            hi[i] = self.hi[i].max(other.hi[i]);
        }
        Box3 { lo, hi }
    }

    /// The box on the atom lattice covering every atom that overlaps `self`.
    pub fn atom_box(&self) -> Box3 {
        let w = ATOM_WIDTH as u32;
        Box3 {
            lo: [self.lo[0] / w, self.lo[1] / w, self.lo[2] / w],
            hi: [self.hi[0] / w, self.hi[1] / w, self.hi[2] / w],
        }
    }

    /// Iterates the atoms overlapping this (grid-space) box.
    pub fn atoms(&self) -> impl Iterator<Item = AtomCoord> {
        let ab = self.atom_box();
        (ab.lo[2]..=ab.hi[2]).flat_map(move |z| {
            (ab.lo[1]..=ab.hi[1])
                .flat_map(move |y| (ab.lo[0]..=ab.hi[0]).map(move |x| AtomCoord::new(x, y, z)))
        })
    }

    /// Iterates all points in the box, x fastest.
    pub fn points(&self) -> impl Iterator<Item = (u32, u32, u32)> {
        let b = *self;
        (b.lo[2]..=b.hi[2]).flat_map(move |z| {
            (b.lo[1]..=b.hi[1]).flat_map(move |y| (b.lo[0]..=b.hi[0]).map(move |x| (x, y, z)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cube_counts_points() {
        let b = Box3::cube(8);
        assert_eq!(b.num_points(), 512);
        assert_eq!(b.extent(), [8, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "invalid box")]
    fn new_rejects_inverted_bounds() {
        let _ = Box3::new([1, 0, 0], [0, 5, 5]);
    }

    #[test]
    fn intersect_and_containment() {
        let a = Box3::new([0, 0, 0], [9, 9, 9]);
        let b = Box3::new([5, 5, 5], [15, 15, 15]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, Box3::new([5, 5, 5], [9, 9, 9]));
        assert!(a.contains_box(&i));
        assert!(b.contains_box(&i));
        let far = Box3::new([20, 20, 20], [30, 30, 30]);
        assert!(a.intersect(&far).is_none());
    }

    #[test]
    fn atoms_cover_partial_overlap() {
        let b = Box3::new([6, 0, 0], [9, 7, 7]);
        let atoms: Vec<_> = b.atoms().collect();
        assert_eq!(
            atoms,
            vec![AtomCoord::new(0, 0, 0), AtomCoord::new(1, 0, 0)]
        );
    }

    proptest! {
        #[test]
        fn intersect_is_commutative_and_contained(
            alo in prop::array::uniform3(0u32..50), aext in prop::array::uniform3(1u32..20),
            blo in prop::array::uniform3(0u32..50), bext in prop::array::uniform3(1u32..20),
        ) {
            let a = Box3::new(alo, [alo[0]+aext[0], alo[1]+aext[1], alo[2]+aext[2]]);
            let b = Box3::new(blo, [blo[0]+bext[0], blo[1]+bext[1], blo[2]+bext[2]]);
            let ab = a.intersect(&b);
            prop_assert_eq!(ab, b.intersect(&a));
            if let Some(i) = ab {
                prop_assert!(a.contains_box(&i) && b.contains_box(&i));
                // every point of i is in both
                prop_assert!(i.points().take(64).all(|(x,y,z)|
                    a.contains_point(x,y,z) && b.contains_point(x,y,z)));
            }
        }

        #[test]
        fn num_points_matches_iteration(
            lo in prop::array::uniform3(0u32..20), ext in prop::array::uniform3(1u32..8),
        ) {
            let b = Box3::new(lo, [lo[0]+ext[0]-1, lo[1]+ext[1]-1, lo[2]+ext[2]-1]);
            prop_assert_eq!(b.points().count() as u64, b.num_points());
        }
    }
}
