//! Database-atom addressing.
//!
//! A time-step is subdivided into cubes of 8³ grid points — the *database
//! atoms* of the JHTDB. An atom is addressed by the coordinates of its
//! lower-left corner on the *atom lattice* (grid coordinates divided by 8),
//! and keyed in storage by the Morton code of that lattice position.

use crate::morton::{decode3, encode3};

/// Edge length of a database atom in grid points.
pub const ATOM_WIDTH: usize = 8;

/// Number of grid points per atom (8³ = 512).
pub const ATOM_POINTS: usize = ATOM_WIDTH * ATOM_WIDTH * ATOM_WIDTH;

/// Position of an atom on the atom lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomCoord {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl AtomCoord {
    /// Creates an atom coordinate.
    #[inline]
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        Self { x, y, z }
    }

    /// The atom containing grid point `(gx, gy, gz)`.
    #[inline]
    pub fn containing(gx: u32, gy: u32, gz: u32) -> Self {
        let w = ATOM_WIDTH as u32;
        Self::new(gx / w, gy / w, gz / w)
    }

    /// Morton code of this atom (the storage key within a time-step).
    #[inline]
    pub fn zindex(&self) -> u64 {
        encode3(self.x, self.y, self.z)
    }

    /// Inverse of [`AtomCoord::zindex`].
    #[inline]
    pub fn from_zindex(code: u64) -> Self {
        let (x, y, z) = decode3(code);
        Self::new(x, y, z)
    }

    /// Grid coordinates of this atom's lower-left corner.
    #[inline]
    pub fn grid_origin(&self) -> (u32, u32, u32) {
        let w = ATOM_WIDTH as u32;
        (self.x * w, self.y * w, self.z * w)
    }

    /// The grid points this atom covers, as a box.
    #[inline]
    pub fn grid_box(&self) -> crate::Box3 {
        let (ox, oy, oz) = self.grid_origin();
        let e = ATOM_WIDTH as u32 - 1;
        crate::Box3::new([ox, oy, oz], [ox + e, oy + e, oz + e])
    }

    /// Iterates over the grid points covered by this atom, in the
    /// `x`-fastest order used by the storage record layout.
    pub fn grid_points(&self) -> impl Iterator<Item = (u32, u32, u32)> {
        let (ox, oy, oz) = self.grid_origin();
        let w = ATOM_WIDTH as u32;
        (0..w).flat_map(move |dz| {
            (0..w).flat_map(move |dy| (0..w).map(move |dx| (ox + dx, oy + dy, oz + dz)))
        })
    }

    /// Offset of grid point `(gx, gy, gz)` inside this atom's record payload
    /// (x-fastest layout), or `None` if the point is outside the atom.
    pub fn point_offset(&self, gx: u32, gy: u32, gz: u32) -> Option<usize> {
        let (ox, oy, oz) = self.grid_origin();
        let w = ATOM_WIDTH as u32;
        if gx < ox || gy < oy || gz < oz || gx >= ox + w || gy >= oy + w || gz >= oz + w {
            return None;
        }
        let (dx, dy, dz) = (gx - ox, gy - oy, gz - oz);
        Some((dx + w * (dy + w * dz)) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn containing_maps_grid_points_to_atoms() {
        assert_eq!(AtomCoord::containing(0, 0, 0), AtomCoord::new(0, 0, 0));
        assert_eq!(AtomCoord::containing(7, 7, 7), AtomCoord::new(0, 0, 0));
        assert_eq!(AtomCoord::containing(8, 0, 0), AtomCoord::new(1, 0, 0));
        assert_eq!(AtomCoord::containing(17, 9, 25), AtomCoord::new(2, 1, 3));
    }

    #[test]
    fn grid_points_covers_exactly_the_atom() {
        let atom = AtomCoord::new(1, 2, 3);
        let pts: Vec<_> = atom.grid_points().collect();
        assert_eq!(pts.len(), ATOM_POINTS);
        assert_eq!(pts[0], (8, 16, 24));
        assert_eq!(*pts.last().unwrap(), (15, 23, 31));
        // every point maps back to the atom and to a unique offset
        let mut seen = vec![false; ATOM_POINTS];
        for (gx, gy, gz) in pts {
            assert_eq!(AtomCoord::containing(gx, gy, gz), atom);
            let off = atom.point_offset(gx, gy, gz).unwrap();
            assert!(!seen[off]);
            seen[off] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn point_offset_rejects_outside_points() {
        let atom = AtomCoord::new(1, 1, 1);
        assert_eq!(atom.point_offset(0, 8, 8), None);
        assert_eq!(atom.point_offset(16, 8, 8), None);
        assert_eq!(atom.point_offset(8, 8, 8), Some(0));
    }

    proptest! {
        #[test]
        fn zindex_roundtrip(x in 0u32..1 << 20, y in 0u32..1 << 20, z in 0u32..1 << 20) {
            let a = AtomCoord::new(x, y, z);
            prop_assert_eq!(AtomCoord::from_zindex(a.zindex()), a);
        }

        #[test]
        fn offsets_are_x_fastest(gx in 0u32..64, gy in 0u32..64, gz in 0u32..64) {
            let atom = AtomCoord::containing(gx, gy, gz);
            let off = atom.point_offset(gx, gy, gz).unwrap();
            let w = ATOM_WIDTH as u32;
            let expect = (gx % w) + w * ((gy % w) + w * (gz % w));
            prop_assert_eq!(off, expect as usize);
        }
    }
}
