//! Dense scalar fields.

use tdb_zorder::{AtomCoord, ATOM_POINTS, ATOM_WIDTH};

/// A dense 3-D `f32` array with x-fastest (Fortran-like first-axis-fastest)
/// layout: `idx = x + nx * (y + ny * z)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarField {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f32>,
}

impl ScalarField {
    /// Zero-filled field.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0);
        Self {
            nx,
            ny,
            nz,
            data: vec![0.0; nx * ny * nz],
        }
    }

    /// Builds a field from a function of the grid indices.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        mut f: impl FnMut(usize, usize, usize) -> f32,
    ) -> Self {
        let mut s = Self::zeros(nx, ny, nz);
        for z in 0..nz {
            for y in 0..ny {
                let row = s.row_index(0, y, z);
                for x in 0..nx {
                    s.data[row + x] = f(x, y, z);
                }
            }
        }
        s
    }

    /// Wraps an existing buffer. `data.len()` must equal `nx*ny*nz`.
    pub fn from_vec(nx: usize, ny: usize, nz: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), nx * ny * nz, "buffer length mismatch");
        Self { nx, ny, nz, data }
    }

    /// Extents.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the field has zero points (never true by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn row_index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Value at `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        self.data[self.row_index(x, y, z)]
    }

    /// Sets the value at `(x, y, z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f32) {
        let i = self.row_index(x, y, z);
        self.data[i] = v;
    }

    /// Raw storage, x-fastest.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One contiguous x-row.
    #[inline]
    pub fn row(&self, y: usize, z: usize) -> &[f32] {
        let start = self.row_index(0, y, z);
        &self.data[start..start + self.nx]
    }

    /// One contiguous x-row, mutably.
    #[inline]
    pub fn row_mut(&mut self, y: usize, z: usize) -> &mut [f32] {
        let start = self.row_index(0, y, z);
        &mut self.data[start..start + self.nx]
    }

    /// Reshapes to `nx × ny × nz` zeros, keeping the allocation (scan
    /// workers reuse one field across the chunks they handle).
    pub fn reset(&mut self, nx: usize, ny: usize, nz: usize) {
        assert!(nx > 0 && ny > 0 && nz > 0);
        (self.nx, self.ny, self.nz) = (nx, ny, nz);
        let n = nx * ny * nz;
        if n > self.data.capacity() {
            // fresh zero pages instead of a copy of the old contents
            self.data = vec![0.0; n];
        } else {
            self.data.clear();
            self.data.resize(n, 0.0);
        }
    }

    /// Bytes of heap the field holds (its capacity, not its length).
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Extracts one 8³ atom as a 512-element x-fastest payload.
    ///
    /// The atom must lie fully inside the field (grid extents are multiples
    /// of the atom width in every stored dataset).
    pub fn extract_atom(&self, atom: AtomCoord) -> [f32; ATOM_POINTS] {
        let (ox, oy, oz) = atom.grid_origin();
        let (ox, oy, oz) = (ox as usize, oy as usize, oz as usize);
        assert!(
            ox + ATOM_WIDTH <= self.nx && oy + ATOM_WIDTH <= self.ny && oz + ATOM_WIDTH <= self.nz,
            "atom {atom:?} outside field {:?}",
            self.dims()
        );
        let mut out = [0.0f32; ATOM_POINTS];
        for dz in 0..ATOM_WIDTH {
            for dy in 0..ATOM_WIDTH {
                let src = self.row_index(ox, oy + dy, oz + dz);
                let dst = ATOM_WIDTH * (dy + ATOM_WIDTH * dz);
                out[dst..dst + ATOM_WIDTH].copy_from_slice(&self.data[src..src + ATOM_WIDTH]);
            }
        }
        out
    }

    /// In-place map.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Pointwise combination with another field of identical shape.
    pub fn zip_inplace(&mut self, other: &ScalarField, mut f: impl FnMut(f32, f32) -> f32) {
        assert_eq!(self.dims(), other.dims());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, *b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp(nx: usize, ny: usize, nz: usize) -> ScalarField {
        ScalarField::from_fn(nx, ny, nz, |x, y, z| (x + 10 * y + 100 * z) as f32)
    }

    #[test]
    fn layout_is_x_fastest() {
        let f = ramp(4, 3, 2);
        assert_eq!(f.as_slice()[0], 0.0);
        assert_eq!(f.as_slice()[1], 1.0); // x+1
        assert_eq!(f.as_slice()[4], 10.0); // y+1
        assert_eq!(f.as_slice()[12], 100.0); // z+1
        assert_eq!(f.get(3, 2, 1), 123.0);
        assert_eq!(f.row(2, 1), &[120.0, 121.0, 122.0, 123.0]);
    }

    #[test]
    fn atom_roundtrip() {
        let f = ramp(16, 16, 16);
        let atom = AtomCoord::new(1, 0, 1);
        let payload = f.extract_atom(atom);
        // every point of the atom sits at its atom-local offset
        for (gx, gy, gz) in atom.grid_points() {
            assert_eq!(
                payload[atom.point_offset(gx, gy, gz).unwrap()],
                f.get(gx as usize, gy as usize, gz as usize)
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn extract_atom_checks_bounds() {
        let f = ramp(8, 8, 8);
        let _ = f.extract_atom(AtomCoord::new(1, 0, 0));
    }

    proptest! {
        #[test]
        fn get_set_roundtrip(x in 0usize..6, y in 0usize..5, z in 0usize..4, v in -1e6f32..1e6) {
            let mut f = ScalarField::zeros(6, 5, 4);
            f.set(x, y, z, v);
            prop_assert_eq!(f.get(x, y, z), v);
            prop_assert_eq!(f.as_slice().iter().filter(|&&w| w != 0.0).count(),
                            usize::from(v != 0.0));
        }
    }
}
