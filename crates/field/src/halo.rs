//! Fields with ghost (halo) layers.
//!
//! Kernel computations need "a band of data ... equal to a kernel
//! half-width ... on each of the sides of the box forming the domain of the
//! computation" (paper §4). A padded field owns an interior region plus `h`
//! ghost layers on every side; interior coordinates are addressed with
//! signed indices so that ghost points are `-h .. 0` and `n .. n+h`.

use crate::scalar::ScalarField;
use crate::vector::VectorField;

/// Scalar field with `h` ghost layers on each side of the interior.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedScalar {
    halo: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    storage: ScalarField,
}

impl PaddedScalar {
    /// Zero-filled padded field with interior `(nx, ny, nz)` and halo `h`.
    pub fn zeros(nx: usize, ny: usize, nz: usize, h: usize) -> Self {
        Self {
            halo: h,
            nx,
            ny,
            nz,
            storage: ScalarField::zeros(nx + 2 * h, ny + 2 * h, nz + 2 * h),
        }
    }

    /// Halo width.
    #[inline]
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Interior extents.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Value at signed interior coordinates (ghost region included).
    #[inline]
    pub fn get(&self, x: isize, y: isize, z: isize) -> f32 {
        let h = self.halo as isize;
        debug_assert!(
            x >= -h && y >= -h && z >= -h,
            "index ({x},{y},{z}) below halo"
        );
        self.storage
            .get((x + h) as usize, (y + h) as usize, (z + h) as usize)
    }

    /// One contiguous padded x-row (ghosts included) at signed interior
    /// row coordinates `(y, z)`. The returned slice starts at storage
    /// `x = 0`, i.e. interior `x = -halo`, and spans `nx + 2*halo` points.
    ///
    /// This is the flat-slice entry point for chunked kernels: a stencil
    /// term at offset `o` for the whole interior row is
    /// `&row[(halo as isize + o) as usize..][..nx]`.
    #[inline]
    pub fn padded_row(&self, y: isize, z: isize) -> &[f32] {
        let h = self.halo as isize;
        debug_assert!(y >= -h && z >= -h, "row ({y},{z}) below halo");
        self.storage.row((y + h) as usize, (z + h) as usize)
    }

    /// The whole padded cube (ghosts included) as a plain x-fastest field:
    /// interior point `(x, y, z)` sits at `(x + h, y + h, z + h)`. Row
    /// kernels address stencil neighbours in its flat slice by stride.
    #[inline]
    pub fn padded(&self) -> &ScalarField {
        &self.storage
    }

    /// [`PaddedScalar::padded_row`], mutably (halo assembly copies atom
    /// row segments into it).
    #[inline]
    pub fn padded_row_mut(&mut self, y: isize, z: isize) -> &mut [f32] {
        let h = self.halo as isize;
        debug_assert!(y >= -h && z >= -h, "row ({y},{z}) below halo");
        self.storage.row_mut((y + h) as usize, (z + h) as usize)
    }

    /// Reshapes to a zeroed `nx × ny × nz` interior with halo `h`, keeping
    /// the allocation.
    pub fn reset(&mut self, nx: usize, ny: usize, nz: usize, h: usize) {
        (self.halo, self.nx, self.ny, self.nz) = (h, nx, ny, nz);
        self.storage.reset(nx + 2 * h, ny + 2 * h, nz + 2 * h);
    }

    /// Sets a value at signed interior coordinates.
    #[inline]
    pub fn set(&mut self, x: isize, y: isize, z: isize, v: f32) {
        let h = self.halo as isize;
        self.storage
            .set((x + h) as usize, (y + h) as usize, (z + h) as usize, v);
    }

    /// Fills the whole padded cube (interior + ghosts) from a function of
    /// *signed interior* coordinates. Used to apply periodic wrapping or
    /// remote halo data.
    pub fn fill(&mut self, mut f: impl FnMut(isize, isize, isize) -> f32) {
        let h = self.halo as isize;
        let (sx, sy, sz) = self.storage.dims();
        for z in 0..sz {
            for y in 0..sy {
                for x in 0..sx {
                    self.storage
                        .set(x, y, z, f(x as isize - h, y as isize - h, z as isize - h));
                }
            }
        }
    }

    /// Copies the interior (ghosts dropped) into a plain field.
    pub fn interior(&self) -> ScalarField {
        let h = self.halo;
        let mut out = ScalarField::zeros(self.nx, self.ny, self.nz);
        for z in 0..self.nz {
            for y in 0..self.ny {
                out.row_mut(y, z)
                    .copy_from_slice(&self.storage.row(y + h, z + h)[h..h + self.nx]);
            }
        }
        out
    }
}

/// Vector field with ghost layers; one [`PaddedScalar`] per component.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedVector<const C: usize> {
    components: [PaddedScalar; C],
}

/// The smallest cube (one point, no halo): a buffer to
/// [`PaddedVector::reset`] into shape later.
impl<const C: usize> Default for PaddedVector<C> {
    fn default() -> Self {
        Self::zeros(1, 1, 1, 0)
    }
}

impl<const C: usize> PaddedVector<C> {
    /// Zero-filled padded vector field.
    pub fn zeros(nx: usize, ny: usize, nz: usize, h: usize) -> Self {
        Self {
            components: std::array::from_fn(|_| PaddedScalar::zeros(nx, ny, nz, h)),
        }
    }

    /// Halo width.
    #[inline]
    pub fn halo(&self) -> usize {
        self.components[0].halo()
    }

    /// Interior extents.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        self.components[0].dims()
    }

    /// Borrow of component `c`.
    #[inline]
    pub fn comp(&self, c: usize) -> &PaddedScalar {
        &self.components[c]
    }

    /// Mutable borrow of component `c`.
    #[inline]
    pub fn comp_mut(&mut self, c: usize) -> &mut PaddedScalar {
        &mut self.components[c]
    }

    /// All components, mutably (row-copy assembly fills them together).
    #[inline]
    pub fn comps_mut(&mut self) -> &mut [PaddedScalar; C] {
        &mut self.components
    }

    /// Reshapes every component ([`PaddedScalar::reset`]).
    pub fn reset(&mut self, nx: usize, ny: usize, nz: usize, h: usize) {
        for c in &mut self.components {
            c.reset(nx, ny, nz, h);
        }
    }

    /// Copies the interior (ghosts dropped) into a plain field.
    pub fn interior(&self) -> VectorField<C> {
        VectorField::from_components(std::array::from_fn(|c| self.components[c].interior()))
    }

    /// Bytes of heap the padded cube holds.
    pub fn heap_bytes(&self) -> usize {
        self.components.iter().map(|c| c.storage.heap_bytes()).sum()
    }

    /// Component values at signed interior coordinates.
    #[inline]
    pub fn at(&self, x: isize, y: isize, z: isize) -> [f32; C] {
        std::array::from_fn(|c| self.components[c].get(x, y, z))
    }

    /// Fills all components from a periodic source field. The interior of
    /// the padded field corresponds to `src` restricted to the box with
    /// lower corner `origin`; ghost points wrap around the `src` domain.
    pub fn fill_periodic_from(&mut self, src: &VectorField<C>, origin: [usize; 3]) {
        let (snx, sny, snz) = src.dims();
        let dims = [snx as isize, sny as isize, snz as isize];
        for c in 0..C {
            let comp = src.comp(c);
            self.components[c].fill(|x, y, z| {
                let gx = (origin[0] as isize + x).rem_euclid(dims[0]) as usize;
                let gy = (origin[1] as isize + y).rem_euclid(dims[1]) as usize;
                let gz = (origin[2] as isize + z).rem_euclid(dims[2]) as usize;
                comp.get(gx, gy, gz)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::VectorField3;

    #[test]
    fn signed_indexing_reaches_ghosts() {
        let mut p = PaddedScalar::zeros(4, 4, 4, 2);
        p.set(-2, 0, 0, 7.0);
        p.set(5, 3, 3, 9.0);
        assert_eq!(p.get(-2, 0, 0), 7.0);
        assert_eq!(p.get(5, 3, 3), 9.0);
        assert_eq!(p.get(0, 0, 0), 0.0);
    }

    #[test]
    fn interior_drops_ghosts() {
        let mut p = PaddedScalar::zeros(3, 3, 3, 1);
        p.fill(|x, y, z| (x * 100 + y * 10 + z) as f32);
        let i = p.interior();
        assert_eq!(i.dims(), (3, 3, 3));
        assert_eq!(i.get(0, 0, 0), 0.0);
        assert_eq!(i.get(2, 1, 0), 210.0);
    }

    #[test]
    fn periodic_fill_wraps() {
        let fx = ScalarField::from_fn(4, 4, 4, |x, _, _| x as f32);
        let fy = ScalarField::from_fn(4, 4, 4, |_, y, _| y as f32);
        let fz = ScalarField::from_fn(4, 4, 4, |_, _, z| z as f32);
        let v = VectorField3::from_components([fx, fy, fz]);
        let mut p: PaddedVector<3> = PaddedVector::zeros(2, 2, 2, 1);
        p.fill_periodic_from(&v, [0, 0, 0]);
        // ghost at x = -1 wraps to x = 3
        assert_eq!(p.at(-1, 0, 0), [3.0, 0.0, 0.0]);
        // ghost at z = 2 maps straight to z = 2 (still inside src)
        assert_eq!(p.at(0, 0, 2), [0.0, 0.0, 2.0]);
        // interior passthrough
        assert_eq!(p.at(1, 1, 1), [1.0, 1.0, 1.0]);
    }

    #[test]
    fn periodic_fill_with_offset_origin() {
        let fx = ScalarField::from_fn(4, 4, 4, |x, y, z| (x + 10 * y + 100 * z) as f32);
        let v = VectorField::<1>::from_components([fx]);
        let mut p: PaddedVector<1> = PaddedVector::zeros(2, 2, 2, 1);
        p.fill_periodic_from(&v, [3, 0, 0]);
        // interior (0,0,0) = src (3,0,0); interior (1,0,0) wraps to src (0,0,0)
        assert_eq!(p.at(0, 0, 0), [3.0]);
        assert_eq!(p.at(1, 0, 0), [0.0]);
        assert_eq!(p.at(2, 0, 0), [1.0]);
    }
}
