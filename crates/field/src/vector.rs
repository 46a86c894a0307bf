//! Multi-component fields in planar (structure-of-arrays) layout.

use crate::scalar::ScalarField;
use tdb_zorder::{AtomCoord, ATOM_POINTS};

/// A field with `C` scalar components stored planar, one [`ScalarField`]
/// per component. Planar layout keeps finite-difference sweeps over a single
/// component cache-friendly.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField<const C: usize> {
    components: [ScalarField; C],
}

/// Three-component vector field (velocity, magnetic field, vorticity, ...).
pub type VectorField3 = VectorField<3>;

impl<const C: usize> VectorField<C> {
    /// Zero-filled field.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            components: std::array::from_fn(|_| ScalarField::zeros(nx, ny, nz)),
        }
    }

    /// Assembles a field from per-component scalars of identical shape.
    pub fn from_components(components: [ScalarField; C]) -> Self {
        let dims = components[0].dims();
        assert!(
            components.iter().all(|c| c.dims() == dims),
            "component shape mismatch"
        );
        Self { components }
    }

    /// Extents.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        self.components[0].dims()
    }

    /// Number of components.
    #[inline]
    pub fn ncomp(&self) -> usize {
        C
    }

    /// Borrow of component `c`.
    #[inline]
    pub fn comp(&self, c: usize) -> &ScalarField {
        &self.components[c]
    }

    /// Mutable borrow of component `c`.
    #[inline]
    pub fn comp_mut(&mut self, c: usize) -> &mut ScalarField {
        &mut self.components[c]
    }

    /// All components.
    #[inline]
    pub fn components(&self) -> &[ScalarField; C] {
        &self.components
    }

    /// Value of every component at one point.
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> [f32; C] {
        std::array::from_fn(|c| self.components[c].get(x, y, z))
    }

    /// Euclidean norm of the component vector at one point.
    #[inline]
    pub fn norm_at(&self, x: usize, y: usize, z: usize) -> f32 {
        self.at(x, y, z).iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Pointwise Euclidean norm as a scalar field.
    pub fn norm(&self) -> ScalarField {
        let (nx, ny, nz) = self.dims();
        let mut out = ScalarField::zeros(nx, ny, nz);
        {
            let dst = out.as_mut_slice();
            for comp in &self.components {
                for (d, s) in dst.iter_mut().zip(comp.as_slice()) {
                    *d += s * s;
                }
            }
            for d in dst.iter_mut() {
                *d = d.sqrt();
            }
        }
        out
    }

    /// Extracts one atom as `C` concatenated 512-value component planes
    /// (matching the storage record layout: all of comp 0, then comp 1, ...).
    pub fn extract_atom(&self, atom: AtomCoord) -> Vec<f32> {
        let mut out = Vec::with_capacity(C * ATOM_POINTS);
        for comp in &self.components {
            out.extend_from_slice(&comp.extract_atom(atom));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VectorField3 {
        let fx = ScalarField::from_fn(8, 8, 8, |x, _, _| x as f32);
        let fy = ScalarField::from_fn(8, 8, 8, |_, y, _| 2.0 * y as f32);
        let fz = ScalarField::from_fn(8, 8, 8, |_, _, z| -(z as f32));
        VectorField::from_components([fx, fy, fz])
    }

    #[test]
    fn at_and_norm() {
        let v = sample();
        assert_eq!(v.at(3, 2, 1), [3.0, 4.0, -1.0]);
        let n = v.norm_at(3, 2, 1);
        assert!((n - (26.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(v.norm().get(3, 2, 1), n);
    }

    #[test]
    fn norm_field_matches_pointwise() {
        let v = sample();
        let n = v.norm();
        for z in 0..8 {
            for y in 0..8 {
                for x in 0..8 {
                    assert!((n.get(x, y, z) - v.norm_at(x, y, z)).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn atom_roundtrip_planar_layout() {
        let v = sample();
        let atom = AtomCoord::new(0, 0, 0);
        let payload = v.extract_atom(atom);
        assert_eq!(payload.len(), 3 * ATOM_POINTS);
        // component planes are concatenated
        assert_eq!(payload[1], 1.0); // comp x at (1,0,0)
        assert_eq!(payload[ATOM_POINTS + 8], 2.0); // comp y at (0,1,0)
        let off = atom.point_offset(5, 6, 7).unwrap();
        assert_eq!(
            [0, 1, 2].map(|c| payload[c * ATOM_POINTS + off]),
            v.at(5, 6, 7)
        );
    }

    #[test]
    #[should_panic(expected = "component shape mismatch")]
    fn from_components_rejects_mixed_shapes() {
        let a = ScalarField::zeros(4, 4, 4);
        let b = ScalarField::zeros(4, 4, 5);
        let _ = VectorField::from_components([a.clone(), a, b]);
    }
}
