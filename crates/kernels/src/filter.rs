//! Spatial filtering kernels.
//!
//! The JHTDB exposes box- and Gaussian-filtered quantities (paper §2 lists
//! "spatial filtering" among the built-in data-intensive routines). Both are
//! separable and evaluated as three 1-D passes over a padded chunk.

use tdb_field::{PaddedScalar, PaddedVector, ScalarField};

/// Separable filter defined by symmetric 1-D weights.
#[derive(Debug, Clone, PartialEq)]
pub struct SeparableFilter {
    /// Weights for offsets `-r ..= r`; must sum to 1.
    weights: Vec<f64>,
}

impl SeparableFilter {
    /// Top-hat (box) filter of half-width `r` (2r+1 points per axis).
    pub fn box_filter(r: usize) -> Self {
        let n = 2 * r + 1;
        Self {
            weights: vec![1.0 / n as f64; n],
        }
    }

    /// Kernel half-width (halo needed on every side).
    pub fn halo(&self) -> usize {
        self.weights.len() / 2
    }

    /// Filters the interior of a padded scalar chunk.
    pub fn apply(&self, f: &PaddedScalar) -> ScalarField {
        let (nx, ny, nz) = f.dims();
        let r = self.halo() as isize;
        assert!(f.halo() >= self.halo(), "halo too small for filter");
        // pass 1: x, into a padded intermediate that keeps y/z ghosts
        let h = f.halo();
        let mut tmp_x = PaddedScalar::zeros(nx, ny, nz, h);
        for z in -(h as isize)..(nz + h) as isize {
            for y in -(h as isize)..(ny + h) as isize {
                for x in 0..nx as isize {
                    let mut acc = 0.0f64;
                    for (k, &w) in self.weights.iter().enumerate() {
                        acc += w * f64::from(f.get(x + k as isize - r, y, z));
                    }
                    tmp_x.set(x, y, z, acc as f32);
                }
            }
        }
        let mut tmp_y = PaddedScalar::zeros(nx, ny, nz, h);
        for z in -(h as isize)..(nz + h) as isize {
            for y in 0..ny as isize {
                for x in 0..nx as isize {
                    let mut acc = 0.0f64;
                    for (k, &w) in self.weights.iter().enumerate() {
                        acc += w * f64::from(tmp_x.get(x, y + k as isize - r, z));
                    }
                    tmp_y.set(x, y, z, acc as f32);
                }
            }
        }
        let mut out = ScalarField::zeros(nx, ny, nz);
        for z in 0..nz as isize {
            for y in 0..ny as isize {
                for x in 0..nx as isize {
                    let mut acc = 0.0f64;
                    for (k, &w) in self.weights.iter().enumerate() {
                        acc += w * f64::from(tmp_y.get(x, y, z + k as isize - r));
                    }
                    out.set(x as usize, y as usize, z as usize, acc as f32);
                }
            }
        }
        out
    }

    /// Filters every component of a padded vector chunk.
    pub fn apply_vector<const C: usize>(&self, v: &PaddedVector<C>) -> Vec<ScalarField> {
        (0..C).map(|c| self.apply(v.comp(c))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_field::VectorField;

    fn pad_const(nx: usize, v: f32, h: usize) -> PaddedScalar {
        let mut p = PaddedScalar::zeros(nx, nx, nx, h);
        p.fill(|_, _, _| v);
        p
    }

    #[test]
    fn filters_preserve_constants() {
        for filt in [
            SeparableFilter::box_filter(1),
            SeparableFilter::box_filter(2),
        ] {
            let p = pad_const(6, 3.5, filt.halo());
            let out = filt.apply(&p);
            for v in out.as_slice() {
                assert!((v - 3.5).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn box_filter_averages_impulse() {
        let filt = SeparableFilter::box_filter(1);
        let mut p = PaddedScalar::zeros(5, 5, 5, 1);
        p.set(2, 2, 2, 27.0);
        let out = filt.apply(&p);
        // impulse spreads to the 3^3 neighbourhood with weight 1/27 each
        assert!((out.get(2, 2, 2) - 1.0).abs() < 1e-5);
        assert!((out.get(1, 2, 3) - 1.0).abs() < 1e-5);
        assert!(out.get(0, 0, 0).abs() < 1e-6);
    }

    #[test]
    fn filtering_smooths_oscillation() {
        // alternating +1/-1 along x averages toward 0 under a box filter
        let filt = SeparableFilter::box_filter(1);
        let mut p = PaddedScalar::zeros(8, 4, 4, 1);
        p.fill(|x, _, _| if x.rem_euclid(2) == 0 { 1.0 } else { -1.0 });
        let out = filt.apply(&p);
        for v in out.as_slice() {
            assert!(v.abs() < 0.4);
        }
    }

    #[test]
    fn vector_filter_applies_per_component() {
        let filt = SeparableFilter::box_filter(1);
        let mut v: PaddedVector<3> = PaddedVector::zeros(4, 4, 4, 1);
        v.comp_mut(1).fill(|_, _, _| 2.0);
        let outs = filt.apply_vector(&v);
        assert_eq!(outs.len(), 3);
        assert!(outs[0].as_slice().iter().all(|&x| x.abs() < 1e-6));
        assert!(outs[1].as_slice().iter().all(|&x| (x - 2.0).abs() < 1e-5));
        let _ =
            VectorField::<3>::from_components([outs[0].clone(), outs[1].clone(), outs[2].clone()]);
    }
}
