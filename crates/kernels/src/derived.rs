//! The catalogue of threshold-able fields.
//!
//! "The stored procedure performing the evaluation must have an
//! implementation for each derived field of interest" (paper §7). This
//! module is that catalogue: each variant knows how far its stencils reach
//! and how to evaluate the *thresholded quantity* (the norm or absolute
//! value the paper compares against `k`) over a padded chunk.

use crate::diff::{map_row, DiffScheme};
use tdb_field::{PaddedVector, ScalarField, VectorField};
use tdb_zorder::ATOM_WIDTH;

/// A field whose norm (or absolute value) can be thresholded.
///
/// `Norm` is the raw-field case of the paper's Fig. 9(c)/(f): no kernel, no
/// halo, no additional computation. The others are genuinely derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DerivedField {
    /// Euclidean norm of the stored (raw) field itself.
    Norm,
    /// Norm of the curl. Applied to velocity this is the vorticity norm;
    /// applied to the magnetic field it is the electric-current norm.
    CurlNorm,
    /// Second invariant `Q = ½(‖Ω‖² − ‖S‖²)` of the velocity gradient — a
    /// non-linear combination of all nine gradient components (paper §5.4).
    QCriterion,
    /// Third invariant `R = −det(∇u)` of the velocity gradient.
    RInvariant,
    /// Frobenius norm of the full velocity-gradient tensor.
    GradientNorm,
    /// Norm of the strain-rate tensor `S = ½(∇u + ∇uᵀ)`.
    StrainRateNorm,
    /// Divergence (absolute value) — useful as a solenoidality diagnostic.
    DivergenceAbs,
    /// Norm of the box-filtered field (top-hat of half-width `radius`
    /// grid points per axis) — the JHTDB's filtered quantities.
    /// [`Self::parse`] admits radii `1 ..= ATOM_WIDTH`, so the halo reaches
    /// only face-neighbour atoms, like every difference stencil.
    BoxFilteredNorm { radius: u8 },
    /// Norm of the component-wise Laplacian `∇²u` (diffusion-term
    /// intensity).
    LaplacianNorm,
}

impl DerivedField {
    /// Every supported field.
    pub fn all() -> [DerivedField; 8] {
        [
            DerivedField::Norm,
            DerivedField::CurlNorm,
            DerivedField::QCriterion,
            DerivedField::RInvariant,
            DerivedField::GradientNorm,
            DerivedField::StrainRateNorm,
            DerivedField::DivergenceAbs,
            DerivedField::LaplacianNorm,
        ]
    }

    /// Stable identifier used for cache keys and wire messages.
    pub fn name(&self) -> String {
        match self {
            DerivedField::Norm => "norm".into(),
            DerivedField::CurlNorm => "curl_norm".into(),
            DerivedField::QCriterion => "q_criterion".into(),
            DerivedField::RInvariant => "r_invariant".into(),
            DerivedField::GradientNorm => "gradient_norm".into(),
            DerivedField::StrainRateNorm => "strain_rate_norm".into(),
            DerivedField::DivergenceAbs => "divergence_abs".into(),
            DerivedField::BoxFilteredNorm { radius } => format!("box_filtered_norm:{radius}"),
            DerivedField::LaplacianNorm => "laplacian_norm".into(),
        }
    }

    /// Parses a [`DerivedField::name`] string.
    pub fn parse(s: &str) -> Option<DerivedField> {
        if let Some(r) = s.strip_prefix("box_filtered_norm:") {
            let in_one_atom = |r: &u8| (1..=ATOM_WIDTH).contains(&usize::from(*r));
            let radius = r.parse().ok().filter(in_one_atom)?;
            return Some(DerivedField::BoxFilteredNorm { radius });
        }
        Self::all().into_iter().find(|f| f.name() == s)
    }

    /// How far the field's stencils reach past the box `origin .. origin +
    /// extent`: the halo its computation domain is dilated by (paper §4).
    pub fn reach(&self, scheme: &DiffScheme, origin: [usize; 3], extent: [usize; 3]) -> usize {
        match self {
            DerivedField::Norm => 0,
            DerivedField::BoxFilteredNorm { radius } => usize::from(*radius),
            _ => scheme.reach(*self == DerivedField::LaplacianNorm, origin, extent),
        }
    }

    /// [`Self::reach`] of the whole grid.
    pub fn halo(&self, scheme: &DiffScheme) -> usize {
        self.reach(scheme, [0; 3], scheme.dims)
    }

    /// Whether the field's stencil reads only ghosts in line with the point
    /// it derives, along one axis: true for every difference stencil (and
    /// for `Norm`, which reads none); false for the box filter, whose
    /// separable passes reach the padded cube's edges and corners.
    pub fn reads_axes_only(&self) -> bool {
        !matches!(self, DerivedField::BoxFilteredNorm { .. })
    }

    /// Evaluates the thresholded quantity over the interior of a padded
    /// chunk whose interior origin is at global coordinates `origin`.
    pub fn eval(
        &self,
        input: &PaddedVector<3>,
        scheme: &DiffScheme,
        origin: [usize; 3],
    ) -> ScalarField {
        let (nx, ny, nz) = input.dims();
        let mut out = ScalarField::zeros(nx, ny, nz);
        self.eval_rows(input, scheme, origin, &mut Vec::new(), |y, z, row| {
            out.row_mut(y, z).copy_from_slice(row)
        });
        out
    }

    /// `(component, axis)` of every partial-derivative row the field
    /// reduces, in the order its reduction reads them.
    #[rustfmt::skip]
    fn partials(&self) -> &'static [(usize, usize)] {
        match self {
            DerivedField::Norm | DerivedField::BoxFilteredNorm { .. } => &[],
            // (∂v_z/∂y − ∂v_y/∂z, ∂v_x/∂z − ∂v_z/∂x, ∂v_y/∂x − ∂v_x/∂y)
            DerivedField::CurlNorm => &[(2, 1), (1, 2), (0, 2), (2, 0), (1, 0), (0, 1)],
            DerivedField::DivergenceAbs => &[(0, 0), (1, 1), (2, 2)],
            // the gradient tensor ∂u_i/∂x_j, row-major
            _ => &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)],
        }
    }

    /// Evaluates the thresholded quantity one interior x-row at a time and
    /// hands each row to `visit(y, z, row)` in ascending `(z, y)` order —
    /// the derived field itself never exists in memory.
    ///
    /// Per row, the 3/6/9 partial-derivative rows go into `scratch` (which
    /// is grown as needed and can be reused from chunk to chunk) and are
    /// reduced to the scalar with the same f32 arithmetic, in the same
    /// order, as the plane-at-a-time references (`curl_padded(..).norm()`,
    /// `grad_padded` + per-point invariants): values are bit-identical.
    pub fn eval_rows(
        &self,
        input: &PaddedVector<3>,
        scheme: &DiffScheme,
        origin: [usize; 3],
        scratch: &mut Vec<f32>,
        mut visit: impl FnMut(usize, usize, &[f32]),
    ) {
        let fields = std::slice::from_ref(self);
        Self::eval_rows_many(fields, input, scheme, origin, scratch, |_, y, z, row| {
            visit(y, z, row)
        })
    }

    /// [`Self::eval_rows`] of several fields over one padded cube, handing
    /// `visit(field, y, z, row)` each field's rows (`field` indexes
    /// `fields`), in ascending `(z, y)` order per field. Every partial row
    /// any of them reduces is computed once per output row; a partial row
    /// does not depend on which field asked for it, so each field's rows
    /// are bit-identical to its own `eval_rows`.
    pub fn eval_rows_many(
        fields: &[DerivedField],
        input: &PaddedVector<3>,
        scheme: &DiffScheme,
        origin: [usize; 3],
        scratch: &mut Vec<f32>,
        visit: impl FnMut(usize, usize, usize, &[f32]),
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the one precondition of a `#[target_feature]` function
            // is that the CPU has the feature, and it was just detected; the
            // body is safe Rust without intrinsics (DESIGN.md §8).
            return unsafe { Self::eval_rows_avx2(fields, input, scheme, origin, scratch, visit) };
        }
        Self::eval_rows_body(fields, input, scheme, origin, scratch, visit)
    }

    /// The row loop compiled for 256-bit vectors. Not `fma`: a fused
    /// multiply-add rounds once where `mul` + `add` round twice.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn eval_rows_avx2(
        fields: &[DerivedField],
        input: &PaddedVector<3>,
        scheme: &DiffScheme,
        origin: [usize; 3],
        scratch: &mut Vec<f32>,
        visit: impl FnMut(usize, usize, usize, &[f32]),
    ) {
        Self::eval_rows_body(fields, input, scheme, origin, scratch, visit)
    }

    /// The whole `(z, y)` loop — stencils, reduction, `visit` — inlined
    /// into each of its two instantiations, which therefore differ in
    /// vector width only: lanes are points, and a point's operations and
    /// their order are the same in both.
    #[inline(always)]
    fn eval_rows_body(
        fields: &[DerivedField],
        input: &PaddedVector<3>,
        scheme: &DiffScheme,
        origin: [usize; 3],
        scratch: &mut Vec<f32>,
        mut visit: impl FnMut(usize, usize, usize, &[f32]),
    ) {
        let (nx, ny, nz) = input.dims();
        for (f, field) in fields.iter().enumerate() {
            let DerivedField::BoxFilteredNorm { radius } = field else {
                continue;
            };
            // the separable filter rounds to f32 between its three passes,
            // so an output row needs whole filtered planes: it alone still
            // materialises, and only its rows are handed on
            let filt = crate::filter::SeparableFilter::box_filter(usize::from(*radius));
            let mut comps = filt.apply_vector(input).into_iter();
            let norm = VectorField::<3>::from_components(std::array::from_fn(|_| {
                comps.next().expect("three components")
            }))
            .norm();
            for z in 0..nz {
                for y in 0..ny {
                    visit(f, y, z, norm.row(y, z));
                }
            }
        }
        // every (component, axis, second) partial any field reduces, once;
        // per field, where its partials sit, in the order it reads them
        let mut needed: Vec<(usize, usize, bool)> = Vec::new();
        let slots: Vec<Vec<usize>> = (fields.iter())
            .map(|field| {
                let second = matches!(field, DerivedField::LaplacianNorm);
                (field.partials().iter())
                    .map(|&(comp, axis)| {
                        let key = (comp, axis, second);
                        needed.iter().position(|k| *k == key).unwrap_or_else(|| {
                            needed.push(key);
                            needed.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        if fields
            .iter()
            .all(|f| matches!(f, DerivedField::BoxFilteredNorm { .. }))
        {
            return;
        }
        let partials: Vec<_> = (needed.iter())
            .map(|&(comp, axis, second)| scheme.deriv_rows(input.comp(comp), axis, second, origin))
            .collect();
        scratch.clear();
        scratch.resize((partials.len() + 1) * nx, 0.0);
        let (out, rows) = scratch.split_at_mut(nx);
        let h = input.halo();
        for z in 0..nz {
            for y in 0..ny {
                for (row, partial) in rows.chunks_exact_mut(nx).zip(&partials) {
                    partial.row(y, z, row);
                }
                for (f, (field, slot)) in fields.iter().zip(&slots).enumerate() {
                    match field {
                        DerivedField::Norm => {
                            let (yi, zi) = (y as isize, z as isize);
                            let r0 = &input.comp(0).padded_row(yi, zi)[h..h + nx];
                            let r1 = &input.comp(1).padded_row(yi, zi)[h..h + nx];
                            let r2 = &input.comp(2).padded_row(yi, zi)[h..h + nx];
                            map_row([r0, r1, r2], out, |v: &[f32; 3]| {
                                (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
                            });
                        }
                        DerivedField::CurlNorm => {
                            map_row(gather(rows, slot, nx), out, |p: &[f32; 6]| {
                                norm3([p[0] - p[1], p[2] - p[3], p[4] - p[5]])
                            })
                        }
                        DerivedField::QCriterion => {
                            map_row(gather(rows, slot, nx), out, q_of_gradient)
                        }
                        DerivedField::RInvariant => {
                            map_row(gather(rows, slot, nx), out, r_of_gradient)
                        }
                        DerivedField::GradientNorm => {
                            map_row(gather(rows, slot, nx), out, |a: &[f32; 9]| {
                                a.iter().map(|v| v * v).sum::<f32>().sqrt()
                            })
                        }
                        DerivedField::StrainRateNorm => {
                            map_row(gather(rows, slot, nx), out, strain_norm_of_gradient)
                        }
                        DerivedField::DivergenceAbs => {
                            map_row(gather(rows, slot, nx), out, |p: &[f32; 3]| {
                                (p[0] + p[1] + p[2]).abs()
                            })
                        }
                        DerivedField::LaplacianNorm => {
                            map_row(gather(rows, slot, nx), out, |p: &[f32; 9]| {
                                norm3([p[0] + p[1] + p[2], p[3] + p[4] + p[5], p[6] + p[7] + p[8]])
                            })
                        }
                        // handed on above
                        DerivedField::BoxFilteredNorm { .. } => continue,
                    }
                    visit(f, y, z, out);
                }
            }
        }
    }
}

/// The `N` partial rows a field reduces, by `slot`, from the shared rows
/// of length `nx` laid end to end in `rows`.
#[inline(always)]
fn gather<'a, const N: usize>(rows: &'a [f32], slot: &[usize], nx: usize) -> [&'a [f32]; N] {
    std::array::from_fn(|k| {
        let s = slot.get(k).copied().unwrap_or(0);
        rows.get(s * nx..(s + 1) * nx).unwrap_or(&[])
    })
}

/// Euclidean norm summed from `0.0` component by component, as
/// `VectorField::norm` does it plane by plane.
#[inline(always)]
fn norm3(v: [f32; 3]) -> f32 {
    let mut s = 0.0f32;
    for c in v {
        s += c * c;
    }
    s.sqrt()
}

/// `Q = ½(‖Ω‖² − ‖S‖²)` where `S`/`Ω` are the symmetric/antisymmetric parts
/// of the velocity gradient `a[3i+j] = ∂u_i/∂x_j`.
#[inline(always)]
pub fn q_of_gradient(a: &[f32; 9]) -> f32 {
    let mut s2 = 0.0f32;
    let mut o2 = 0.0f32;
    for i in 0..3 {
        for j in 0..3 {
            let s = 0.5 * (a[3 * i + j] + a[3 * j + i]);
            let o = 0.5 * (a[3 * i + j] - a[3 * j + i]);
            s2 += s * s;
            o2 += o * o;
        }
    }
    0.5 * (o2 - s2)
}

/// `R = −det(∇u)`.
#[inline(always)]
pub fn r_of_gradient(a: &[f32; 9]) -> f32 {
    let det = a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6])
        + a[2] * (a[3] * a[7] - a[4] * a[6]);
    -det
}

/// `‖S‖ = sqrt(Σ S_ij²)`.
#[inline(always)]
pub fn strain_norm_of_gradient(a: &[f32; 9]) -> f32 {
    let mut s2 = 0.0f32;
    for i in 0..3 {
        for j in 0..3 {
            let s = 0.5 * (a[3 * i + j] + a[3 * j + i]);
            s2 += s * s;
        }
    }
    s2.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::FdOrder;
    use std::f64::consts::TAU;
    use tdb_field::{Grid3, ScalarField};

    fn padded(v: &VectorField<3>, h: usize) -> PaddedVector<3> {
        let (nx, ny, nz) = v.dims();
        let mut p = PaddedVector::zeros(nx, ny, nz, h);
        p.fill_periodic_from(v, [0, 0, 0]);
        p
    }

    #[test]
    fn names_roundtrip() {
        for f in DerivedField::all() {
            assert_eq!(DerivedField::parse(&f.name()), Some(f));
        }
        assert_eq!(DerivedField::parse("bogus"), None);
        // parameterized filtered norms roundtrip too
        let f = DerivedField::BoxFilteredNorm { radius: 2 };
        assert_eq!(f.name(), "box_filtered_norm:2");
        assert_eq!(DerivedField::parse("box_filtered_norm:2"), Some(f));
        assert_eq!(DerivedField::parse("box_filtered_norm:0"), None);
        assert_eq!(DerivedField::parse("box_filtered_norm:x"), None);
        // the radius is capped at one atom width: a wire line cannot ask a
        // scan worker for a halo of gigabytes
        let widest = DerivedField::BoxFilteredNorm { radius: 8 };
        assert_eq!(DerivedField::parse("box_filtered_norm:8"), Some(widest));
        assert_eq!(DerivedField::parse("box_filtered_norm:9"), None);
        assert_eq!(DerivedField::parse("box_filtered_norm:255"), None);
    }

    #[test]
    fn box_filtered_norm_smooths_and_preserves_constants() {
        let grid = Grid3::periodic_cube(16, TAU);
        let scheme = DiffScheme::new(&grid, FdOrder::O4);
        let f = DerivedField::BoxFilteredNorm { radius: 2 };
        assert_eq!(f.halo(&scheme), 2);
        // constant field: filtered norm equals the constant's norm
        let c = ScalarField::from_fn(16, 16, 16, |_, _, _| 3.0);
        let v = VectorField::from_components([
            c,
            ScalarField::from_fn(16, 16, 16, |_, _, _| 4.0),
            ScalarField::zeros(16, 16, 16),
        ]);
        let p = padded(&v, 2);
        let out = f.eval(&p, &scheme, [0, 0, 0]);
        for val in out.as_slice() {
            assert!((val - 5.0).abs() < 1e-4);
        }
        // oscillating field: filtering reduces the norm
        let osc = ScalarField::from_fn(16, 16, 16, |x, _, _| if x % 2 == 0 { 1.0 } else { -1.0 });
        let v = VectorField::from_components([
            osc,
            ScalarField::zeros(16, 16, 16),
            ScalarField::zeros(16, 16, 16),
        ]);
        let p = padded(&v, 2);
        let out = f.eval(&p, &scheme, [0, 0, 0]);
        let max = out.as_slice().iter().fold(0.0f32, |m, &v| m.max(v));
        assert!(max < 0.5, "filtered oscillation should shrink, max {max}");
    }

    #[test]
    fn norm_needs_no_halo_or_kernel() {
        let grid = Grid3::periodic_cube(8, TAU);
        let scheme = DiffScheme::new(&grid, FdOrder::O8);
        assert_eq!(DerivedField::Norm.halo(&scheme), 0);
        assert_eq!(DerivedField::CurlNorm.halo(&scheme), 4);
    }

    #[test]
    fn q_and_r_of_pure_rotation() {
        // Solid-body rotation about z: u = (-y, x, 0); ∇u antisymmetric,
        // S = 0, ‖Ω‖² = 2, so Q = 1. R = -det = 0.
        let a: [f32; 9] = [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert!((q_of_gradient(&a) - 1.0).abs() < 1e-6);
        assert!(r_of_gradient(&a).abs() < 1e-6);
        assert!(strain_norm_of_gradient(&a).abs() < 1e-6);
    }

    #[test]
    fn q_of_pure_strain_is_negative() {
        // u = (x, -y, 0): symmetric gradient, Q = -½‖S‖² = -1, Ω = 0.
        let a: [f32; 9] = [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0];
        assert!((q_of_gradient(&a) + 1.0).abs() < 1e-6);
        assert!((strain_norm_of_gradient(&a) - 2.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn r_of_uniform_expansion() {
        // ∇u = I: det = 1, R = -1.
        let a: [f32; 9] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        assert!((r_of_gradient(&a) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn curl_norm_matches_analytic_vorticity() {
        // Taylor-Green-like: u = (sin x cos y, -cos x sin y, 0)
        // ω_z = ∂u_y/∂x - ∂u_x/∂y = sin x sin y + sin x sin y = 2 sin x sin y
        let n = 32;
        let grid = Grid3::periodic_cube(n, TAU);
        let h = TAU / n as f64;
        let vx = ScalarField::from_fn(n, n, n, |x, y, _| {
            ((h * x as f64).sin() * (h * y as f64).cos()) as f32
        });
        let vy = ScalarField::from_fn(n, n, n, |x, y, _| {
            (-(h * x as f64).cos() * (h * y as f64).sin()) as f32
        });
        let v = VectorField::from_components([vx, vy, ScalarField::zeros(n, n, n)]);
        let scheme = DiffScheme::new(&grid, FdOrder::O4);
        let p = padded(&v, scheme.halo());
        let w = DerivedField::CurlNorm.eval(&p, &scheme, [0, 0, 0]);
        for (x, y) in [(3, 5), (10, 20), (17, 9)] {
            let expect = (2.0 * (h * x as f64).sin() * (h * y as f64).sin()).abs();
            let got = f64::from(w.get(x, y, 7));
            assert!((got - expect).abs() < 1e-3, "({x},{y}): {got} vs {expect}");
        }
    }

    #[test]
    fn gradient_norm_vs_strain_plus_rotation() {
        // ‖∇u‖² = ‖S‖² + ‖Ω‖² pointwise.
        let n = 16;
        let grid = Grid3::periodic_cube(n, TAU);
        let h = TAU / n as f64;
        let mk = |kx: f64, ky: f64, kz: f64, phase: f64| {
            ScalarField::from_fn(n, n, n, |x, y, z| {
                ((kx * h * x as f64 + ky * h * y as f64 + kz * h * z as f64 + phase).sin()) as f32
            })
        };
        let v = VectorField::from_components([
            mk(1.0, 2.0, 0.0, 0.3),
            mk(0.0, 1.0, 2.0, 1.1),
            mk(2.0, 0.0, 1.0, 2.2),
        ]);
        let scheme = DiffScheme::new(&grid, FdOrder::O6);
        let p = padded(&v, scheme.halo());
        let gn = DerivedField::GradientNorm.eval(&p, &scheme, [0, 0, 0]);
        let sn = DerivedField::StrainRateNorm.eval(&p, &scheme, [0, 0, 0]);
        let q = DerivedField::QCriterion.eval(&p, &scheme, [0, 0, 0]);
        for (x, y, z) in [(0, 0, 0), (5, 3, 8), (12, 15, 1)] {
            let g2 = f64::from(gn.get(x, y, z)).powi(2);
            let s2 = f64::from(sn.get(x, y, z)).powi(2);
            // Q = ½(‖Ω‖² - ‖S‖²) and ‖Ω‖² = g² - s² ⇒ Q = ½(g² - 2s²)
            let expect_q = 0.5 * (g2 - 2.0 * s2);
            let got_q = f64::from(q.get(x, y, z));
            assert!((got_q - expect_q).abs() < 1e-3 * (1.0 + expect_q.abs()));
        }
    }

    #[test]
    fn laplacian_norm_of_sine_waves_is_analytic() {
        // u = (sin x, sin 2y, 0): ∇²u = (-sin x, -4 sin 2y, 0)
        let n = 32;
        let grid = Grid3::periodic_cube(n, TAU);
        let h = TAU / n as f64;
        let vx = ScalarField::from_fn(n, n, n, |x, _, _| (h * x as f64).sin() as f32);
        let vy = ScalarField::from_fn(n, n, n, |_, y, _| (2.0 * h * y as f64).sin() as f32);
        let v = VectorField::from_components([vx, vy, ScalarField::zeros(n, n, n)]);
        let scheme = DiffScheme::new(&grid, FdOrder::O6);
        let p = padded(&v, scheme.halo());
        let out = DerivedField::LaplacianNorm.eval(&p, &scheme, [0, 0, 0]);
        for (x, y) in [(3usize, 5usize), (10, 20), (30, 1)] {
            let lx = -(h * x as f64).sin();
            let ly = -4.0 * (2.0 * h * y as f64).sin();
            let expect = (lx * lx + ly * ly).sqrt();
            let got = f64::from(out.get(x, y, 9));
            assert!((got - expect).abs() < 1e-3, "({x},{y}): {got} vs {expect}");
        }
    }

    #[test]
    fn divergence_abs_of_solenoidal_field_vanishes() {
        let n = 16;
        let grid = Grid3::periodic_cube(n, TAU);
        let h = TAU / n as f64;
        // u = (sin y, sin z, sin x) is divergence-free
        let vx = ScalarField::from_fn(n, n, n, |_, y, _| (h * y as f64).sin() as f32);
        let vy = ScalarField::from_fn(n, n, n, |_, _, z| (h * z as f64).sin() as f32);
        let vz = ScalarField::from_fn(n, n, n, |x, _, _| (h * x as f64).sin() as f32);
        let v = VectorField::from_components([vx, vy, vz]);
        let scheme = DiffScheme::new(&grid, FdOrder::O4);
        let p = padded(&v, scheme.halo());
        let d = DerivedField::DivergenceAbs.eval(&p, &scheme, [0, 0, 0]);
        let max = d.as_slice().iter().fold(0.0f32, |m, &v| m.max(v));
        assert!(max < 1e-5);
    }

    // ---- eval_rows ≡ plane-at-a-time --------------------------------------

    use proptest::prelude::*;

    /// The materialising evaluation `eval_rows` replaced: whole partial
    /// planes from the per-point stencil reference (`deriv2_padded` for the
    /// Laplacian, itself proptested against its per-point loop in
    /// `diff.rs`), combined plane by plane, then a per-point reduction.
    fn eval_planes(
        field: DerivedField,
        input: &PaddedVector<3>,
        scheme: &DiffScheme,
        origin: [usize; 3],
    ) -> ScalarField {
        let d = |comp: usize, axis: usize| {
            scheme.deriv_padded_reference(input.comp(comp), axis, origin)
        };
        let sub = |mut a: ScalarField, b: ScalarField| {
            a.zip_inplace(&b, |a, b| a - b);
            a
        };
        let sum3 = |planes: [ScalarField; 3]| {
            let [mut a, b, c] = planes;
            a.zip_inplace(&b, |a, b| a + b);
            a.zip_inplace(&c, |a, b| a + b);
            a
        };
        let of_gradient = |f: &dyn Fn(&[f32; 9]) -> f32| {
            let g: [ScalarField; 9] = std::array::from_fn(|k| d(k / 3, k % 3));
            let (nx, ny, nz) = g[0].dims();
            ScalarField::from_fn(nx, ny, nz, |x, y, z| {
                f(&std::array::from_fn(|k| g[k].get(x, y, z)))
            })
        };
        match field {
            DerivedField::Norm => {
                let (nx, ny, nz) = input.dims();
                ScalarField::from_fn(nx, ny, nz, |x, y, z| {
                    let [a, b, c] = input.at(x as isize, y as isize, z as isize);
                    (a * a + b * b + c * c).sqrt()
                })
            }
            DerivedField::CurlNorm => VectorField::from_components([
                sub(d(2, 1), d(1, 2)),
                sub(d(0, 2), d(2, 0)),
                sub(d(1, 0), d(0, 1)),
            ])
            .norm(),
            DerivedField::QCriterion => of_gradient(&q_of_gradient),
            DerivedField::RInvariant => of_gradient(&r_of_gradient),
            DerivedField::GradientNorm => {
                of_gradient(&|a| a.iter().map(|v| v * v).sum::<f32>().sqrt())
            }
            DerivedField::StrainRateNorm => of_gradient(&strain_norm_of_gradient),
            DerivedField::DivergenceAbs => {
                let mut div = sum3([d(0, 0), d(1, 1), d(2, 2)]);
                div.map_inplace(f32::abs);
                div
            }
            DerivedField::LaplacianNorm => {
                VectorField::<3>::from_components(std::array::from_fn(|c| {
                    sum3(std::array::from_fn(|axis| {
                        scheme.deriv2_padded(input.comp(c), axis, origin)
                    }))
                }))
                .norm()
            }
            DerivedField::BoxFilteredNorm { radius } => {
                let filt = crate::filter::SeparableFilter::box_filter(usize::from(radius));
                let mut comps = filt.apply_vector(input).into_iter();
                VectorField::<3>::from_components(std::array::from_fn(|_| comps.next().unwrap()))
                    .norm()
            }
        }
    }

    /// All nine variants (the eight of `all()` plus the parameterised
    /// filter).
    fn nine_fields() -> Vec<DerivedField> {
        let mut fields = DerivedField::all().to_vec();
        fields.push(DerivedField::BoxFilteredNorm { radius: 1 });
        fields.push(DerivedField::BoxFilteredNorm { radius: 2 });
        fields
    }

    /// f32 values including NaN, infinities, signed zero and denormals.
    fn any_f32() -> impl Strategy<Value = f32> {
        prop_oneof![
            -1.0e3f32..1.0e3,
            -1.0e3f32..1.0e3,
            -1.0e3f32..1.0e3,
            Just(f32::NAN),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            Just(-0.0f32),
            Just(f32::MIN_POSITIVE / 2.0),
        ]
    }

    fn filled(dims: (usize, usize, usize), h: usize, vals: &[f32]) -> PaddedVector<3> {
        let (nx, ny, nz) = dims;
        let mut p = PaddedVector::zeros(nx, ny, nz, h);
        let (px, py) = (nx + 2 * h, ny + 2 * h);
        for c in 0..3 {
            p.comp_mut(c).fill(|x, y, z| {
                let i = (x + h as isize) as usize
                    + px * ((y + h as isize) as usize + py * (z + h as isize) as usize);
                vals[(i * 3 + c) % vals.len()]
            });
        }
        p
    }

    /// `eval_rows` (through its `eval` wrapper, and row by row in visit
    /// order) against the plane-at-a-time reference. NaNs are compared as
    /// a class, as in `diff.rs`.
    fn assert_rows_match_planes(
        grid: &Grid3,
        order: FdOrder,
        dims: (usize, usize, usize),
        origin: [usize; 3],
        vals: &[f32],
    ) -> Result<(), String> {
        let scheme = DiffScheme::new(grid, order);
        let mut scratch = Vec::new();
        for field in nine_fields() {
            let input = filled(dims, field.halo(&scheme), vals);
            let want = eval_planes(field, &input, &scheme, origin);
            let mut next = (0, 0);
            let mut bad = None;
            field.eval_rows(&input, &scheme, origin, &mut scratch, |y, z, row| {
                if (y, z) != next {
                    bad.get_or_insert(format!("row ({y},{z}) visited, ({next:?}) expected"));
                }
                next = if y + 1 == dims.1 {
                    (0, z + 1)
                } else {
                    (y + 1, z)
                };
                for (x, (got, want)) in row.iter().zip(want.row(y, z)).enumerate() {
                    if got.to_bits() != want.to_bits() && !(got.is_nan() && want.is_nan()) {
                        bad.get_or_insert(format!(
                            "{field:?} {order:?} at ({x},{y},{z}): {:#010x} vs {:#010x}",
                            got.to_bits(),
                            want.to_bits()
                        ));
                    }
                }
            });
            if let Some(bad) = bad {
                return Err(bad);
            }
            if next != (0, dims.2) {
                return Err(format!("{field:?}: stopped at row {next:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn portable_and_avx2_instantiations_agree_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!(
                "note: no AVX2 on this host, the portable instantiation is compared to itself"
            );
        }
        let vals: Vec<f32> = (0..997).map(crate::diff::tests::salted).collect();
        let grid = Grid3::periodic_cube(16, TAU);
        // row lengths below, at, above and not a multiple of the block width
        for nx in 1..=40 {
            for order in FdOrder::all() {
                let scheme = DiffScheme::new(&grid, order);
                for field in nine_fields() {
                    let input = filled((nx, 3, 2), field.halo(&scheme), &vals[nx..]);
                    // the portable body called directly; the dispatching
                    // entry is the AVX2 instantiation wherever there is one
                    let (mut portable, mut wide, o) = (Vec::new(), Vec::new(), [0, 0, 0]);
                    let one = [field];
                    DerivedField::eval_rows_body(
                        &one,
                        &input,
                        &scheme,
                        o,
                        &mut Vec::new(),
                        |_, _, _, row| portable.extend_from_slice(row),
                    );
                    field.eval_rows(&input, &scheme, o, &mut Vec::new(), |_, _, row| {
                        wide.extend_from_slice(row)
                    });
                    let want = eval_planes(field, &input, &scheme, o);
                    assert_eq!((portable.len(), wide.len()), (want.len(), want.len()));
                    for (i, ((p, w), r)) in
                        portable.iter().zip(&wide).zip(want.as_slice()).enumerate()
                    {
                        // NaNs as a class: which operand's payload an
                        // invalid operation keeps is the encoding's choice
                        let same = |a: &f32, b: &f32| {
                            a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan()
                        };
                        assert!(
                            same(p, w) && same(p, r),
                            "{field:?} {order:?} nx {nx} point {i}: portable {:#010x}, avx2 {:#010x}, planes {:#010x}",
                            p.to_bits(), w.to_bits(), r.to_bits()
                        );
                    }
                }
            }
        }
    }

    /// Every field of one `eval_rows_many` pass — which computes each
    /// partial row once for all of them — equals its own `eval_rows`, bit
    /// for bit, in `(z, y)` order, on both grid kinds and every order.
    #[test]
    fn eval_rows_many_equals_each_fields_own_eval_rows() {
        let vals: Vec<f32> = (0..997).map(crate::diff::tests::salted).collect();
        let hostile = [f32::NAN, f32::INFINITY, -0.0, f32::NEG_INFINITY, 1.5];
        let mut channel = Grid3::channel(12, 17, 4, TAU, TAU, 1.7);
        channel.periodic[0] = false;
        for (grid, dims) in [
            (Grid3::periodic_cube(16, TAU), (7, 5, 3)),
            (channel, (12, 17, 4)),
        ] {
            for order in FdOrder::all() {
                let scheme = DiffScheme::new(&grid, order);
                let fields = nine_fields();
                let halo = fields.iter().map(|f| f.halo(&scheme)).max().unwrap();
                for vals in [&vals[..], &hostile[..]] {
                    let input = filled(dims, halo, vals);
                    let mut many: Vec<Vec<(usize, usize, Vec<u32>)>> =
                        vec![Vec::new(); fields.len()];
                    DerivedField::eval_rows_many(
                        &fields,
                        &input,
                        &scheme,
                        [0, 0, 0],
                        &mut Vec::new(),
                        |f, y, z, row| {
                            many[f].push((y, z, row.iter().map(|v| v.to_bits()).collect()))
                        },
                    );
                    for (field, many) in fields.iter().zip(&many) {
                        let mut own = Vec::new();
                        field.eval_rows(
                            &input,
                            &scheme,
                            [0, 0, 0],
                            &mut Vec::new(),
                            |y, z, row| {
                                own.push((
                                    y,
                                    z,
                                    row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                ))
                            },
                        );
                        let nan_class =
                            |rows: &[(usize, usize, Vec<u32>)]| -> Vec<(usize, usize, Vec<u32>)> {
                                (rows.iter())
                                    .map(|(y, z, r)| {
                                        let r = r.iter().map(|&b| {
                                            if f32::from_bits(b).is_nan() {
                                                u32::MAX
                                            } else {
                                                b
                                            }
                                        });
                                        (*y, *z, r.collect())
                                    })
                                    .collect()
                            };
                        assert_eq!(nan_class(many), nan_class(&own), "{field:?} {order:?}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn eval_rows_is_bitwise_identical_on_a_periodic_cube(
            order_idx in 0usize..4,
            nx in 1usize..9, ny in 1usize..7, nz in 1usize..7,
            origin in prop::array::uniform3(0usize..16),
            vals in prop::collection::vec(any_f32(), 997..998),
        ) {
            let grid = Grid3::periodic_cube(16, TAU);
            let order = FdOrder::all()[order_idx];
            let r = assert_rows_match_planes(&grid, order, (nx, ny, nz), origin, &vals);
            prop_assert!(r.is_ok(), "{:?}", r);
        }

        #[test]
        fn eval_rows_is_bitwise_identical_on_channel_grids(
            order_idx in 0usize..4,
            bounded_x in 0usize..2,
            vals in prop::collection::vec(any_f32(), 997..998),
        ) {
            // stretched wall-bounded y: a stencil table per row, one-sided
            // near the walls; with x bounded as well, the per-point fallback
            let mut grid = Grid3::channel(12, 17, 4, TAU, TAU, 1.7);
            grid.periodic[0] = bounded_x == 0;
            let r = assert_rows_match_planes(
                &grid, FdOrder::all()[order_idx], (12, 17, 4), [0, 0, 0], &vals,
            );
            prop_assert!(r.is_ok(), "{:?}", r);
        }
    }
}
