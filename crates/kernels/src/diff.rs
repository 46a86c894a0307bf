//! Grid-aware differentiation.
//!
//! A [`DiffScheme`] binds a finite-difference order to a grid: periodic
//! uniform axes get one centred stencil (ghost data comes from the halo),
//! wall-bounded or stretched axes get a per-node stencil table with
//! one-sided stencils near the walls.

use crate::fd::{FdOrder, Stencil};
use tdb_field::{Grid3, PaddedScalar, PaddedVector, ScalarField, Spacing, VectorField};

#[derive(Debug, Clone)]
enum AxisScheme {
    /// Uniform periodic axis: one stencil for every node.
    PeriodicUniform(Stencil),
    /// Bounded (and possibly stretched) axis: a stencil per global node.
    Bounded(Vec<Stencil>),
}

impl AxisScheme {
    fn stencil(&self, global: usize) -> &Stencil {
        match self {
            AxisScheme::PeriodicUniform(s) => s,
            AxisScheme::Bounded(table) => &table[global],
        }
    }
}

/// First- and second-derivative scheme for a specific grid and order.
#[derive(Debug, Clone)]
pub struct DiffScheme {
    order: FdOrder,
    axes: [AxisScheme; 3],
    /// Second-derivative stencils (Laplacian).
    axes2: [AxisScheme; 3],
    pub(crate) dims: [usize; 3],
}

impl DiffScheme {
    /// Builds the scheme for `grid` at the given accuracy order.
    pub fn new(grid: &Grid3, order: FdOrder) -> Self {
        let build = |second: bool| {
            std::array::from_fn(|ax| {
                let spacing = grid.spacing(ax);
                match (grid.periodic[ax], spacing) {
                    (true, Spacing::Uniform(h)) => AxisScheme::PeriodicUniform(if second {
                        Stencil::centered_second(order, *h)
                    } else {
                        Stencil::centered(order, *h)
                    }),
                    (true, Spacing::Stretched(_)) => {
                        panic!("periodic stretched axes are not supported")
                    }
                    (false, _) => {
                        let n = grid.extent(ax);
                        let coords: Vec<f64> = (0..n).map(|i| spacing.coord(i)).collect();
                        AxisScheme::Bounded(
                            (0..n)
                                .map(|i| {
                                    if second {
                                        Stencil::at_node_second(order, &coords, i)
                                    } else {
                                        Stencil::at_node(order, &coords, i)
                                    }
                                })
                                .collect(),
                        )
                    }
                }
            })
        };
        Self {
            order,
            axes: build(false),
            axes2: build(true),
            dims: grid.dims().into(),
        }
    }

    /// Accuracy order.
    pub fn order(&self) -> FdOrder {
        self.order
    }

    /// The halo of the whole grid: [`DiffScheme::reach`] of every point,
    /// which is the centred half-width when any axis is periodic.
    pub fn halo(&self) -> usize {
        self.reach(false, [0; 3], self.dims)
    }

    /// How far the stencils of the box `origin .. origin + extent` reach
    /// past it, on any side of any axis: the halo a padded box needs for
    /// its first derivatives (second ones when `second`). `order / 2` on a
    /// periodic axis; on a bounded one, what the node table says, which
    /// near a wall can be up to `order + 1` points.
    pub fn reach(&self, second: bool, origin: [usize; 3], extent: [usize; 3]) -> usize {
        let (table, mut reach) = (if second { &self.axes2 } else { &self.axes }, 0);
        for (ax, axis) in table.iter().enumerate() {
            let last = extent[ax] as isize - 1;
            // a periodic axis has one centred stencil: its first node says all
            let nodes = last * isize::from(matches!(axis, AxisScheme::Bounded(_)));
            for (local, global) in (0..=nodes).zip(origin[ax]..) {
                for o in &axis.stencil(global).offsets {
                    reach = reach.max(-local - o).max(local + o - last);
                }
            }
        }
        reach.unsigned_abs()
    }

    /// ∂f/∂axis over the interior of a padded chunk whose interior origin
    /// sits at global grid coordinates `origin`.
    pub fn deriv_padded(&self, f: &PaddedScalar, axis: usize, origin: [usize; 3]) -> ScalarField {
        self.apply_axis(false, f, axis, origin)
    }

    /// ∂²f/∂axis² over the interior of a padded chunk.
    pub fn deriv2_padded(&self, f: &PaddedScalar, axis: usize, origin: [usize; 3]) -> ScalarField {
        self.apply_axis(true, f, axis, origin)
    }

    /// ∂f/∂axis (∂²f/∂axis² when `second`) of a padded chunk, to be taken
    /// one interior row at a time — the entry point of the fused pipeline.
    /// Panics if the chunk's halo is narrower than its [`DiffScheme::reach`].
    pub fn deriv_rows<'a>(
        &'a self,
        f: &'a PaddedScalar,
        axis: usize,
        second: bool,
        origin: [usize; 3],
    ) -> RowDeriv<'a> {
        assert!(axis < 3);
        let table = if second { &self.axes2 } else { &self.axes };
        assert!(f.halo() >= self.reach(second, origin, f.dims().into()));
        let (sx, sy, _) = f.padded().dims();
        RowDeriv {
            scheme: &table[axis],
            data: f.padded().as_slice(),
            halo: f.halo(),
            sx,
            sy,
            stride: [1, sx, sx * sy][axis] as isize,
            axis,
            origin: origin[axis],
        }
    }

    /// Per-point reference implementation of [`DiffScheme::deriv_padded`]:
    /// the semantic baseline the row path must match bit for bit
    /// (proptested here and, through `eval_planes`, in `derived.rs`).
    #[cfg(test)]
    pub(crate) fn deriv_padded_reference(
        &self,
        f: &PaddedScalar,
        axis: usize,
        origin: [usize; 3],
    ) -> ScalarField {
        assert!(axis < 3);
        let (nx, ny, nz) = f.dims();
        assert!(f.halo() >= self.reach(false, origin, [nx, ny, nz]));
        let mut out = ScalarField::zeros(nx, ny, nz);
        apply_axis_scalar(&self.axes[axis], f, axis, origin, &mut out);
        out
    }

    fn apply_axis(
        &self,
        second: bool,
        f: &PaddedScalar,
        axis: usize,
        origin: [usize; 3],
    ) -> ScalarField {
        let rows = self.deriv_rows(f, axis, second, origin);
        let (nx, ny, nz) = f.dims();
        let mut out = ScalarField::zeros(nx, ny, nz);
        for z in 0..nz {
            for y in 0..ny {
                rows.row(y, z, out.row_mut(y, z));
            }
        }
        out
    }

    /// Full velocity-gradient tensor `∂u_i/∂x_j` (row-major: index `3i+j`).
    pub fn grad_padded(&self, v: &PaddedVector<3>, origin: [usize; 3]) -> [ScalarField; 9] {
        std::array::from_fn(|k| self.deriv_padded(v.comp(k / 3), k % 3, origin))
    }

    /// Curl of a padded vector field:
    /// `(∂v_z/∂y − ∂v_y/∂z, ∂v_x/∂z − ∂v_z/∂x, ∂v_y/∂x − ∂v_x/∂y)`.
    pub fn curl_padded(&self, v: &PaddedVector<3>, origin: [usize; 3]) -> VectorField<3> {
        let dzy = self.deriv_padded(v.comp(2), 1, origin);
        let mut cx = dzy;
        cx.zip_inplace(&self.deriv_padded(v.comp(1), 2, origin), |a, b| a - b);
        let dxz = self.deriv_padded(v.comp(0), 2, origin);
        let mut cy = dxz;
        cy.zip_inplace(&self.deriv_padded(v.comp(2), 0, origin), |a, b| a - b);
        let dyx = self.deriv_padded(v.comp(1), 0, origin);
        let mut cz = dyx;
        cz.zip_inplace(&self.deriv_padded(v.comp(0), 1, origin), |a, b| a - b);
        VectorField::from_components([cx, cy, cz])
    }

    /// Divergence of a padded vector field.
    pub fn divergence_padded(&self, v: &PaddedVector<3>, origin: [usize; 3]) -> ScalarField {
        let mut out = self.deriv_padded(v.comp(0), 0, origin);
        out.zip_inplace(&self.deriv_padded(v.comp(1), 1, origin), |a, b| a + b);
        out.zip_inplace(&self.deriv_padded(v.comp(2), 2, origin), |a, b| a + b);
        out
    }

    /// Pads a whole periodic field and returns its curl — convenience for
    /// single-machine analysis and tests. The field must span the grid this
    /// scheme was built for.
    pub fn curl(&self, v: &VectorField<3>) -> VectorField<3> {
        let p = self.pad_whole(v);
        self.curl_padded(&p, [0, 0, 0])
    }

    /// Whole-field periodic divergence (see [`DiffScheme::curl`]).
    pub fn divergence(&self, v: &VectorField<3>) -> ScalarField {
        let p = self.pad_whole(v);
        self.divergence_padded(&p, [0, 0, 0])
    }

    /// Whole-field periodic velocity gradient (see [`DiffScheme::curl`]).
    pub fn gradient(&self, v: &VectorField<3>) -> [ScalarField; 9] {
        let p = self.pad_whole(v);
        self.grad_padded(&p, [0, 0, 0])
    }

    fn pad_whole(&self, v: &VectorField<3>) -> PaddedVector<3> {
        assert_eq!(
            v.dims(),
            self.dims.into(),
            "field does not span the scheme's grid"
        );
        let (nx, ny, nz) = v.dims();
        let mut p = PaddedVector::zeros(nx, ny, nz, self.halo());
        p.fill_periodic_from(v, [0, 0, 0]);
        p
    }
}

/// One derivative of one padded chunk ([`DiffScheme::deriv_rows`]).
pub struct RowDeriv<'a> {
    scheme: &'a AxisScheme,
    /// The padded cube, flat and x-fastest, `sx × sy` points per plane.
    data: &'a [f32],
    halo: usize,
    sx: usize,
    sy: usize,
    /// Distance in `data` between neighbours along `axis`.
    stride: isize,
    axis: usize,
    /// Global coordinate of the chunk's first interior point on `axis`.
    origin: usize,
}

impl RowDeriv<'_> {
    /// The derivative along interior row `(y, z)`, one value per interior
    /// `x`. The source row of the stencil term at offset `o` is the flat
    /// slice `o` strides away from the row itself: a shifted window of it
    /// along x, a neighbouring row along y or z.
    #[inline(always)]
    pub fn row(&self, y: usize, z: usize, out: &mut [f32]) {
        let (h, nx) = (self.halo, out.len());
        let first = (h + self.sx * (y + h + self.sy * (z + h))) as isize;
        let at = |o: isize| (first + o * self.stride) as usize;
        match (self.axis, self.scheme) {
            // A bounded x axis changes stencils along the row itself: per
            // point. In practice x is periodic on every supported grid.
            (0, AxisScheme::Bounded(table)) => {
                for (x, d) in out.iter_mut().enumerate() {
                    let s = &table[self.origin + x];
                    *d = s.apply(|o| f64::from(self.data[at(o) + x])) as f32;
                }
            }
            (axis, scheme) => {
                let s = scheme.stencil(self.origin + [0, y, z][axis]);
                apply_row(s, |o| &self.data[at(o)..][..nx], out);
            }
        }
    }
}

/// Applies `s` along a whole row, `row_for(offset)` being the source row
/// of each term. Centred and one-sided first-derivative stencils have
/// 3/5/7/9 terms and take the unrolled kernel; anything else (bounded
/// second derivatives) takes the per-point fold. Same sums either way.
#[inline(always)]
fn apply_row<'a>(s: &Stencil, row_for: impl Fn(isize) -> &'a [f32] + Copy, out: &mut [f32]) {
    match s.offsets.len() {
        3 => apply_row_n::<3>(s, row_for, out),
        5 => apply_row_n::<5>(s, row_for, out),
        7 => apply_row_n::<7>(s, row_for, out),
        9 => apply_row_n::<9>(s, row_for, out),
        _ => {
            for (i, d) in out.iter_mut().enumerate() {
                *d = s.apply(|o| f64::from(row_for(o)[i])) as f32;
            }
        }
    }
}

/// Point-major stencil over one row: `out[i] = Σ_t w[t]·f64(src_t[i])`,
/// accumulated from `0.0` in stencil order — the additions of
/// [`Stencil::apply`] in the same order, so the results are bit-identical
/// to the per-point reference, the zero-weight centre tap included
/// (`0·∞` is NaN and must stay NaN).
#[inline(always)]
fn apply_row_n<'a, const T: usize>(
    s: &Stencil,
    row_for: impl Fn(isize) -> &'a [f32],
    out: &mut [f32],
) {
    // filled by a plain loop, not `array::from_fn`: whether its closure
    // shim is inlined here depends on how the *calling* crate is split
    // into codegen units, and a call per term per row costs ~10 % of a scan
    let mut w = [0.0f64; T];
    let mut src: [&[f32]; T] = [&[]; T];
    for t in 0..T {
        w[t] = s.weights[t];
        src[t] = row_for(s.offsets[t]);
    }
    map_row(src, out, |p: &[f32; T]| {
        let mut a = 0.0f64;
        for t in 0..T {
            a += w[t] * f64::from(p[t]);
        }
        a as f32
    });
}

/// Points per block of [`map_row`]: four 256-bit or eight 128-bit `f64`
/// accumulators.
const LANES: usize = 16;

/// `out[i] = f(&[src[0][i], …, src[N-1][i]])` along a row, in blocks of
/// [`LANES`] points and a per-point tail. A block's trip count is a
/// constant and its stores follow all its loads, so whatever the row
/// length it compiles to straight-line vector code — no alias check, no
/// epilogue — and, lanes being independent points, to the same bits at
/// any vector width.
#[inline(always)]
pub(crate) fn map_row<const N: usize>(
    src: [&[f32]; N],
    out: &mut [f32],
    f: impl Fn(&[f32; N]) -> f32,
) {
    let full = out.len() - out.len() % LANES;
    for i in (0..full).step_by(LANES) {
        let mut block = src;
        for k in 0..N {
            block[k] = &src[k][i..i + LANES];
        }
        let mut vals = [0.0f32; LANES];
        for l in 0..LANES {
            let mut p = [0.0f32; N];
            for k in 0..N {
                p[k] = block[k][l];
            }
            vals[l] = f(&p);
        }
        out[i..i + LANES].copy_from_slice(&vals);
    }
    for i in full..out.len() {
        let mut p = [0.0f32; N];
        for k in 0..N {
            p[k] = src[k][i];
        }
        out[i] = f(&p);
    }
}

/// The original per-point stencil loop: the reference implementation the
/// row path is proptested against.
#[cfg(test)]
fn apply_axis_scalar(
    scheme: &AxisScheme,
    f: &PaddedScalar,
    axis: usize,
    origin: [usize; 3],
    out: &mut ScalarField,
) {
    let (nx, ny, nz) = f.dims();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let global = origin[axis]
                    + match axis {
                        0 => x,
                        1 => y,
                        _ => z,
                    };
                let s = scheme.stencil(global);
                let (xi, yi, zi) = (x as isize, y as isize, z as isize);
                let d = s.apply(|o| {
                    let v = match axis {
                        0 => f.get(xi + o, yi, zi),
                        1 => f.get(xi, yi + o, zi),
                        _ => f.get(xi, yi, zi + o),
                    };
                    f64::from(v)
                });
                out.set(x, y, z, d as f32);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::f64::consts::TAU;
    use std::panic::AssertUnwindSafe;
    use tdb_field::ScalarField;
    use tdb_zorder::Box3;

    fn wave_field(n: usize) -> (Grid3, VectorField<3>) {
        let grid = Grid3::periodic_cube(n, TAU);
        let h = TAU / n as f64;
        let f = |k: f64, i: usize| (k * h * i as f64).sin() as f32;
        let vx = ScalarField::from_fn(n, n, n, |_, y, _| f(1.0, y));
        let vy = ScalarField::from_fn(n, n, n, |_, _, z| f(2.0, z));
        let vz = ScalarField::from_fn(n, n, n, |x, _, _| f(3.0, x));
        (grid, VectorField::from_components([vx, vy, vz]))
    }

    #[test]
    fn curl_of_waves_matches_analytic() {
        let n = 48;
        let (grid, v) = wave_field(n);
        let scheme = DiffScheme::new(&grid, FdOrder::O6);
        let c = scheme.curl(&v);
        let h = TAU / n as f64;
        // vx = sin(y), vy = sin(2z), vz = sin(3x)
        // curl = (0 - 2cos(2z), 0 - 3cos(3x), 0 - cos(y))
        let mut max_err = 0.0f64;
        for z in (0..n).step_by(5) {
            for y in (0..n).step_by(5) {
                for x in (0..n).step_by(5) {
                    let ex = -2.0 * (2.0 * h * z as f64).cos();
                    let ey = -3.0 * (3.0 * h * x as f64).cos();
                    let ez = -(h * y as f64).cos();
                    let got = c.at(x, y, z);
                    max_err = max_err
                        .max((f64::from(got[0]) - ex).abs())
                        .max((f64::from(got[1]) - ey).abs())
                        .max((f64::from(got[2]) - ez).abs());
                }
            }
        }
        assert!(max_err < 1e-4, "max err {max_err}");
    }

    #[test]
    fn divergence_of_curl_is_zero() {
        // discrete identity: centred differences commute, so div(curl f) = 0
        // to machine precision for any periodic field.
        let n = 16;
        let grid = Grid3::periodic_cube(n, TAU);
        let mk = |seed: u32| {
            ScalarField::from_fn(n, n, n, |x, y, z| {
                let v = (x as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add((y as u32).wrapping_mul(40503))
                    .wrapping_add((z as u32).wrapping_mul(9973))
                    .wrapping_add(seed.wrapping_mul(7919));
                ((v >> 8) as f32 / 16777216.0) - 0.5
            })
        };
        let v = VectorField::from_components([mk(1), mk(2), mk(3)]);
        for order in FdOrder::all() {
            let scheme = DiffScheme::new(&grid, order);
            let c = scheme.curl(&v);
            let d = scheme.divergence(&c);
            let max = d.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            assert!(max < 2e-4, "order {:?}: max |div curl| = {max}", order);
        }
    }

    #[test]
    fn gradient_layout_is_row_major() {
        let n = 16;
        let grid = Grid3::periodic_cube(n, TAU);
        let h = TAU / n as f64;
        // u = (sin x, 0, 0): only ∂u_x/∂x nonzero (index 0)
        let vx = ScalarField::from_fn(n, n, n, |x, _, _| (h * x as f64).sin() as f32);
        let v = VectorField::from_components([
            vx,
            ScalarField::zeros(n, n, n),
            ScalarField::zeros(n, n, n),
        ]);
        let g = DiffScheme::new(&grid, FdOrder::O4).gradient(&v);
        assert!((f64::from(g[0].get(0, 3, 3)) - 1.0).abs() < 1e-3);
        for (k, comp) in g.iter().enumerate().skip(1) {
            let max = comp.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            assert!(max < 1e-5, "component {k} should vanish, max {max}");
        }
    }

    #[test]
    fn chunked_derivative_equals_whole_field() {
        let n = 32;
        let (grid, v) = wave_field(n);
        let scheme = DiffScheme::new(&grid, FdOrder::O4);
        let whole = scheme.curl(&v);
        // evaluate an interior chunk with halo and compare
        let origin = [8usize, 16, 4];
        let (cx, cy, cz) = (8usize, 8, 8);
        let mut p = PaddedVector::zeros(cx, cy, cz, scheme.halo());
        p.fill_periodic_from(&v, origin);
        let chunk = scheme.curl_padded(&p, origin);
        for z in 0..cz {
            for y in 0..cy {
                for x in 0..cx {
                    let w = whole.at(origin[0] + x, origin[1] + y, origin[2] + z);
                    let c = chunk.at(x, y, z);
                    for k in 0..3 {
                        assert!(
                            (w[k] - c[k]).abs() < 1e-6,
                            "mismatch at ({x},{y},{z}) comp {k}"
                        );
                    }
                }
            }
        }
    }

    use proptest::prelude::*;

    /// Per-point ∂²f/∂axis², the reference `deriv2_padded` is held to.
    fn deriv2_padded_reference(
        scheme: &DiffScheme,
        f: &PaddedScalar,
        axis: usize,
        origin: [usize; 3],
    ) -> ScalarField {
        let (nx, ny, nz) = f.dims();
        let mut out = ScalarField::zeros(nx, ny, nz);
        apply_axis_scalar(&scheme.axes2[axis], f, axis, origin, &mut out);
        out
    }

    /// Bit-identical for every representable value. NaNs are compared as
    /// a class: IEEE 754 leaves the sign/payload of invalid-op NaNs
    /// (∞ − ∞ inside a stencil sum) unspecified and LLVM does not preserve
    /// them across differently-shaped loops at opt-level ≥ 2.
    fn same_bits(a: &ScalarField, b: &ScalarField) -> Result<(), String> {
        for (i, (c, r)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            if c.to_bits() != r.to_bits() && !(c.is_nan() && r.is_nan()) {
                return Err(format!(
                    "idx {i}: {:#010x} vs {:#010x}",
                    c.to_bits(),
                    r.to_bits()
                ));
            }
        }
        Ok(())
    }

    /// f32 values including NaN, infinities, zeros, and denormals, so the
    /// bitwise-identity proptests cover every funny value a field can hold.
    fn any_f32() -> impl Strategy<Value = f32> {
        prop_oneof![
            -1.0e6f32..1.0e6,
            Just(f32::NAN),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            Just(-0.0f32),
            Just(f32::MIN_POSITIVE / 2.0),
        ]
    }

    proptest! {
        #[test]
        fn chunked_derivative_is_bitwise_identical_to_reference(
            order_idx in 0usize..4,
            nx in 3usize..9, ny in 3usize..9, nz in 3usize..9,
            vals in prop::collection::vec(any_f32(), 4096..4097),
        ) {
            let order = FdOrder::all()[order_idx];
            let grid = Grid3::periodic_cube(16, TAU);
            let scheme = DiffScheme::new(&grid, order);
            let h = scheme.halo();
            let mut p = PaddedScalar::zeros(nx, ny, nz, h);
            let (px, py, _) = (nx + 2 * h, ny + 2 * h, nz + 2 * h);
            p.fill(|x, y, z| {
                let i = (x + h as isize) as usize
                    + px * ((y + h as isize) as usize + py * (z + h as isize) as usize);
                vals[i % vals.len()]
            });
            for axis in 0..3 {
                let first = same_bits(
                    &scheme.deriv_padded(&p, axis, [0, 0, 0]),
                    &scheme.deriv_padded_reference(&p, axis, [0, 0, 0]),
                );
                prop_assert!(first.is_ok(), "∂ axis {} {:?} {}x{}x{}: {:?}", axis, order, nx, ny, nz, first);
                let second = same_bits(
                    &scheme.deriv2_padded(&p, axis, [0, 0, 0]),
                    &deriv2_padded_reference(&scheme, &p, axis, [0, 0, 0]),
                );
                prop_assert!(second.is_ok(), "∂² axis {} {:?} {}x{}x{}: {:?}", axis, order, nx, ny, nz, second);
            }
        }

        #[test]
        fn chunked_bounded_axis_is_bitwise_identical_to_reference(
            order_idx in 0usize..4,
            vals in prop::collection::vec(any_f32(), 4096..4097),
        ) {
            // Channel grid: bounded stretched y axis exercises the per-row
            // stencil table (one-sided stencils near the walls).
            let order = FdOrder::all()[order_idx];
            let grid = Grid3::channel(8, 33, 8, TAU, TAU, 1.7);
            let scheme = DiffScheme::new(&grid, order);
            let h = scheme.halo();
            let mut p = PaddedScalar::zeros(8, 33, 8, h);
            let (px, py) = (8 + 2 * h, 33 + 2 * h);
            p.fill(|x, y, z| {
                let i = (x + h as isize) as usize
                    + px * ((y + h as isize) as usize + py * (z + h as isize) as usize);
                vals[i % vals.len()]
            });
            for axis in 0..3 {
                let first = same_bits(
                    &scheme.deriv_padded(&p, axis, [0, 0, 0]),
                    &scheme.deriv_padded_reference(&p, axis, [0, 0, 0]),
                );
                prop_assert!(first.is_ok(), "∂ axis {} {:?}: {:?}", axis, order, first);
                // bounded second derivatives have order + 2 taps: the
                // per-point fold of `apply_row`
                let second = same_bits(
                    &scheme.deriv2_padded(&p, axis, [0, 0, 0]),
                    &deriv2_padded_reference(&scheme, &p, axis, [0, 0, 0]),
                );
                prop_assert!(second.is_ok(), "∂² axis {} {:?}: {:?}", axis, order, second);
            }
        }
    }

    /// Finite values salted with every special class: NaN, ±∞, −0 and
    /// denormals of both signs.
    pub(crate) fn salted(i: usize) -> f32 {
        const SPECIAL: [f32; 6] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 4.0,
        ];
        let r = (i as u32).wrapping_mul(2654435761) >> 8;
        if r % 13 == 0 {
            SPECIAL[(r / 13) as usize % SPECIAL.len()]
        } else {
            (r as f32 / 16777216.0 - 0.5) * 2.0e3
        }
    }

    fn salted_chunk(dims: (usize, usize, usize), h: usize, seed: usize) -> PaddedScalar {
        let mut p = PaddedScalar::zeros(dims.0, dims.1, dims.2, h);
        let mut i = seed;
        p.fill(|_, _, _| {
            i += 1;
            salted(i)
        });
        p
    }

    #[test]
    fn lane_blocks_match_the_per_point_reference_at_every_row_length() {
        // rows below, at, above and not a multiple of the block width; the
        // 3/5/7/9-tap kernels on every axis, and on the channel grid the
        // per-row stencil table and the order + 2 taps of a bounded second
        // derivative (the per-point fold)
        let cube = Grid3::periodic_cube(16, TAU);
        let channel = Grid3::channel(8, 33, 8, TAU, TAU, 1.7);
        for order in FdOrder::all() {
            for nx in 1..=40 {
                for (grid, dims) in [(&cube, (nx, 3, 2)), (&channel, (nx, 33, 1))] {
                    let scheme = DiffScheme::new(grid, order);
                    let p = salted_chunk(dims, scheme.halo(), nx * 7919);
                    for axis in 0..3 {
                        let first = same_bits(
                            &scheme.deriv_padded(&p, axis, [0, 0, 0]),
                            &scheme.deriv_padded_reference(&p, axis, [0, 0, 0]),
                        );
                        assert!(first.is_ok(), "∂ axis {axis} {order:?} nx {nx}: {first:?}");
                        let second = same_bits(
                            &scheme.deriv2_padded(&p, axis, [0, 0, 0]),
                            &deriv2_padded_reference(&scheme, &p, axis, [0, 0, 0]),
                        );
                        assert!(
                            second.is_ok(),
                            "∂² axis {axis} {order:?} nx {nx}: {second:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_weight_centre_tap_still_turns_infinity_into_nan() {
        // one ∞ in a field of ones, in a block lane (x = 3) and in the tail
        // (x = 37) of a 40-point row. The centre weight is 0 on a unit
        // grid — `0·∞` is NaN — and a rounding error elsewhere — `ε·∞` is
        // ∞; a kernel that skipped the tap would answer with a number
        let mut nans = 0;
        for (length, order) in [64.0, TAU]
            .into_iter()
            .flat_map(|l| FdOrder::all().map(|o| (l, o)))
        {
            let scheme = DiffScheme::new(&Grid3::periodic_cube(64, length), order);
            let zero = scheme.axes[0].stencil(0).weights[order.half_width()] == 0.0;
            for x_inf in [3isize, 37] {
                let mut p = PaddedScalar::zeros(40, 1, 1, scheme.halo());
                p.fill(|x, y, z| {
                    if (x, y, z) == (x_inf, 0, 0) {
                        f32::INFINITY
                    } else {
                        1.0
                    }
                });
                for axis in 0..3 {
                    let d = scheme.deriv_padded(&p, axis, [0, 0, 0]);
                    let at_inf = d.get(x_inf as usize, 0, 0);
                    assert!(
                        if zero {
                            at_inf.is_nan()
                        } else {
                            at_inf.is_infinite()
                        },
                        "{order:?} axis {axis}: {at_inf}"
                    );
                    nans += usize::from(at_inf.is_nan());
                    let r = same_bits(&d, &scheme.deriv_padded_reference(&p, axis, [0, 0, 0]));
                    assert!(r.is_ok(), "{order:?} axis {axis}: {r:?}");
                }
            }
        }
        assert!(
            nans > 0,
            "no stencil with an exactly zero centre weight was tried"
        );
    }

    /// The reach is tight. On a channel grid and a cube with one wall axis,
    /// at every order, for boxes of extent 1..=order at both walls and
    /// inside: a box padded by exactly its [`DiffScheme::reach`] derives
    /// the bits of the whole-axis derivative, its outermost ghost shell is
    /// read (a NaN there shows), and one ghost less trips the check. On
    /// periodic axes every box reaches the centred half-width; at a wall
    /// many reach further, which a halo of `order / 2` would not hold.
    #[test]
    fn a_box_padded_by_its_reach_derives_the_whole_axis_bits_and_one_ghost_less_panics() {
        let mut wider = 0;
        let mut wall = Grid3::periodic_cube(16, TAU);
        wall.periodic = [true, false, true];
        let channel = Grid3::channel(16, 33, 16, TAU, TAU, 1.7);
        let cube = Grid3::periodic_cube(16, TAU);
        for order in FdOrder::all() {
            for grid in [&wall, &channel] {
                let scheme = DiffScheme::new(grid, order);
                let [nx, ny, nz] = scheme.dims;
                let n = scheme.dims.map(|n| n as isize);
                // wrapped on a periodic axis, clamped on a wall
                let at = |p: [isize; 3]| {
                    let [x, y, z] = std::array::from_fn(|a| match grid.periodic[a] {
                        true => p[a].rem_euclid(n[a]),
                        false => p[a].clamp(0, n[a] - 1),
                    });
                    ((x * 7 + y * 13 + z * 29) % 97) as f32 / 97.0 - 0.5
                };
                let deriv = |second, f: &PaddedScalar, axis, origin| match second {
                    true => scheme.deriv2_padded(f, axis, origin),
                    false => scheme.deriv_padded(f, axis, origin),
                };
                let mut whole = PaddedScalar::zeros(nx, ny, nz, scheme.halo());
                whole.fill(|x, y, z| at([x, y, z]));
                for second in [false, true] {
                    let wants: [ScalarField; 3] =
                        std::array::from_fn(|axis| deriv(second, &whole, axis, [0; 3]));
                    for e in 1..=order.order() {
                        for origin in [0, ny - e, ny / 2 - e / 2].map(|y| [3, y, 14]) {
                            let extent = [2, e, 3];
                            let row = format!("{order:?} {grid:?} second {second} at {origin:?}");
                            let reach = scheme.reach(second, origin, extent);
                            wider += usize::from(reach > order.half_width());
                            let centred = DiffScheme::new(&cube, order);
                            assert_eq!(
                                centred.reach(second, origin, extent),
                                order.half_width(),
                                "{row}"
                            );
                            // the box and `halo` ghosts, the outermost NaN
                            // when `poison`
                            let padded = |halo: usize, poison: bool| {
                                let mut p = PaddedScalar::zeros(2, e, 3, halo);
                                let h = halo as isize;
                                let hi = extent.map(|e| e as isize - 1 + h);
                                p.fill(|x, y, z| {
                                    let l = [x, y, z];
                                    if poison && (0..3).any(|a| l[a] == -h || l[a] == hi[a]) {
                                        f32::NAN
                                    } else {
                                        at(std::array::from_fn(|a| l[a] + origin[a] as isize))
                                    }
                                });
                                p
                            };
                            let exact = padded(reach, false);
                            for (axis, want) in wants.iter().enumerate() {
                                let got = deriv(second, &exact, axis, origin);
                                for (x, y, z) in Box3::new([0; 3], [1, e as u32 - 1, 2]).points() {
                                    let (x, y, z) = (x as usize, y as usize, z as usize);
                                    let w = want.get(
                                        origin[0] + x,
                                        origin[1] + y,
                                        (origin[2] + z) % nz,
                                    );
                                    assert_eq!(
                                        got.get(x, y, z).to_bits(),
                                        w.to_bits(),
                                        "{row}, axis {axis} at ({x}, {y}, {z})"
                                    );
                                }
                            }
                            let poisoned = padded(reach, true);
                            assert!(
                                (0..3).any(|axis| deriv(second, &poisoned, axis, origin)
                                    .as_slice()
                                    .iter()
                                    .any(|v| v.is_nan())),
                                "{row}: the outermost ghosts of a reach of {reach} are never read"
                            );
                            let thin = padded(reach - 1, false);
                            let tried = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                deriv(second, &thin, 1, origin)
                            }));
                            assert!(tried.is_err(), "{row}: a halo of {} passes", reach - 1);
                        }
                    }
                }
            }
        }
        assert!(
            wider > 100,
            "{wider} boxes reach past the centred half-width"
        );
    }

    #[test]
    fn bounded_axis_derivative_on_channel_grid() {
        // f(y) = y^2 on the stretched channel axis; df/dy = 2y exactly
        // (order >= 2 is exact for quadratics).
        let grid = Grid3::channel(8, 33, 8, TAU, TAU, 1.7);
        let scheme = DiffScheme::new(&grid, FdOrder::O4);
        let ys: Vec<f64> = (0..33).map(|j| grid.sy.coord(j)).collect();
        let f = ScalarField::from_fn(8, 33, 8, |_, y, _| (ys[y] * ys[y]) as f32);
        // whole-domain "chunk": halo only used on periodic axes
        let mut p = PaddedScalar::zeros(8, 33, 8, scheme.halo());
        p.fill(|x, y, z| {
            let xi = x.rem_euclid(8) as usize;
            let zi = z.rem_euclid(8) as usize;
            let yi = y.clamp(0, 32) as usize; // clamped ghosts never read on axis 1
            f.get(xi, yi, zi)
        });
        let d = scheme.deriv_padded(&p, 1, [0, 0, 0]);
        for (j, &yj) in ys.iter().enumerate() {
            let got = f64::from(d.get(3, j, 3));
            assert!(
                (got - 2.0 * yj).abs() < 1e-4,
                "node {j}: {got} vs {}",
                2.0 * yj
            );
        }
    }
}
