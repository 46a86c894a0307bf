//! Finite-difference stencil generation.
//!
//! Centred stencils follow the paper's Eq. (2) (4th-order shown there);
//! orders 2–8 are offered, matching the JHTDB differentiation options.
//! All weights — including one-sided wall stencils and stencils on the
//! stretched channel-flow `y` axis — are generated with Fornberg's
//! algorithm, so uniform-grid weights are a special case that is verified
//! against the classical closed forms in tests.

/// Finite-difference accuracy order. `order / 2` is the half-width of the
/// centred stencils; a halo is what the stencils reach past a box, wall
/// tables included ([`crate::DiffScheme::reach`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FdOrder {
    O2,
    O4,
    O6,
    O8,
}

impl FdOrder {
    /// Accuracy order as an integer.
    pub fn order(self) -> usize {
        match self {
            FdOrder::O2 => 2,
            FdOrder::O4 => 4,
            FdOrder::O6 => 6,
            FdOrder::O8 => 8,
        }
    }

    /// Half-width of the centred stencils (not a halo: see [`FdOrder`]).
    pub fn half_width(self) -> usize {
        self.order() / 2
    }

    /// All supported orders.
    pub fn all() -> [FdOrder; 4] {
        [FdOrder::O2, FdOrder::O4, FdOrder::O6, FdOrder::O8]
    }
}

/// Weights of finite-difference approximations at `z` over nodes `x`,
/// for all derivatives `0..=m` (Fornberg 1988).
///
/// Returns `w` with `w[k][j]` = weight of node `x[j]` in the `k`-th
/// derivative.
pub fn fornberg_weights(z: f64, x: &[f64], m: usize) -> Vec<Vec<f64>> {
    let n = x.len();
    assert!(n > m, "need more than {m} nodes for the {m}-th derivative");
    let mut c = vec![vec![0.0f64; n]; m + 1];
    let mut c1 = 1.0;
    let mut c4 = x[0] - z;
    c[0][0] = 1.0;
    for i in 1..n {
        let mn = i.min(m);
        let mut c2 = 1.0;
        let c5 = c4;
        c4 = x[i] - z;
        for j in 0..i {
            let c3 = x[i] - x[j];
            c2 *= c3;
            if j == i - 1 {
                for k in (1..=mn).rev() {
                    c[k][i] = c1 * (k as f64 * c[k - 1][i - 1] - c5 * c[k][i - 1]) / c2;
                }
                c[0][i] = -c1 * c5 * c[0][i - 1] / c2;
            }
            for k in (1..=mn).rev() {
                c[k][j] = (c4 * c[k][j] - k as f64 * c[k - 1][j]) / c3;
            }
            c[0][j] = c4 * c[0][j] / c3;
        }
        c1 = c2;
    }
    c
}

/// A one-dimensional first-derivative stencil: signed node offsets relative
/// to the evaluation point, and the matching weights (spacing already
/// incorporated).
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil {
    pub offsets: Vec<isize>,
    pub weights: Vec<f64>,
}

impl Stencil {
    /// Centred first-derivative stencil of the given order on a uniform
    /// grid with spacing `h`.
    pub fn centered(order: FdOrder, h: f64) -> Stencil {
        let w = order.half_width() as isize;
        let offsets: Vec<isize> = (-w..=w).collect();
        let nodes: Vec<f64> = offsets.iter().map(|&o| o as f64 * h).collect();
        let weights = fornberg_weights(0.0, &nodes, 1).swap_remove(1);
        Stencil { offsets, weights }
    }

    /// Centred second-derivative stencil of the given order on a uniform
    /// grid with spacing `h`.
    pub fn centered_second(order: FdOrder, h: f64) -> Stencil {
        let w = order.half_width() as isize;
        let offsets: Vec<isize> = (-w..=w).collect();
        let nodes: Vec<f64> = offsets.iter().map(|&o| o as f64 * h).collect();
        let weights = fornberg_weights(0.0, &nodes, 2).swap_remove(2);
        Stencil { offsets, weights }
    }

    /// Second-derivative stencil at node `i` of an arbitrary axis (wall
    /// nodes get one-sided stencils).
    pub fn at_node_second(order: FdOrder, coords: &[f64], i: usize) -> Stencil {
        let n = coords.len();
        let width = order.order() + 2; // one extra node for the 2nd derivative
        assert!(n >= width, "axis too short for order {}", order.order());
        let half = width / 2;
        let start = i.saturating_sub(half).min(n - width);
        let nodes = &coords[start..start + width];
        let weights = fornberg_weights(coords[i], nodes, 2).swap_remove(2);
        let offsets = (0..width)
            .map(|j| (start + j) as isize - i as isize)
            .collect();
        Stencil { offsets, weights }
    }

    /// First-derivative stencil at node `i` of an arbitrary coordinate axis
    /// `coords`, using up to `order + 1` nearest nodes (one-sided near the
    /// ends). This covers both wall boundaries and stretched axes.
    pub fn at_node(order: FdOrder, coords: &[f64], i: usize) -> Stencil {
        let n = coords.len();
        let width = order.order() + 1;
        assert!(n >= width, "axis too short for order {}", order.order());
        let half = order.half_width();
        let start = i.saturating_sub(half).min(n - width);
        let nodes = &coords[start..start + width];
        let weights = fornberg_weights(coords[i], nodes, 1).swap_remove(1);
        let offsets = (0..width)
            .map(|j| (start + j) as isize - i as isize)
            .collect();
        Stencil { offsets, weights }
    }

    /// Largest absolute offset used.
    pub fn reach(&self) -> usize {
        self.offsets
            .iter()
            .map(|o| o.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// Applies the stencil to samples fetched through `get(offset)`.
    ///
    /// Uses an explicit `acc += w * v` fold from `0.0` (not
    /// `Iterator::sum`): the row kernel in `diff.rs` adds the same terms
    /// in the same order, which is what makes the two bit-identical.
    #[inline]
    pub fn apply(&self, mut get: impl FnMut(isize) -> f64) -> f64 {
        let mut acc = 0.0f64;
        for (&o, &w) in self.offsets.iter().zip(&self.weights) {
            acc += w * get(o);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn centered_matches_classical_coefficients() {
        let s2 = Stencil::centered(FdOrder::O2, 1.0);
        assert_eq!(s2.offsets, vec![-1, 0, 1]);
        for (w, e) in s2.weights.iter().zip([-0.5, 0.0, 0.5]) {
            assert!(close(*w, e, 1e-12), "{w} vs {e}");
        }
        // paper Eq. (2): 2/3 (f1 - f-1) - 1/12 (f2 - f-2)
        let s4 = Stencil::centered(FdOrder::O4, 1.0);
        let expect4 = [1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0];
        for (w, e) in s4.weights.iter().zip(expect4) {
            assert!(close(*w, e, 1e-12), "{w} vs {e}");
        }
        let s6 = Stencil::centered(FdOrder::O6, 1.0);
        let expect6 = [
            -1.0 / 60.0,
            3.0 / 20.0,
            -3.0 / 4.0,
            0.0,
            3.0 / 4.0,
            -3.0 / 20.0,
            1.0 / 60.0,
        ];
        for (w, e) in s6.weights.iter().zip(expect6) {
            assert!(close(*w, e, 1e-12), "{w} vs {e}");
        }
        let s8 = Stencil::centered(FdOrder::O8, 1.0);
        let expect8 = [
            1.0 / 280.0,
            -4.0 / 105.0,
            0.2,
            -0.8,
            0.0,
            0.8,
            -0.2,
            4.0 / 105.0,
            -1.0 / 280.0,
        ];
        for (w, e) in s8.weights.iter().zip(expect8) {
            assert!(close(*w, e, 1e-12), "{w} vs {e}");
        }
    }

    #[test]
    fn centered_scales_with_spacing() {
        let s = Stencil::centered(FdOrder::O2, 0.5);
        assert!(close(s.weights[2], 1.0, 1e-12));
    }

    #[test]
    fn one_sided_stencil_at_wall_is_exact_for_polynomials() {
        // order-4 stencil at the first node of a stretched axis must
        // differentiate a degree-4 polynomial exactly.
        let coords: Vec<f64> = (0..10).map(|i| (i as f64 / 9.0).powi(2)).collect();
        let s = Stencil::at_node(FdOrder::O4, &coords, 0);
        // all offsets forward
        assert!(s.offsets.iter().all(|&o| o >= 0));
        let p = |x: f64| 1.0 + x + x * x + x.powi(3) + x.powi(4);
        let dp = |x: f64| 1.0 + 2.0 * x + 3.0 * x * x + 4.0 * x.powi(3);
        let got = s.apply(|o| p(coords[o as usize]));
        assert!(close(got, dp(coords[0]), 1e-9), "{got}");
    }

    #[test]
    fn interior_stretched_stencil_is_centered_window() {
        let coords: Vec<f64> = (0..20).map(|i| (i as f64).sqrt()).collect();
        let s = Stencil::at_node(FdOrder::O4, &coords, 10);
        assert_eq!(s.offsets, vec![-2, -1, 0, 1, 2]);
    }

    #[test]
    fn derivative_of_sine_converges_with_order() {
        let n = 32usize;
        let h = std::f64::consts::TAU / n as f64;
        let f = |i: isize| (h * i as f64).sin();
        let mut prev_err = f64::INFINITY;
        for order in FdOrder::all() {
            let s = Stencil::centered(order, h);
            // max error over all nodes (periodic)
            let err = (0..n as isize)
                .map(|i| {
                    let d = s.apply(|o| f(i + o));
                    (d - (h * i as f64).cos()).abs()
                })
                .fold(0.0f64, f64::max);
            assert!(err < prev_err, "order {:?} err {err} !< {prev_err}", order);
            prev_err = err;
        }
        // order-8 leading error ≈ h⁸/630 ≈ 3e-9 at n = 32
        assert!(prev_err < 1e-7);
    }

    #[test]
    fn second_derivative_stencils_are_exact_on_quadratics() {
        for order in FdOrder::all() {
            let s = Stencil::centered_second(order, 0.5);
            // d²/dx² of x² = 2
            let d = s.apply(|o| (o as f64 * 0.5).powi(2));
            assert!((d - 2.0).abs() < 1e-8, "{order:?}: {d}");
            // constants vanish
            let z = s.apply(|_| 7.0);
            assert!(z.abs() < 1e-8);
        }
        // classic O2 coefficients [1, -2, 1] / h²
        let s = Stencil::centered_second(FdOrder::O2, 1.0);
        for (w, e) in s.weights.iter().zip([1.0, -2.0, 1.0]) {
            assert!((w - e).abs() < 1e-10);
        }
    }

    #[test]
    fn second_derivative_of_sine_converges() {
        let n = 32usize;
        let h = std::f64::consts::TAU / n as f64;
        let mut prev = f64::INFINITY;
        for order in FdOrder::all() {
            let s = Stencil::centered_second(order, h);
            let err = (0..n as isize)
                .map(|i| {
                    let d = s.apply(|o| (h * (i + o) as f64).sin());
                    (d + (h * i as f64).sin()).abs() // d²sin = -sin
                })
                .fold(0.0f64, f64::max);
            assert!(err < prev, "{order:?}: {err} !< {prev}");
            prev = err;
        }
        assert!(prev < 1e-5);
    }

    #[test]
    fn one_sided_second_derivative_at_wall() {
        let coords: Vec<f64> = (0..12)
            .map(|i| (i as f64 / 11.0).powf(1.5) + i as f64 * 0.1)
            .collect();
        let s = Stencil::at_node_second(FdOrder::O2, &coords, 0);
        assert!(s.offsets.iter().all(|&o| o >= 0));
        // exact for quadratics
        let d = s.apply(|o| coords[o as usize].powi(2));
        assert!((d - 2.0).abs() < 1e-6, "{d}");
    }

    proptest! {
        #[test]
        fn weights_sum_to_zero_and_reproduce_linear(
            order_idx in 0usize..4, h in 0.01f64..10.0
        ) {
            let order = FdOrder::all()[order_idx];
            let s = Stencil::centered(order, h);
            let sum: f64 = s.weights.iter().sum();
            prop_assert!(sum.abs() < 1e-9);
            // derivative of f(x) = x is 1
            let d = s.apply(|o| o as f64 * h);
            prop_assert!(close(d, 1.0, 1e-9));
        }

        #[test]
        fn node_stencils_are_exact_for_their_order(
            i in 0usize..16, order_idx in 0usize..4
        ) {
            let order = FdOrder::all()[order_idx];
            let coords: Vec<f64> = (0..16).map(|k| k as f64 + 0.3 * ((k * k) as f64).sin()).collect();
            let s = Stencil::at_node(order, &coords, i);
            // exact on monomials up to the order
            for p in 0..=order.order() {
                let d = s.apply(|o| coords[(i as isize + o) as usize].powi(p as i32));
                let expect = if p == 0 { 0.0 } else { p as f64 * coords[i].powi(p as i32 - 1) };
                prop_assert!(close(d, expect, 1e-6), "p={p} d={d} expect={expect}");
            }
        }
    }
}
