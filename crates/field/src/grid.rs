//! Grid geometry.

/// Spacing of one grid axis.
#[derive(Debug, Clone, PartialEq)]
pub enum Spacing {
    /// Uniform spacing `h` between adjacent nodes.
    Uniform(f64),
    /// Explicit node coordinates (channel-flow `y` axis). Must be strictly
    /// increasing and have one entry per grid node.
    Stretched(Vec<f64>),
}

impl Spacing {
    /// Coordinate of node `i`.
    pub fn coord(&self, i: usize) -> f64 {
        match self {
            Spacing::Uniform(h) => h * i as f64,
            Spacing::Stretched(xs) => xs[i],
        }
    }
}

/// Geometry of a simulation grid.
///
/// Extents are in grid points; `periodic` marks axes on which the domain
/// wraps (isotropic and MHD datasets are fully periodic; channel flow has
/// walls in `y`).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub sx: Spacing,
    pub sy: Spacing,
    pub sz: Spacing,
    pub periodic: [bool; 3],
}

impl Grid3 {
    /// Fully periodic cube of edge `n` over a domain of physical size `len`
    /// — the geometry of the isotropic and MHD datasets (domain `2π`).
    pub fn periodic_cube(n: usize, len: f64) -> Self {
        assert!(n > 0 && len > 0.0);
        let h = len / n as f64;
        Self {
            nx: n,
            ny: n,
            nz: n,
            sx: Spacing::Uniform(h),
            sy: Spacing::Uniform(h),
            sz: Spacing::Uniform(h),
            periodic: [true, true, true],
        }
    }

    /// Channel-flow-like grid: periodic in `x`/`z`, wall-bounded stretched
    /// `y` with nodes clustered near the walls (hyperbolic-tangent map onto
    /// `[-1, 1]`).
    pub fn channel(nx: usize, ny: usize, nz: usize, lx: f64, lz: f64, beta: f64) -> Self {
        assert!(nx > 0 && ny > 1 && nz > 0 && beta > 0.0);
        let ys: Vec<f64> = (0..ny)
            .map(|j| {
                let s = 2.0 * j as f64 / (ny - 1) as f64 - 1.0; // [-1, 1]
                (beta * s).tanh() / beta.tanh()
            })
            .collect();
        Self {
            nx,
            ny,
            nz,
            sx: Spacing::Uniform(lx / nx as f64),
            sy: Spacing::Stretched(ys),
            sz: Spacing::Uniform(lz / nz as f64),
            periodic: [true, false, true],
        }
    }

    /// Total number of grid points.
    pub fn num_points(&self) -> u64 {
        self.nx as u64 * self.ny as u64 * self.nz as u64
    }

    /// Extents as a tuple.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Spacing description of axis `ax`.
    pub fn spacing(&self, ax: usize) -> &Spacing {
        match ax {
            0 => &self.sx,
            1 => &self.sy,
            2 => &self.sz,
            _ => panic!("axis {ax} out of range"),
        }
    }

    /// Extent along axis `ax`.
    pub fn extent(&self, ax: usize) -> usize {
        match ax {
            0 => self.nx,
            1 => self.ny,
            2 => self.nz,
            _ => panic!("axis {ax} out of range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_cube_geometry() {
        let g = Grid3::periodic_cube(64, std::f64::consts::TAU);
        assert_eq!(g.num_points(), 64 * 64 * 64);
        assert!(g.periodic.iter().all(|&p| p));
        let h = g.sx.coord(1) - g.sx.coord(0);
        assert!((h - std::f64::consts::TAU / 64.0).abs() < 1e-12);
        assert!((g.sx.coord(3) - 3.0 * h).abs() < 1e-12);
    }

    #[test]
    fn channel_grid_is_stretched_and_wall_bounded() {
        let g = Grid3::channel(32, 49, 16, 8.0, 3.0, 2.0);
        assert_eq!(g.periodic, [true, false, true]);
        let Spacing::Stretched(ys) = &g.sy else {
            panic!("expected stretched y");
        };
        assert_eq!(ys.len(), 49);
        assert!((ys[0] + 1.0).abs() < 1e-12 && (ys[48] - 1.0).abs() < 1e-12);
        // strictly increasing, clustered near walls
        assert!(ys.windows(2).all(|w| w[1] > w[0]));
        let near_wall = ys[1] - ys[0];
        let mid = ys[25] - ys[24];
        assert!(near_wall < mid);
    }
}
