//! Dense 3-D field containers and grid geometry for ThresholDB.
//!
//! Simulation output lives on a regular three-dimensional spatial grid
//! (with the exception of channel flow, whose `y` axis is stretched —
//! paper §2). This crate provides the in-memory representation of that
//! data:
//!
//! * [`grid::Grid3`] — grid geometry (extents, spacing, periodicity,
//!   optionally stretched `y` coordinates),
//! * [`scalar::ScalarField`] — a dense `f32` array, x-fastest,
//! * [`vector::VectorField`] — planar (structure-of-arrays) multi-component
//!   fields,
//! * [`halo::PaddedScalar`] / [`halo::PaddedVector`] — fields with ghost
//!   layers for kernel computations,
//! * [`stats`] — RMS, extrema and histogram/PDF utilities.

pub mod grid;
pub mod halo;
pub mod scalar;
pub mod stats;
pub mod vector;

pub use grid::{Grid3, Spacing};
pub use halo::{PaddedScalar, PaddedVector};
pub use scalar::ScalarField;
pub use stats::{FieldStats, Histogram};
pub use vector::VectorField;

/// Whether a stored value belongs to the answer of a threshold query: at
/// or above the threshold, compared in `f64`. The value widens exactly;
/// the threshold must not narrow — a threshold like `25.000000001` must
/// exclude a stored `25.0`. The one comparison the scan kernels and the
/// semantic cache's hit filter share.
#[inline]
pub fn at_or_above(value: f32, threshold: f64) -> bool {
    f64::from(value) >= threshold
}
