//! Synthetic turbulence generator.
//!
//! The paper evaluates on the JHU MHD and forced-isotropic DNS archives,
//! which are not redistributable. This crate generates the closest synthetic
//! equivalent (see DESIGN.md §1): solenoidal velocity and magnetic fields
//! with large-scale spatial correlation and a *heavy-tailed* vorticity PDF,
//! so that extreme-event threshold queries have the same selectivity
//! structure as the paper's (fractions of ~1e-3 … 1e-6 of all points above
//! 4.4σ/6σ/8σ).
//!
//! Construction per time-step:
//!
//! 1. white-noise vector potential `A` (seeded, reproducible),
//! 2. periodic iterated-box smoothing of `A` (large-scale correlation),
//! 3. lognormal intermittency envelope `w = exp(μ g)` from an independent
//!    smoothed unit-variance noise `g`, applied to `A`,
//! 4. `u = ∇ × (w A)` — exactly divergence-free by the discrete identity,
//! 5. rescaling so the curl of `u` (the vorticity) has a prescribed RMS.
//!
//! Time evolution blends two fixed keyframe potentials with a slowly
//! rotating phase, giving smooth, deterministic, random-access time-steps.

pub mod dataset;
pub mod noise;
pub mod smooth;
pub mod synth;

pub use dataset::{DatasetKind, SyntheticDataset, TimeStepData};
pub use synth::{generate_solenoidal, GenParams};
