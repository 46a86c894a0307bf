//! Assembling padded computation domains from atom records.
//!
//! "The data are read into memory and the particular field requested is
//! computed at each of the locations on the grid" (paper §4). A chunk's
//! computation domain is its grid box clipped to the query box, dilated by
//! as far as its stencils reach; this module figures out which atoms cover
//! that dilated box (wrapping on periodic axes) and scatters their payloads
//! into a [`PaddedVector`].

use std::collections::HashMap;

use tdb_field::PaddedVector;
use tdb_kernels::{DerivedField, DiffScheme};
use tdb_storage::{AtomRecord, StorageError, StorageResult};
use tdb_zorder::{AtomCoord, Box3, ATOM_WIDTH};

/// Which ghosts of a padded cube a kernel reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// Every ghost: the whole dilated box.
    Cube,
    /// Only the ghosts in line with an interior point along one axis. The
    /// cube's edges and corners stay zero, and the atoms only they would
    /// need are not read.
    Axes,
}

/// The halo and reach of a scan deriving `fields` over the domain `d`, the
/// one rule every scan reads under: as far as any field's stencils reach
/// past `d` ([`DerivedField::reach`]), along the axes only when every
/// field's stencil reads nothing else ([`DerivedField::reads_axes_only`]).
pub(crate) fn scan_reach(fields: &[DerivedField], scheme: &DiffScheme, d: &Box3) -> (usize, Reach) {
    let (lo, extent) = (d.lo.map(|l| l as usize), d.extent().map(|e| e as usize));
    let halo = fields.iter().map(|f| f.reach(scheme, lo, extent)).max();
    let reach = if fields.iter().all(DerivedField::reads_axes_only) {
        Reach::Axes
    } else {
        Reach::Cube
    };
    (halo.unwrap_or(0), reach)
}

/// Atoms (by zindex) covering `domain` dilated by `halo`, with periodic
/// wrapping (or clamping on wall axes). Sorted and unique.
pub fn needed_atoms(
    domain: &Box3,
    halo: usize,
    dims: (usize, usize, usize),
    periodic: [bool; 3],
) -> Vec<AtomCoord> {
    reached_atoms(domain, halo, Reach::Cube, dims, periodic)
}

/// The atoms a kernel with `reach` over `domain` reads: [`needed_atoms`]
/// for [`Reach::Cube`], the union of the three one-axis dilations for
/// [`Reach::Axes`]. Sorted and unique.
pub fn reached_atoms(
    domain: &Box3,
    halo: usize,
    reach: Reach,
    dims: (usize, usize, usize),
    periodic: [bool; 3],
) -> Vec<AtomCoord> {
    let mut out = if reach == Reach::Cube || halo == 0 {
        atoms_within(domain, [halo; 3], dims, periodic)
    } else {
        (0..3)
            .flat_map(|axis| {
                let dilation = [0, 1, 2].map(|a| if a == axis { halo } else { 0 });
                atoms_within(domain, dilation, dims, periodic)
            })
            .collect()
    };
    // the key is a Morton encode: once per atom, not once per comparison
    out.sort_by_cached_key(AtomCoord::zindex);
    out.dedup();
    out
}

/// Atoms covering `domain` dilated by `halo[axis]` along each axis, each
/// once, in no particular order.
fn atoms_within(
    domain: &Box3,
    halo: [usize; 3],
    dims: (usize, usize, usize),
    periodic: [bool; 3],
) -> Vec<AtomCoord> {
    let w = ATOM_WIDTH as i64;
    let dims = [dims.0 as i64, dims.1 as i64, dims.2 as i64];
    let mut axis_atoms: [Vec<i64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for ((((axis, &n), &per), (&lo, &hi)), &halo) in axis_atoms
        .iter_mut()
        .zip(&dims)
        .zip(&periodic)
        .zip(domain.lo.iter().zip(&domain.hi))
        .zip(&halo)
    {
        let lo = i64::from(lo) - halo as i64;
        let hi = i64::from(hi) + halo as i64;
        let mut set = std::collections::BTreeSet::new();
        let mut g = lo;
        while g <= hi {
            let wrapped = if per {
                g.rem_euclid(n)
            } else {
                g.clamp(0, n - 1)
            };
            set.insert(wrapped / w);
            // jump to the start of the next atom
            g = (g.div_euclid(w) + 1) * w;
        }
        *axis = set.into_iter().collect();
    }
    let [xs, ys, zs] = &axis_atoms;
    let mut out = Vec::new();
    for &az in zs {
        for &ay in ys {
            for &ax in xs {
                out.push(AtomCoord::new(ax as u32, ay as u32, az as u32));
            }
        }
    }
    out
}

/// A maximal run of consecutive padded indices along one axis whose
/// global coordinates are consecutive points of one atom.
#[derive(Debug)]
struct Run {
    /// First padded index (0 = the outermost ghost).
    start: usize,
    len: usize,
    /// Atom lattice coordinate on this axis.
    atom: u32,
    /// Offset of the run's first point inside the atom.
    offset: usize,
}

/// Cuts one padded axis into [`Run`]s. The wrap (or the clamp, on a wall
/// axis) is applied here, once per coordinate — a ghost that wraps past
/// the grid edge or repeats a clamped wall point simply starts a new run.
fn axis_runs(lo: u32, extent: usize, halo: usize, n: usize, periodic: bool) -> Vec<Run> {
    let w = ATOM_WIDTH as i64;
    let mut runs: Vec<Run> = Vec::new();
    for i in 0..extent + 2 * halo {
        let raw = i64::from(lo) + i as i64 - halo as i64;
        let g = if periodic {
            raw.rem_euclid(n as i64)
        } else {
            raw.clamp(0, n as i64 - 1)
        };
        let (atom, offset) = ((g / w) as u32, (g % w) as usize);
        match runs.last_mut() {
            Some(r) if r.atom == atom && r.offset + r.len == offset => r.len += 1,
            _ => runs.push(Run {
                start: i,
                len: 1,
                atom,
                offset,
            }),
        }
    }
    runs
}

/// Builds the padded input for a kernel over `domain` from fetched atoms.
///
/// `atoms` maps atom zindex → record; every atom returned by
/// [`needed_atoms`] must be present. Scalar fields (ncomp = 1) land in
/// component 0 of the padded vector.
///
/// A missing atom is a fetch-layer failure reported as a typed
/// [`StorageError`], so it travels the proto error channel instead of
/// killing the worker thread.
pub fn assemble_padded(
    domain: &Box3,
    halo: usize,
    dims: (usize, usize, usize),
    periodic: [bool; 3],
    atoms: &HashMap<u64, AtomRecord>,
) -> StorageResult<PaddedVector<3>> {
    let mut padded = PaddedVector::default();
    assemble_padded_into(&mut padded, domain, halo, dims, periodic, atoms)?;
    Ok(padded)
}

/// [`assemble_padded`] into a caller-owned cube, which is reshaped and
/// keeps its allocation (scan workers reuse one cube across chunks).
///
/// Every padded row is a handful of `copy_from_slice`s: atom payloads are
/// x-fastest, so the part of a padded row inside one atom is one
/// contiguous segment (≤ 8 floats) of that atom's row. The records of an
/// atom row are looked up, and their planes resolved, once for all the
/// padded rows that cross it.
pub fn assemble_padded_into(
    padded: &mut PaddedVector<3>,
    domain: &Box3,
    halo: usize,
    dims: (usize, usize, usize),
    periodic: [bool; 3],
    atoms: &HashMap<u64, AtomRecord>,
) -> StorageResult<()> {
    assemble_reach_into(padded, domain, halo, Reach::Cube, dims, periodic, atoms)
}

/// [`assemble_padded_into`] of the ghosts `reach` names; `atoms` must hold
/// every atom [`reached_atoms`] returns. Under [`Reach::Axes`] a row in line
/// with the domain along y or z alone gets its interior x only, and a row
/// outside it along both is left at zero.
pub(crate) fn assemble_reach_into(
    padded: &mut PaddedVector<3>,
    domain: &Box3,
    halo: usize,
    reach: Reach,
    dims: (usize, usize, usize),
    periodic: [bool; 3],
    atoms: &HashMap<u64, AtomRecord>,
) -> StorageResult<()> {
    let (ex, ey, ez) = domain.extent3();
    padded.reset(ex, ey, ez, halo);
    let [lx, ly, lz] = domain.lo;
    let [per_x, per_y, per_z] = periodic;
    let xruns = axis_runs(lx, ex, halo, dims.0, per_x);
    let yruns = axis_runs(ly, ey, halo, dims.1, per_y);
    let zruns = axis_runs(lz, ez, halo, dims.2, per_z);
    let short = || StorageError::internal("atom row segment outside its record or padded row");
    let h = halo as isize;
    let inside = |i: usize, extent: usize| (halo..halo + extent).contains(&i);
    // per atom of the row, its component planes (empty past `ncomp`);
    // `None` for an atom the fetch did not return
    let mut planes: Vec<Option<[&[f32]; 3]>> = Vec::with_capacity(xruns.len());
    for zrun in &zruns {
        for yrun in &yruns {
            planes.clear();
            planes.extend(xruns.iter().map(|xrun| {
                let atom = AtomCoord::new(xrun.atom, yrun.atom, zrun.atom);
                let rec = atoms.get(&atom.zindex())?;
                Some([0, 1, 2].map(|c| rec.plane(c)))
            }));
            for dz in 0..zrun.len {
                for dy in 0..yrun.len {
                    let (py, pz) = (yrun.start + dy, zrun.start + dz);
                    // the padded x range this row needs
                    let xs = match (reach, inside(py, ey), inside(pz, ez)) {
                        (Reach::Cube, ..) | (Reach::Axes, true, true) => 0..ex + 2 * halo,
                        (Reach::Axes, false, false) => continue,
                        (Reach::Axes, ..) => halo..halo + ex,
                    };
                    let src_row = ATOM_WIDTH * (yrun.offset + dy + ATOM_WIDTH * (zrun.offset + dz));
                    let (y, z) = (py as isize - h, pz as isize - h);
                    for (c, comp) in padded.comps_mut().iter_mut().enumerate() {
                        let row = comp.padded_row_mut(y, z);
                        for (xrun, atom) in xruns.iter().zip(&planes) {
                            let lo = xrun.start.max(xs.start);
                            let hi = (xrun.start + xrun.len).min(xs.end);
                            if lo >= hi {
                                continue;
                            }
                            let atom = atom.ok_or_else(|| {
                                let atom = AtomCoord::new(xrun.atom, yrun.atom, zrun.atom);
                                StorageError::internal(format!(
                                    "atom {atom:?} missing from the fetch result"
                                ))
                            })?;
                            let Some(plane) = atom.get(c).filter(|p| !p.is_empty()) else {
                                continue;
                            };
                            let src = src_row + xrun.offset + (lo - xrun.start);
                            row.get_mut(lo..hi).ok_or_else(short)?.copy_from_slice(
                                plane.get(src..src + (hi - lo)).ok_or_else(short)?,
                            );
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_storage::AtomKey;
    use tdb_zorder::ATOM_POINTS;

    /// Builds an atom map over a whole grid where component `c` at global
    /// point (x,y,z) stores `c*1e6 + x + 10y + 100z`.
    fn atom_map(dims: (usize, usize, usize), ncomp: u8) -> HashMap<u64, AtomRecord> {
        let mut out = HashMap::new();
        for az in 0..(dims.2 / ATOM_WIDTH) as u32 {
            for ay in 0..(dims.1 / ATOM_WIDTH) as u32 {
                for ax in 0..(dims.0 / ATOM_WIDTH) as u32 {
                    let atom = AtomCoord::new(ax, ay, az);
                    let mut data = vec![0.0f32; usize::from(ncomp) * ATOM_POINTS];
                    for (gx, gy, gz) in atom.grid_points() {
                        let off = atom.point_offset(gx, gy, gz).unwrap();
                        for c in 0..usize::from(ncomp) {
                            data[c * ATOM_POINTS + off] =
                                (c as f32) * 1e6 + (gx + 10 * gy + 100 * gz) as f32;
                        }
                    }
                    out.insert(
                        atom.zindex(),
                        AtomRecord::new(AtomKey::new(0, atom.zindex()), ncomp, data).unwrap(),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn needed_atoms_interior_no_halo() {
        let domain = Box3::new([8, 8, 8], [15, 15, 15]);
        let atoms = needed_atoms(&domain, 0, (32, 32, 32), [true; 3]);
        assert_eq!(atoms, vec![AtomCoord::new(1, 1, 1)]);
    }

    #[test]
    fn needed_atoms_with_halo_spans_neighbours() {
        let domain = Box3::new([8, 8, 8], [15, 15, 15]);
        let atoms = needed_atoms(&domain, 2, (32, 32, 32), [true; 3]);
        assert_eq!(atoms.len(), 27, "3x3x3 atom neighbourhood");
    }

    #[test]
    fn needed_atoms_wraps_periodically() {
        let domain = Box3::new([0, 0, 0], [7, 7, 7]);
        let atoms = needed_atoms(&domain, 1, (32, 32, 32), [true; 3]);
        // neighbours at -1 wrap to lattice coordinate 3
        assert!(atoms.contains(&AtomCoord::new(3, 0, 0)));
        assert!(atoms.contains(&AtomCoord::new(3, 3, 3)));
        assert_eq!(atoms.len(), 27);
    }

    #[test]
    fn needed_atoms_clamps_on_walls() {
        let domain = Box3::new([0, 0, 0], [7, 7, 7]);
        let atoms = needed_atoms(&domain, 1, (32, 32, 32), [true, false, true]);
        // y neighbours clamp to the wall: only y-lattice 0 and 1 appear
        assert!(atoms.iter().all(|a| a.y <= 1));
        assert_eq!(atoms.len(), 3 * 2 * 3);
    }

    #[test]
    fn assemble_matches_source_values() {
        let dims = (32, 32, 32);
        let atoms = atom_map(dims, 3);
        let domain = Box3::new([8, 16, 8], [15, 23, 15]);
        let p = assemble_padded(&domain, 2, dims, [true; 3], &atoms).unwrap();
        // interior point
        let v = p.at(0, 0, 0);
        assert_eq!(v[0], (8 + 160 + 800) as f32);
        assert_eq!(v[1], 1e6 + 968.0);
        // halo point wraps/reads neighbour atoms
        let v = p.at(-2, -1, 7);
        assert_eq!(v[0], (6 + 10 * 15 + 100 * 15) as f32);
    }

    #[test]
    fn assemble_periodic_wrap_at_edge() {
        let dims = (16, 16, 16);
        let atoms = atom_map(dims, 1);
        let domain = Box3::new([8, 8, 8], [15, 15, 15]);
        let p = assemble_padded(&domain, 2, dims, [true; 3], &atoms).unwrap();
        // ghost at local x = 8 (global 16) wraps to x = 0
        assert_eq!(p.at(8, 0, 0)[0], (80 + 800) as f32);
        // scalar input: components 1, 2 stay zero
        assert_eq!(p.at(0, 0, 0)[1], 0.0);
        assert_eq!(p.at(0, 0, 0)[2], 0.0);
    }

    #[test]
    fn assemble_errors_on_missing_atom() {
        let dims = (16, 16, 16);
        let mut atoms = atom_map(dims, 1);
        atoms.remove(&AtomCoord::new(0, 0, 0).zindex());
        let domain = Box3::new([0, 0, 0], [7, 7, 7]);
        let err = assemble_padded(&domain, 0, dims, [true; 3], &atoms)
            .expect_err("missing atom must be a typed error");
        assert!(
            err.to_string().contains("missing from the fetch result"),
            "{err}"
        );
    }

    // ---- run-copy assembly ≡ the per-point loop it replaced ---------------

    use proptest::prelude::*;

    /// The per-point assembly `copy_atom_rows` replaced, kept as the
    /// reference: wrap or clamp every coordinate of every point, find its
    /// atom, copy one float.
    fn assemble_per_point(
        domain: &Box3,
        halo: usize,
        dims: (usize, usize, usize),
        periodic: [bool; 3],
        atoms: &HashMap<u64, AtomRecord>,
    ) -> StorageResult<PaddedVector<3>> {
        let (ex, ey, ez) = domain.extent3();
        let mut padded = PaddedVector::zeros(ex, ey, ez, halo);
        let n = [dims.0 as i64, dims.1 as i64, dims.2 as i64];
        let h = halo as isize;
        for z in -h..(ez as isize + h) {
            for y in -h..(ey as isize + h) {
                for x in -h..(ex as isize + h) {
                    let g: [u32; 3] = std::array::from_fn(|ax| {
                        let raw = i64::from(domain.lo[ax]) + [x, y, z][ax] as i64;
                        if periodic[ax] {
                            raw.rem_euclid(n[ax]) as u32
                        } else {
                            raw.clamp(0, n[ax] - 1) as u32
                        }
                    });
                    let atom = AtomCoord::containing(g[0], g[1], g[2]);
                    let rec = atoms.get(&atom.zindex()).ok_or_else(|| {
                        StorageError::internal(format!(
                            "atom {atom:?} missing from the fetch result"
                        ))
                    })?;
                    let off = atom.point_offset(g[0], g[1], g[2]).unwrap();
                    for c in 0..usize::from(rec.ncomp).min(3) {
                        padded.comp_mut(c).set(x, y, z, rec.plane(c)[off]);
                    }
                }
            }
        }
        Ok(padded)
    }

    /// Both assemblies over the same inputs: equal cubes (bit for bit —
    /// the values are copies), also into a reused cube of another shape.
    fn assert_same_assembly(
        domain: Box3,
        halo: usize,
        dims: (usize, usize, usize),
        periodic: [bool; 3],
        ncomp: u8,
    ) {
        let atoms = atom_map(dims, ncomp);
        let want = assemble_per_point(&domain, halo, dims, periodic, &atoms).unwrap();
        let got = assemble_padded(&domain, halo, dims, periodic, &atoms).unwrap();
        assert_eq!(got, want, "{domain:?} halo {halo} periodic {periodic:?}");
        let mut reused = PaddedVector::zeros(3, 5, 7, 2);
        reused.comp_mut(1).fill(|_, _, _| f32::NAN);
        assemble_padded_into(&mut reused, &domain, halo, dims, periodic, &atoms).unwrap();
        assert_eq!(reused, want, "reused cube, {domain:?} halo {halo}");
    }

    #[test]
    fn single_atom_grid_wraps_every_ghost_into_the_same_atom() {
        // 8³ periodic grid: one atom; a halo of 9 laps the grid twice
        for halo in 0..=9 {
            assert_same_assembly(
                Box3::new([0, 0, 0], [7, 7, 7]),
                halo,
                (8, 8, 8),
                [true; 3],
                3,
            );
            assert_same_assembly(
                Box3::new([2, 5, 7], [6, 5, 7]),
                halo,
                (8, 8, 8),
                [true; 3],
                1,
            );
        }
    }

    #[test]
    fn wall_axes_clamp_their_ghosts() {
        for halo in [1, 4, 9] {
            for periodic in [
                [true, false, true],
                [false, false, false],
                [false, true, true],
            ] {
                assert_same_assembly(
                    Box3::new([0, 0, 0], [15, 15, 15]),
                    halo,
                    (16, 16, 16),
                    periodic,
                    3,
                );
                assert_same_assembly(
                    Box3::new([9, 0, 3], [15, 6, 12]),
                    halo,
                    (16, 16, 16),
                    periodic,
                    1,
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn run_copy_assembly_equals_the_per_point_loop(
            lo in prop::array::uniform3(0u32..24),
            ext in prop::array::uniform3(1u32..12),
            halo in 0usize..10,
            walls in 0usize..8,
            scalar in 0usize..2,
        ) {
            // unaligned boxes anywhere in a 24×16×32 grid
            let dims = (24usize, 16usize, 32usize);
            let n = [24u32, 16, 32];
            let lo: [u32; 3] = std::array::from_fn(|ax| lo[ax] % n[ax]);
            let hi: [u32; 3] = std::array::from_fn(|ax| (lo[ax] + ext[ax] - 1).min(n[ax] - 1));
            let periodic: [bool; 3] = std::array::from_fn(|ax| walls >> ax & 1 == 0);
            assert_same_assembly(
                Box3::new(lo, hi), halo, dims, periodic, if scalar == 1 { 1 } else { 3 },
            );
        }
    }

    #[test]
    fn missing_atom_is_the_same_typed_error_on_both_paths() {
        let dims = (16, 16, 16);
        let mut atoms = atom_map(dims, 3);
        // a ghost-only atom: the domain itself is complete
        atoms.remove(&AtomCoord::new(1, 1, 1).zindex());
        let domain = Box3::new([0, 0, 0], [7, 7, 7]);
        let want = assemble_per_point(&domain, 2, dims, [true; 3], &atoms).unwrap_err();
        let got = assemble_padded(&domain, 2, dims, [true; 3], &atoms).unwrap_err();
        assert_eq!(got.to_string(), want.to_string());
        assert!(matches!(got, StorageError::Internal { .. }), "{got:?}");
        // and no error without the halo that reaches it
        assert!(assemble_padded(&domain, 0, dims, [true; 3], &atoms).is_ok());
    }

    /// The reach declaration holds. Every field [`scan_reach`] reads along
    /// the axes, assembled under `Reach::Axes` from just the atoms
    /// `reached_atoms` names (the cube's edges and corners left at zero),
    /// derives the bits it derives from the whole cube: at every order, on
    /// periodic axes, a wall axis and a stretched channel grid, on an atom,
    /// on boxes that cut atoms and wrap the grid or meet a wall, on a
    /// two-point wall slab, a 4³ wall octant and a point, each padded by its
    /// own halo. The box filter, declared to read the cube, derives other
    /// bits from the axes: the declaration is what keeps its answers right.
    #[test]
    fn axis_reach_derives_the_bits_of_the_whole_cube() {
        use std::f64::consts::TAU;
        use tdb_field::Grid3;
        use tdb_kernels::FdOrder;

        let dims = (32, 32, 32);
        let all = atom_map(dims, 3);
        let mut wall = Grid3::periodic_cube(32, TAU);
        wall.periodic = [true, false, true];
        let channel = Grid3::channel(32, 32, 32, TAU, TAU, 1.7);
        let mut fields = DerivedField::all().to_vec();
        fields.extend([1, 2].map(|radius| DerivedField::BoxFilteredNorm { radius }));
        let atom = Box3::new([8, 8, 8], [15, 15, 15]);
        for grid in [Grid3::periodic_cube(32, TAU), wall, channel] {
            let periodic = grid.periodic;
            for order in FdOrder::all() {
                let scheme = DiffScheme::new(&grid, order);
                // an atom and its six face neighbours, of the 27 the cube needs
                let halo = scheme.halo();
                assert_eq!(
                    reached_atoms(&atom, halo, Reach::Axes, dims, periodic).len(),
                    7
                );
                assert_eq!(needed_atoms(&atom, halo, dims, periodic).len(), 27);
                for domain in [
                    atom,
                    Box3::new([0, 0, 29], [12, 7, 31]),
                    Box3::new([20, 24, 4], [27, 31, 11]),
                    Box3::new([5, 17, 9], [5, 17, 9]),
                    Box3::new([0, 0, 0], [31, 1, 31]),
                    Box3::new([12, 28, 20], [15, 31, 23]),
                ] {
                    let origin = domain.lo.map(|l| l as usize);
                    for &field in &fields {
                        let (halo, reach) = scan_reach(&[field], &scheme, &domain);
                        assert_eq!(reach == Reach::Axes, field.reads_axes_only());
                        let needed = needed_atoms(&domain, halo, dims, periodic);
                        let reached = reached_atoms(&domain, halo, Reach::Axes, dims, periodic);
                        assert!(reached.iter().all(|a| needed.contains(a)), "{domain:?}");
                        let subset: HashMap<u64, AtomRecord> = (reached.iter())
                            .map(|a| (a.zindex(), all[&a.zindex()].clone()))
                            .collect();
                        let cube = assemble_padded(&domain, halo, dims, periodic, &all).unwrap();
                        let mut axes = PaddedVector::zeros(3, 5, 7, 2);
                        axes.comp_mut(0).fill(|_, _, _| f32::NAN);
                        assemble_reach_into(
                            &mut axes,
                            &domain,
                            halo,
                            Reach::Axes,
                            dims,
                            periodic,
                            &subset,
                        )
                        .unwrap();
                        let bits = |p: &PaddedVector<3>| -> Vec<u32> {
                            let f = field.eval(p, &scheme, origin);
                            f.as_slice().iter().map(|v| v.to_bits()).collect()
                        };
                        let row = format!("{field:?} {order:?} {periodic:?} {domain:?}");
                        if field.reads_axes_only() {
                            assert_eq!(bits(&cube), bits(&axes), "{row}");
                        } else {
                            assert_ne!(bits(&cube), bits(&axes), "{row}");
                        }
                    }
                }
            }
        }
    }
}
