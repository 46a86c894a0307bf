//! Exact maxima of every parameter-free derived field over each octant
//! (4³ eighth) of every atom, the scan domains they leave a threshold
//! query, and the floor they set a top-k (DESIGN.md §9).
//!
//! When the archive is loaded, every node derives each field of
//! [`DerivedField::all`] over its primary chunks of every (raw field,
//! time-step) with the same worker a query scan runs, and keeps the
//! largest value of each octant. A threshold scan then reads and derives
//! only the octants whose maximum passes [`at_or_above`]. The skip is
//! exact, not a bound: the stored maximum is one of the very f32s the
//! scan compares (the derived value at a point does not depend on the
//! domain it was evaluated over), the comparison is monotone, and a NaN
//! passes it neither as a value nor as a maximum. An octant whose maximum
//! could not be computed holds +∞ and is always scanned. A top-k scans as
//! a threshold at [`topk_floor`]: each octant wholly inside its box holds
//! a point of exactly its stored maximum.

use tdb_field::at_or_above;
use tdb_kernels::DerivedField;
use tdb_storage::device::IoSession;
use tdb_storage::StorageResult;
use tdb_zorder::{AtomCoord, Box3, ATOM_WIDTH};

use crate::mediator::Cluster;
use crate::node::{run_workers, NodeRuntime, QueryMode, ScanScratch};
use crate::topology::Topology;

/// Points per axis of an octant, the unit a maximum covers.
const OCTANT_WIDTH: u32 = ATOM_WIDTH as u32 / 2;

/// The per-octant maxima of one archive: 32 B per atom per (raw field,
/// time-step, derived field). Built once, never changed: placement does
/// not change an atom's values, so it survives join and leave.
pub(crate) struct AtomMaxima {
    /// Atoms per axis of the grid.
    atoms: [usize; 3],
    tables: Vec<KeyMaxima>,
}

/// The maxima of one (raw field, time-step): one table per field of
/// [`DerivedField::all`], eight values per atom (atoms x fastest, then
/// octants in [`octant_box`] order).
struct KeyMaxima {
    raw_field: String,
    timestep: u32,
    fields: Vec<Box<[f32]>>,
}

/// The maxima of one (raw field, derived field, time-step).
#[derive(Clone, Copy)]
pub(crate) struct FieldMaxima<'a> {
    atoms: [usize; 3],
    values: &'a [f32],
}

impl AtomMaxima {
    /// The maxima a scan of `derived` over `raw_field` at `timestep` can
    /// prune by; `None` for a field outside [`DerivedField::all`].
    pub(crate) fn of(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
    ) -> Option<FieldMaxima<'_>> {
        let f = DerivedField::all().iter().position(|&d| d == derived)?;
        let key =
            (self.tables.iter()).find(|k| k.raw_field == raw_field && k.timestep == timestep)?;
        Some(FieldMaxima {
            atoms: self.atoms,
            values: key.fields.get(f)?,
        })
    }
}

impl FieldMaxima<'_> {
    /// The atom's eight octant maxima in [`octant_box`] order (+∞, always
    /// scanned, for an atom off the table).
    pub(crate) fn octants(&self, atom: AtomCoord) -> [f32; 8] {
        let i = 8 * lattice_index(self.atoms, atom);
        match self.values.get(i..i + 8) {
            Some(v) => std::array::from_fn(|o| v.get(o).copied().unwrap_or(f32::INFINITY)),
            None => [f32::INFINITY; 8],
        }
    }
}

/// An atom's place in a table: lattice order, x fastest.
fn lattice_index([nx, ny, _]: [usize; 3], atom: AtomCoord) -> usize {
    atom.x as usize + nx * (atom.y as usize + ny * atom.z as usize)
}

/// Octant `o` of `atom`, in grid points: the half along x, y, z given by
/// bit 0, 1, 2 of `o`.
fn octant_box(atom: AtomCoord, o: usize) -> Box3 {
    let (x, y, z) = atom.grid_origin();
    let lo = [(x, 0), (y, 1), (z, 2)].map(|(c, axis)| c + OCTANT_WIDTH * ((o >> axis) & 1) as u32);
    Box3::new(lo, lo.map(|l| l + OCTANT_WIDTH - 1))
}

/// `f32::max`, which drops NaN, with the sign of a zero maximum fixed
/// (+0.0 above −0.0): a maximum has the same bits whatever order its
/// points are folded in. NaN only when both are.
#[inline(always)]
pub(crate) fn max_dropping_nan(a: f32, b: f32) -> f32 {
    let m = a.max(b);
    if m == 0.0 && (a.to_bits() == 0 || b.to_bits() == 0) {
        0.0
    } else {
        m
    }
}

/// What a chunk scans for `clips` (each a participant's prune floor and
/// its clip of the chunk) whose hull is `hull`: per atom, the hull of the
/// parts of its octants that some clip touches and whose maximum reaches
/// that clip's floor (a clip without one keeps all it touches). The hull
/// when there are no `maxima` or every touched octant survives; otherwise
/// each atom's survivors, or the hull of them all, whichever assembles
/// fewer padded points — empty when nothing survives. Each box pads by its
/// own `halo`, which at a wall can exceed an octant's width: there one
/// octant alone reaches its atom's face neighbours on both sides.
pub(crate) fn surviving_domains(
    maxima: Option<FieldMaxima<'_>>,
    hull: &Box3,
    clips: &[(Option<f64>, Box3)],
    halo: impl Fn(&Box3) -> usize,
) -> Vec<Box3> {
    let Some(maxima) = maxima else {
        return vec![*hull];
    };
    let mut survivors: Vec<Box3> = Vec::new();
    let (mut touched, mut kept) = (0usize, 0usize);
    for atom in hull.atoms() {
        let mut domain: Option<Box3> = None;
        for (o, max) in maxima.octants(atom).into_iter().enumerate() {
            let obox = octant_box(atom, o);
            let mut touches = false;
            let mut passes = false;
            for (floor, clip) in clips {
                let Some(c) = obox.intersect(clip) else {
                    continue;
                };
                touches = true;
                if floor.is_none_or(|t| at_or_above(max, t)) {
                    passes = true;
                    domain = Some(domain.map_or(c, |d| d.hull(&c)));
                }
            }
            touched += usize::from(touches);
            kept += usize::from(passes);
        }
        survivors.extend(domain);
    }
    if kept == touched {
        return vec![*hull];
    }
    let Some(&first) = survivors.first() else {
        return survivors;
    };
    let padded = |b: &Box3| -> u64 { b.extent().iter().map(|e| e + 2 * halo(b) as u64).product() };
    let survivors_hull = survivors.iter().fold(first, |h, b| h.hull(b));
    let per_atom: u64 = survivors.iter().map(padded).sum();
    if per_atom < padded(&survivors_hull) {
        survivors
    } else {
        vec![survivors_hull]
    }
}

/// The floor of a top-`k` over `query_box`: the k-th largest stored
/// maximum, under `total_cmp`, of the octants wholly inside the box — its
/// *witnesses*, each holding a point of exactly that value — so the k-th
/// largest value in the box is at or above it and a threshold scan at the
/// floor returns every point of the answer. NaN and +∞ (which may mean
/// "could not be computed") are never witnesses. `None` with fewer than k.
pub(crate) fn topk_floor(maxima: FieldMaxima<'_>, query_box: &Box3, k: usize) -> Option<f64> {
    let mut witnesses: Vec<f32> = query_box
        .atoms()
        .flat_map(|atom| {
            let octants = maxima.octants(atom).into_iter().enumerate();
            octants.filter(move |&(o, _)| query_box.contains_box(&octant_box(atom, o)))
        })
        .map(|(_, max)| max)
        .filter(|max| !max.is_nan() && *max != f32::INFINITY)
        .collect();
    let rank = k.checked_sub(1).filter(|&r| r < witnesses.len())?;
    let (_, floor, _) = witnesses.select_nth_unstable_by(rank, |a, b| b.total_cmp(a));
    Some(f64::from(*floor))
}

impl Cluster {
    /// The stored maximum of `derived` over `raw_field` at `timestep` in
    /// `atom`: NaN when every value there is, +∞ when it could not be
    /// computed, `None` for a field outside [`DerivedField::all`].
    pub fn atom_max(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        atom: AtomCoord,
    ) -> Option<f32> {
        let octants = self.octant_maxima(raw_field, derived, timestep, atom)?;
        Some(octants.into_iter().fold(f32::NAN, max_dropping_nan))
    }

    /// The stored maxima of the atom's eight octants, as
    /// [`Cluster::atom_max`]: octant `o` is the atom's 4³ eighth whose half
    /// along x, y and z is bit 0, 1 and 2 of `o`.
    pub fn octant_maxima(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
        atom: AtomCoord,
    ) -> Option<[f32; 8]> {
        let maxima = self.env.maxima.get()?.of(raw_field, derived, timestep)?;
        Some(maxima.octants(atom))
    }

    /// The build pass: every field of [`DerivedField::all`] is derived
    /// over every (raw field, time-step) through the worker a query scan
    /// runs, block by block, and each octant keeps its maximum. A block is
    /// an aligned cube of [`BUILD_EDGE`] points (or a chunk, when chunks
    /// are larger), read and assembled once for all eight fields, whose
    /// shared partial rows are derived once, by the node that stores its
    /// first atom. A block that fails to read leaves +∞ on its octants.
    /// The buffer pools are emptied after each (raw field, time-step), so
    /// they hold one at a time and none at the end.
    pub(crate) fn compute_atom_maxima(&self) -> AtomMaxima {
        let topo = self.topology_snapshot();
        let (nx, ny, nz) = self.env.grid.dims();
        let atoms = [nx, ny, nz].map(|n| n / ATOM_WIDTH);
        let derived = DerivedField::all();
        let edge = (ATOM_WIDTH as u32 * self.env.config.chunk_atoms).max(BUILD_EDGE);
        let grid = Box3::grid(nx as u32, ny as u32, nz as u32);
        let corners = |n: usize| (0..n as u32).step_by(edge as usize);
        let blocks: Vec<(&NodeRuntime, Box3)> = corners(nz)
            .flat_map(|z| corners(ny).flat_map(move |y| corners(nx).map(move |x| [x, y, z])))
            .filter_map(|lo| {
                let block = grid.intersect(&Box3::new(lo, lo.map(|l| l + edge - 1)))?;
                let owner = topo
                    .layout
                    .node_of_atom(AtomCoord::containing(lo[0], lo[1], lo[2]));
                Some((topo.nodes.get(owner)?.as_deref()?, block))
            })
            .collect();
        // one pool of `procs` workers for every block: the pass leaves no
        // more threads' allocator arenas behind than one node's scan does
        let procs = self.env.config.procs_per_node;
        let mut tables = Vec::with_capacity(self.timesteps.len() * self.fields.len());
        for &timestep in &self.timesteps {
            for (field, _) in &self.fields {
                let maxima = run_workers(procs, &blocks, |scratch, &(node, block)| {
                    block_maxima(node, &topo, field, timestep, block, scratch)
                });
                let table = vec![f32::INFINITY; 8 * atoms.iter().product::<usize>()];
                let mut fields = vec![table.into_boxed_slice(); derived.len()];
                for ((_, block), maxima) in blocks.iter().zip(maxima) {
                    let Ok(maxima) = maxima else {
                        continue;
                    };
                    let per_field = (maxima.len() / derived.len()).max(1);
                    for (table, values) in fields.iter_mut().zip(maxima.chunks(per_field)) {
                        for (atom, octants) in block.atoms().zip(values.chunks(8)) {
                            let i = 8 * lattice_index(atoms, atom);
                            if let Some(slots) = table.get_mut(i..i + octants.len()) {
                                slots.copy_from_slice(octants);
                            }
                        }
                    }
                }
                tables.push(KeyMaxima {
                    raw_field: field.clone(),
                    timestep,
                    fields,
                });
                self.clear_buffer_pools();
            }
        }
        AtomMaxima { atoms, tables }
    }
}

/// The smallest block edge of the build pass, in points: rows this long
/// derive at full speed, and the halo is a small share of each read.
const BUILD_EDGE: u32 = 32;

/// One atom-aligned block's maxima: per field of [`DerivedField::all`],
/// eight values per atom of the block, atoms in [`Box3::atoms`] order.
fn block_maxima(
    node: &NodeRuntime,
    topo: &Topology,
    field: &str,
    timestep: u32,
    block: Box3,
    scratch: &mut ScanScratch,
) -> StorageResult<Vec<f32>> {
    let derived = DerivedField::all();
    let [cx, cy, cz] = block.atom_box().extent().map(|e| e as usize);
    let n = 8 * cx * cy * cz;
    let mut maxima = vec![f32::NAN; derived.len() * n];
    let half = OCTANT_WIDTH as usize;
    node.derive_domains(
        &topo.layout,
        &topo.nodes,
        field,
        timestep,
        &[block],
        &derived,
        QueryMode::Full,
        scratch,
        &mut IoSession::new(),
        |_, f, y, z, row| {
            let atom_row = cx * (y / ATOM_WIDTH + cy * (z / ATOM_WIDTH));
            let octant_row = 2 * (y % ATOM_WIDTH / half) + 4 * (z % ATOM_WIDTH / half);
            for (sx, seg) in row.chunks(half).enumerate() {
                let slot = f * n + 8 * (atom_row + sx / 2) + sx % 2 + octant_row;
                if let Some(m) = maxima.get_mut(slot) {
                    *m = seg.iter().fold(*m, |m, &v| max_dropping_nan(m, v));
                }
            }
        },
    )?;
    Ok(maxima)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::mediator::{ClusterBuilder, ThresholdRequest, ThresholdResponse};
    use crate::scan::topk_order;
    use std::path::PathBuf;
    use tdb_cache::ThresholdPoint;
    use tdb_field::{Grid3, PaddedVector, ScalarField, VectorField};
    use tdb_kernels::DiffScheme;
    use tdb_obs::{AttrValue, QueryTrace};
    use tdb_zorder::encode3;

    /// Component `c` of a 32³ archive at grid point `(x, y, z)`: values in
    /// [0, 1) except in three atoms of chunk 0 and a spike of norm 50 in
    /// each of chunks 6 and 7.
    fn hostile(c: usize, [x, y, z]: [u32; 3]) -> f32 {
        let base = ((x * 7 + y * 13 + z * 29 + c as u32 * 31) % 97) as f32 / 97.0;
        match ([x / 8, y / 8, z / 8], [x % 8, y % 8, z % 8]) {
            ([0, 0, 0], _) => f32::NAN,
            ([1, 0, 0], [1, 1, 1]) if c == 0 => f32::INFINITY,
            ([1, 0, 0], [2, 2, 2]) if c == 1 => f32::NEG_INFINITY,
            ([1, 0, 0], [3, 3, 3]) => f32::NAN,
            ([0, 1, 0], _) if c == 2 => -0.0,
            // norm 50 exactly, well inside its atom
            ([3, 3, 3] | [0, 3, 3], [4, 4, 4]) => [30.0, 40.0, 0.0][c],
            _ => base,
        }
    }

    /// The hostile archive on two nodes in 16³ chunks, its directory, and
    /// the dense evaluation of a field over the same values.
    fn hostile_archive(tag: &str) -> (Cluster, PathBuf, impl Fn(DerivedField) -> ScalarField) {
        let dir = std::env::temp_dir().join(format!("tdb_hostile_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ClusterConfig {
            num_nodes: 2,
            chunk_atoms: 2,
            ..ClusterConfig::default()
        };
        let grid = Grid3::periodic_cube(32, std::f64::consts::TAU);
        let mut builder =
            ClusterBuilder::new(&dir, "hostile", grid.clone(), &[("u", 3)], config.clone())
                .unwrap();
        builder
            .ingest_timestep(0, "u", 3, |atom| {
                let points: Vec<_> = atom.grid_points().collect();
                (0..3)
                    .flat_map(|c| points.iter().map(move |&(x, y, z)| hostile(c, [x, y, z])))
                    .collect()
            })
            .unwrap();
        let cluster = builder.finish().unwrap();

        let scheme = DiffScheme::new(&grid, config.fd_order);
        let comps = std::array::from_fn(|c| {
            ScalarField::from_fn(32, 32, 32, |x, y, z| {
                hostile(c, [x as u32, y as u32, z as u32])
            })
        });
        let mut padded = PaddedVector::zeros(32, 32, 32, scheme.halo());
        padded.fill_periodic_from(&VectorField::from_components(comps), [0, 0, 0]);
        let dense = move |derived: DerivedField| derived.eval(&padded, &scheme, [0, 0, 0]);
        (cluster, dir, dense)
    }

    /// An uncached whole-grid request for `derived` at `threshold`.
    fn whole_grid(derived: DerivedField, threshold: f64) -> ThresholdRequest {
        ThresholdRequest {
            raw_field: "u".into(),
            derived,
            timestep: 0,
            query_box: Box3::cube(32),
            threshold,
            use_cache: false,
            mode: QueryMode::Full,
            procs_override: None,
            strict: true,
            node_deadline_s: None,
        }
    }

    /// The sum of `key` over a trace's per-node spans.
    fn nodes_sum(trace: Option<&QueryTrace>, key: &str) -> u64 {
        let io = trace.unwrap().span("phase.io").unwrap();
        (io.children.iter())
            .map(|span| match span.attr(key) {
                Some(AttrValue::U64(n)) => *n,
                other => panic!("{key}: {other:?}"),
            })
            .sum()
    }

    /// NaN, ±∞, −0.0, an all-NaN atom and a maximum equal to the threshold
    /// go through the pruned scan: the answers are the dense evaluation's,
    /// bit for bit, the tie point is in them, and one f64 step above the
    /// spike atom's maximum the atom is pruned and answers nothing.
    #[test]
    fn hostile_stored_values_prune_exactly() {
        let (cluster, dir, dense_of) = hostile_archive("prune");
        let ask = |derived, threshold| -> ThresholdResponse {
            cluster
                .get_threshold(&whole_grid(derived, threshold))
                .unwrap()
        };
        let bits = |r: &ThresholdResponse| {
            let mut got: Vec<(u64, u32)> = r
                .points
                .iter()
                .map(|p| (p.zindex, p.value.to_bits()))
                .collect();
            got.sort_unstable();
            got
        };
        let spike = AtomCoord::new(3, 3, 3);
        let max_of = |derived| cluster.atom_max("u", derived, 0, AtomCoord::new(0, 0, 0));
        assert!(max_of(DerivedField::Norm).unwrap().is_nan(), "all-NaN atom");
        assert!(max_of(DerivedField::CurlNorm).unwrap().is_nan());
        let max_at = |atom| cluster.atom_max("u", DerivedField::Norm, 0, atom).unwrap();
        assert_eq!(max_at(AtomCoord::new(1, 0, 0)), f32::INFINITY);
        assert_eq!(max_at(spike), 50.0);

        for derived in [DerivedField::Norm, DerivedField::CurlNorm] {
            let name = derived.name();
            let dense = dense_of(derived);
            let want = |t: f64| -> Vec<(u64, u32)> {
                let mut want: Vec<(u64, u32)> = (Box3::cube(32).points())
                    .map(|(x, y, z)| (x, y, z, dense.get(x as usize, y as usize, z as usize)))
                    .filter(|&(.., v)| at_or_above(v, t))
                    .map(|(x, y, z, v)| (encode3(x, y, z), v.to_bits()))
                    .collect();
                want.sort_unstable();
                want
            };
            // the stored maximum is the dense one, and the tie threshold
            let t = cluster.atom_max("u", derived, 0, spike).unwrap();
            let dense_max = (spike.grid_points())
                .map(|(x, y, z)| dense.get(x as usize, y as usize, z as usize))
                .fold(f32::NAN, max_dropping_nan);
            assert_eq!(t.to_bits(), dense_max.to_bits(), "{name}");
            let (tie, above) = (f64::from(t), f64::from(t).next_up());
            for threshold in [0.0, tie, above] {
                let got = bits(&ask(derived, threshold));
                assert_eq!(got, want(threshold), "{name} at {threshold}");
            }
            let in_spike = |r: &ThresholdResponse| {
                (r.points.iter())
                    .filter(|p| {
                        let (x, y, z) = p.coords();
                        AtomCoord::containing(x, y, z) == spike
                    })
                    .map(|p| p.value)
                    .collect::<Vec<f32>>()
            };
            let at_tie = ask(derived, tie);
            assert!(in_spike(&at_tie).contains(&t), "{name}: the tie point");
            let past = ask(derived, above);
            assert!(in_spike(&past).is_empty(), "{name}");
            // the spike's chunk has nothing else to read: it is skipped
            let (past, at_tie) = (past.trace.as_ref(), at_tie.trace.as_ref());
            assert!(
                nodes_sum(past, "atoms_scanned") < nodes_sum(at_tie, "atoms_scanned"),
                "{name}"
            );
            assert!(
                nodes_sum(past, "atoms_pruned") > nodes_sum(at_tie, "atoms_pruned"),
                "{name}"
            );
        }
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A top-k over the same values is a threshold scan at its floor, and
    /// answers the dense ranking with NaN dropped, bit for bit: the two +∞
    /// points first, though their octant is no witness, the all-NaN atom
    /// never. The norm's floor at k = 1 and 2 is the tie of the two spikes'
    /// octants; every answer prunes, and none is scanned again.
    #[test]
    fn hostile_stored_values_answer_topk_exactly() {
        let (cluster, dir, dense_of) = hostile_archive("topk");
        let maxima = |derived| {
            let maxima = cluster.env.maxima.get().unwrap();
            maxima.of("u", derived, 0).unwrap()
        };
        let floor = |k| topk_floor(maxima(DerivedField::Norm), &Box3::cube(32), k);
        assert_eq!([1, 2].map(floor), [Some(50.0); 2], "the spikes' tie");
        assert!(floor(3).unwrap() < 50.0);

        let rescans = tdb_obs::m::SCAN_TOPK_RESCANS.get();
        for derived in [DerivedField::Norm, DerivedField::CurlNorm] {
            let name = derived.name();
            let dense = dense_of(derived);
            let mut ranked: Vec<ThresholdPoint> = (Box3::cube(32).points())
                .map(|(x, y, z)| {
                    ThresholdPoint::at(x, y, z, dense.get(x as usize, y as usize, z as usize))
                })
                .filter(|p| !p.value.is_nan())
                .collect();
            ranked.sort_by(topk_order);
            let rank = |points: &[ThresholdPoint]| -> Vec<(u64, u32)> {
                (points.iter())
                    .map(|p| (p.zindex, p.value.to_bits()))
                    .collect()
            };
            for k in [1, 2, 8, 64] {
                let got = cluster.get_topk(&whole_grid(derived, 0.0), k).unwrap();
                assert_eq!(rank(&got.points), rank(&ranked[..k]), "{name}, k = {k}");
                let pruned = nodes_sum(got.trace.as_ref(), "atoms_pruned");
                assert!(pruned > 0, "{name}, k = {k}: the floor prunes");
            }
        }
        assert_eq!(tdb_obs::m::SCAN_TOPK_RESCANS.get(), rescans);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_maximum_drops_nan_and_puts_positive_zero_above_negative() {
        let fold = |values: &[f32]| values.iter().copied().fold(f32::NAN, max_dropping_nan);
        assert!(fold(&[]).is_nan());
        assert!(fold(&[f32::NAN, f32::NAN]).is_nan());
        assert_eq!(fold(&[f32::NAN, -3.0, f32::NAN]), -3.0);
        assert_eq!(fold(&[1.0, f32::INFINITY, f32::NAN]), f32::INFINITY);
        for order in [[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [-1.0, -0.0, 0.0]] {
            assert_eq!(fold(&order).to_bits(), 0, "{order:?}");
        }
        assert_eq!(fold(&[-0.0, -1.0]).to_bits(), (-0.0f32).to_bits());
    }
}
