//! Exact maxima of every parameter-free derived field over each octant
//! (4³ eighth) of every atom, the eight largest values of each atom, the
//! scan domains they leave a threshold query, and the floor they set a
//! top-k (DESIGN.md §9).
//!
//! When the archive is loaded, every node derives each field of
//! [`DerivedField::all`] over its primary chunks of every (raw field,
//! time-step) with the same worker a query scan runs, and keeps the
//! largest value of each octant and the eight largest rankable values
//! (neither NaN nor +∞) of each atom. A threshold scan then reads and
//! derives only the octants whose maximum passes [`at_or_above`]. The skip is
//! exact, not a bound: the stored maximum is one of the very f32s the
//! scan compares (the derived value at a point does not depend on the
//! domain it was evaluated over), the comparison is monotone, and a NaN
//! passes it neither as a value nor as a maximum. An octant whose maximum
//! could not be computed holds +∞ and is always scanned. A top-k scans as
//! a threshold at [`topk_floor`]: each atom wholly inside its box holds a
//! point of exactly each of its eight values, and each octant wholly
//! inside a point of exactly its maximum.

use tdb_field::at_or_above;
use tdb_kernels::DerivedField;
use tdb_storage::device::IoSession;
use tdb_storage::StorageResult;
use tdb_zorder::{AtomCoord, Box3, ATOM_WIDTH};

use crate::mediator::Cluster;
use crate::node::{run_workers, NodeRuntime, ScanScratch};
use crate::topology::Topology;

/// Points per axis of an octant, the unit a maximum covers.
const OCTANT_WIDTH: u32 = ATOM_WIDTH as u32 / 2;

/// The per-octant maxima and per-atom witnesses of one archive: 64 B per
/// atom per (raw field, time-step, derived field). Built once, never
/// changed: placement does not change an atom's values, so it survives
/// join and leave.
pub(crate) struct AtomMaxima {
    /// Atoms per axis of the grid.
    atoms: [usize; 3],
    tables: Vec<KeyMaxima>,
}

/// The tables of one (raw field, time-step), two per field of
/// [`DerivedField::all`], each eight values per atom, atoms x fastest:
/// the octant maxima in [`octant_box`] order, and the witnesses — the
/// atom's eight largest rankable values in descending order, NaN-padded
/// when it holds fewer (all NaN when its block could not be read).
struct KeyMaxima {
    raw_field: String,
    timestep: u32,
    octants: Vec<Box<[f32]>>,
    witnesses: Vec<Box<[f32]>>,
}

/// The tables of one (raw field, derived field, time-step).
#[derive(Clone, Copy)]
pub(crate) struct FieldMaxima<'a> {
    atoms: [usize; 3],
    octants: &'a [f32],
    witnesses: &'a [f32],
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
            octants: key.octants.get(f)?,
            witnesses: key.witnesses.get(f)?,
        })
    }
}

impl FieldMaxima<'_> {
    /// The atom's eight octant maxima in [`octant_box`] order (+∞, always
    /// scanned, for an atom off the table).
    pub(crate) fn octants(&self, atom: AtomCoord) -> [f32; 8] {
        self.row(self.octants, atom, f32::INFINITY)
    }

    /// The atom's eight largest rankable values in descending order,
    /// NaN-padded (all NaN, no witness, for an atom off the table).
    pub(crate) fn witnesses(&self, atom: AtomCoord) -> [f32; 8] {
        self.row(self.witnesses, atom, f32::NAN)
    }

    fn row(&self, table: &[f32], atom: AtomCoord, off: f32) -> [f32; 8] {
        let i = 8 * lattice_index(self.atoms, atom);
        match table.get(i..i + 8) {
            Some(v) => std::array::from_fn(|o| v.get(o).copied().unwrap_or(off)),
            None => [off; 8],
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

/// The floor of a top-`k` over `query_box`: the k-th largest, under
/// `total_cmp`, of its *witnesses* — the stored values of each atom
/// wholly inside the box and the stored maxima of each octant wholly
/// inside an atom the box cuts. Each witness is a distinct point of the
/// box holding exactly that value, so the k-th largest value in the box
/// is at or above the floor and a threshold scan at the floor returns
/// every point of the answer. NaN and +∞ (which may mean "could not be
/// computed") are never witnesses. `None` with fewer than k.
pub(crate) fn topk_floor(maxima: FieldMaxima<'_>, query_box: &Box3, k: usize) -> Option<f64> {
    let mut witnesses: Vec<f32> = query_box
        .atoms()
        .flat_map(|atom| {
            if query_box.contains_box(&atom.grid_box()) {
                return maxima.witnesses(atom);
            }
            let mut octants = maxima.octants(atom);
            for (o, max) in octants.iter_mut().enumerate() {
                if !query_box.contains_box(&octant_box(atom, o)) {
                    *max = f32::NAN;
                }
            }
            octants
        })
        .filter(|v| !v.is_nan() && *v != f32::INFINITY)
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
    /// runs, block by block, and each octant keeps its maximum and each
    /// atom its witnesses. A block is an aligned cube of [`BUILD_EDGE`]
    /// points (or a chunk, when chunks are larger), read and assembled
    /// once for all eight fields, whose shared partial rows are derived
    /// once, by the node that stores its first atom. A block that fails to
    /// read leaves +∞ on its octants and no witnesses. The buffer pools are
    /// emptied after each (raw field, time-step), so they hold one at a
    /// time and none at the end.
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
        let table = |fill: f32| {
            let table = vec![fill; 8 * atoms.iter().product::<usize>()];
            vec![table.into_boxed_slice(); derived.len()]
        };
        // a block's values (per field, eight per atom of the block) into
        // the archive's tables
        let place = |tables: &mut [Box<[f32]>], block: &Box3, values: &[f32]| {
            let per_field = (values.len() / derived.len()).max(1);
            for (table, values) in tables.iter_mut().zip(values.chunks(per_field)) {
                for (atom, eight) in block.atoms().zip(values.chunks(8)) {
                    let i = 8 * lattice_index(atoms, atom);
                    if let Some(slots) = table.get_mut(i..i + eight.len()) {
                        slots.copy_from_slice(eight);
                    }
                }
            }
        };
        // one pool of `procs` workers for every block: the pass leaves no
        // more threads' allocator arenas behind than one node's scan does
        let procs = self.env.config.procs_per_node;
        let mut tables = Vec::with_capacity(self.timesteps.len() * self.fields.len());
        for &timestep in &self.timesteps {
            for (field, _) in &self.fields {
                let per_block = run_workers(procs, blocks.clone(), |scratch, (node, block)| {
                    block_maxima(node, &topo, field, timestep, block, scratch)
                });
                let (mut octants, mut witnesses) = (table(f32::INFINITY), table(f32::NAN));
                for ((_, block), values) in blocks.iter().zip(per_block) {
                    let Ok((block_octants, block_witnesses)) = values else {
                        continue;
                    };
                    place(&mut octants, block, &block_octants);
                    place(&mut witnesses, block, &block_witnesses);
                }
                tables.push(KeyMaxima {
                    raw_field: field.clone(),
                    timestep,
                    octants,
                    witnesses,
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

/// `v`'s place in `total_cmp`'s order, as an `i32` that orders the same
/// (its own inverse: [`from_order_key`] undoes it).
#[inline(always)]
const fn order_key(v: f32) -> i32 {
    let bits = v.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// The f32 whose [`order_key`] is `key`.
const fn from_order_key(key: i32) -> f32 {
    f32::from_bits((key ^ (((key >> 31) as u32) >> 1) as i32) as u32)
}

/// The key of an empty witness slot: just below −∞ (a NaN's, which no
/// rankable value reaches).
const NO_WITNESS: i32 = order_key(f32::NEG_INFINITY) - 1;

/// Puts the values of `seg` among an atom's eight largest rankable values
/// so far, held as [`order_key`]s in descending order with [`NO_WITNESS`]
/// in empty slots; `seg_max` is their [`max_dropping_nan`], at or above
/// each under `total_cmp`, so most segments stop at one compare against
/// the eighth. NaN and +∞ never enter.
#[inline(always)]
fn insert_witnesses(top: &mut [i32; 8], seg: &[f32], seg_max: f32) {
    if order_key(seg_max) <= top[7] {
        return;
    }
    for key in seg.iter().map(|&v| order_key(v)) {
        if key > top[7] && key < order_key(f32::INFINITY) {
            let mut carry = key;
            for slot in top.iter_mut() {
                (*slot, carry) = ((*slot).max(carry), (*slot).min(carry));
            }
        }
    }
}

/// One atom-aligned block's tables: per field of [`DerivedField::all`],
/// eight octant maxima and eight witnesses per atom of the block, atoms in
/// [`Box3::atoms`] order.
fn block_maxima(
    node: &NodeRuntime,
    topo: &Topology,
    field: &str,
    timestep: u32,
    block: Box3,
    scratch: &mut ScanScratch,
) -> StorageResult<(Vec<f32>, Vec<f32>)> {
    let derived = DerivedField::all();
    let [cx, cy, cz] = block.atom_box().extent().map(|e| e as usize);
    let n = 8 * cx * cy * cz;
    let mut maxima = vec![f32::NAN; derived.len() * n];
    let mut witnesses = vec![NO_WITNESS; derived.len() * n];
    let half = OCTANT_WIDTH as usize;
    node.derive_domains(
        &topo.layout,
        &topo.nodes,
        field,
        timestep,
        &[block],
        &derived,
        scratch,
        &mut IoSession::new(),
        |_, f, y, z, row| {
            let atom_row = cx * (y / ATOM_WIDTH + cy * (z / ATOM_WIDTH));
            let octant_row = 2 * (y % ATOM_WIDTH / half) + 4 * (z % ATOM_WIDTH / half);
            for (sx, seg) in row.chunks(half).enumerate() {
                let atom = f * n + 8 * (atom_row + sx / 2);
                let seg_max = seg.iter().fold(f32::NAN, |m, &v| max_dropping_nan(m, v));
                if let Some(m) = maxima.get_mut(atom + sx % 2 + octant_row) {
                    *m = max_dropping_nan(*m, seg_max);
                }
                let top = witnesses.get_mut(atom..atom + 8);
                if let Some(top) = top.and_then(|t| <&mut [i32; 8]>::try_from(t).ok()) {
                    insert_witnesses(top, seg, seg_max);
                }
            }
        },
    )?;
    let witnesses = (witnesses.into_iter())
        .map(|key| match key {
            NO_WITNESS => f32::NAN,
            key => from_order_key(key),
        })
        .collect();
    Ok((maxima, witnesses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::mediator::{ClusterBuilder, ThresholdRequest, ThresholdResponse};
    use crate::node::QueryMode;
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

    /// Component `c` of a 32³ archive seeded with 7 at `(x, y, z)`: values
    /// in [−1, 1) from a hash of the point, except in atom (2, 1, 1), where
    /// all but three points are NaN.
    fn seeded(c: usize, [x, y, z]: [u32; 3]) -> f32 {
        if [x / 8, y / 8, z / 8] == [2, 1, 1]
            && !matches!([x % 8, y % 8, z % 8], [1, 2, 3] | [6, 0, 5] | [4, 4, 7])
        {
            return f32::NAN;
        }
        let mut h = 7 ^ ((c as u64) << 48) ^ (u64::from(x) << 32) ^ (u64::from(y) << 16);
        h ^= u64::from(z);
        // splitmix64's finaliser
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    /// The hostile archive on two nodes in 16³ chunks, its directory, and
    /// the dense evaluation of a field over the same values.
    fn hostile_archive(tag: &str) -> (Cluster, PathBuf, impl Fn(DerivedField) -> ScalarField) {
        archive(&format!("hostile_{tag}"), hostile)
    }

    /// A 32³ archive of `values` (component, point) on two nodes in 16³
    /// chunks, its directory, and the dense evaluation of a field over the
    /// same values.
    fn archive(
        tag: &str,
        values: fn(usize, [u32; 3]) -> f32,
    ) -> (Cluster, PathBuf, impl Fn(DerivedField) -> ScalarField) {
        let dir = std::env::temp_dir().join(format!("tdb_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ClusterConfig {
            num_nodes: 2,
            chunk_atoms: 2,
            ..ClusterConfig::default()
        };
        let grid = Grid3::periodic_cube(32, std::f64::consts::TAU);
        let mut builder =
            ClusterBuilder::new(&dir, "archive", grid.clone(), &[("u", 3)], config.clone())
                .unwrap();
        builder
            .ingest_timestep(0, "u", 3, |atom| {
                let points: Vec<_> = atom.grid_points().collect();
                (0..3)
                    .flat_map(|c| points.iter().map(move |&(x, y, z)| values(c, [x, y, z])))
                    .collect()
            })
            .unwrap();
        let cluster = builder.finish().unwrap();

        let scheme = DiffScheme::new(&grid, config.fd_order);
        let comps = std::array::from_fn(|c| {
            ScalarField::from_fn(32, 32, 32, |x, y, z| {
                values(c, [x as u32, y as u32, z as u32])
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
    fn nodes_sum(trace: &QueryTrace, key: &str) -> u64 {
        let io = trace.span("phase.io").unwrap();
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
            let (past, at_tie) = (&past.trace, &at_tie.trace);
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
    /// octants; every floored answer prunes, and none is scanned again. A
    /// k of the whole box is past the witnesses: it is the scan at −∞, and
    /// answers the whole ranking.
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
        let whole = Box3::cube(32).num_points() as usize;
        assert_eq!(floor(whole), None, "past the witnesses");

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
                let pruned = nodes_sum(&got.trace, "atoms_pruned");
                assert!(pruned > 0, "{name}, k = {k}: the floor prunes");
            }
            let got = cluster.get_topk(&whole_grid(derived, 0.0), whole).unwrap();
            assert_eq!(
                rank(&got.points),
                rank(&ranked),
                "{name}: the whole ranking"
            );
            let nan_atom = |p: &ThresholdPoint| {
                let (x, y, z) = p.coords();
                AtomCoord::containing(x, y, z) == AtomCoord::new(0, 0, 0)
            };
            assert!(!got.points.iter().any(nan_atom), "{name}: the all-NaN atom");
            if derived == DerivedField::Norm {
                let top: Vec<f32> = got.points.iter().take(3).map(|p| p.value).collect();
                assert_eq!(top[..2], [f32::INFINITY; 2], "both +∞ points first");
                assert!(top[2] < f32::INFINITY);
            }
        }
        assert_eq!(tdb_obs::m::SCAN_TOPK_RESCANS.get(), rescans);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The dense values of `field` over `b`.
    fn dense_in(field: &ScalarField, b: &Box3) -> Vec<f32> {
        (b.points())
            .map(|(x, y, z)| field.get(x as usize, y as usize, z as usize))
            .collect()
    }

    /// Neither NaN nor +∞: a value that can witness a floor.
    fn rankable(v: &f32) -> bool {
        !v.is_nan() && *v != f32::INFINITY
    }

    /// Every atom's stored witnesses are, bit for bit, its eight largest
    /// dense values under `total_cmp` with NaN and +∞ dropped, in
    /// descending order and NaN-padded: none in the all-NaN atom, three in
    /// the seeded archive's sparse atom.
    #[test]
    fn stored_witnesses_are_each_atoms_eight_largest_rankable_values() {
        for (tag, values) in [
            ("hostile_witnesses", hostile as fn(_, _) -> _),
            ("seeded_witnesses", seeded),
        ] {
            let (cluster, dir, dense_of) = archive(tag, values);
            let maxima = cluster.env.maxima.get().unwrap();
            for derived in DerivedField::all() {
                let name = derived.name();
                let dense = dense_of(derived);
                let maxima = maxima.of("u", derived, 0).unwrap();
                for atom in Box3::cube(32).atoms() {
                    let mut want: Vec<f32> = dense_in(&dense, &atom.grid_box());
                    want.retain(rankable);
                    want.sort_by(|a, b| b.total_cmp(a));
                    want.resize(8, f32::NAN);
                    let got = maxima.witnesses(atom);
                    assert_eq!(
                        got.map(f32::to_bits)[..],
                        want[..8].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{tag}: {name} in {atom:?}"
                    );
                }
            }
            let norm = maxima.of("u", DerivedField::Norm, 0).unwrap();
            let count = |atom| norm.witnesses(atom).iter().filter(|v| !v.is_nan()).count();
            if tag.starts_with("hostile") {
                for derived in DerivedField::all() {
                    let maxima = maxima.of("u", derived, 0).unwrap();
                    let none = maxima.witnesses(AtomCoord::new(0, 0, 0));
                    assert!(
                        none.iter().all(|v| v.is_nan()),
                        "{}: the all-NaN atom",
                        derived.name()
                    );
                }
            } else {
                assert_eq!(
                    count(AtomCoord::new(2, 1, 1)),
                    3,
                    "the sparse atom is NaN-padded"
                );
            }
            drop(cluster);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The floor a top-k scans at is sound and at least as tight as the
    /// octant maxima alone would set: over boxes that are the whole grid,
    /// atom-aligned, atom-cutting, one octant and one point, the box holds
    /// at least k rankable points at or above it, and it is set, at or
    /// above the octant-only floor, wherever that one is — and above it
    /// somewhere.
    #[test]
    fn the_topk_floor_is_sound_and_at_or_above_the_octant_floor() {
        let boxes = [
            Box3::cube(32),
            Box3::new([8, 0, 8], [23, 15, 31]),
            Box3::new([3, 5, 2], [28, 19, 30]),
            Box3::new([12, 8, 4], [15, 11, 7]),
            Box3::new([5, 6, 7], [5, 6, 7]),
        ];
        let mut tighter = 0;
        for (tag, values) in [
            ("hostile_floor", hostile as fn(_, _) -> _),
            ("seeded_floor", seeded),
        ] {
            let (cluster, dir, dense_of) = archive(tag, values);
            let maxima = cluster.env.maxima.get().unwrap();
            for derived in DerivedField::all() {
                let name = derived.name();
                let dense = dense_of(derived);
                let maxima = maxima.of("u", derived, 0).unwrap();
                for b in &boxes {
                    let mut octant_witnesses: Vec<f32> = (b.atoms())
                        .flat_map(|atom| {
                            let inside = (0..8).map(move |o| b.contains_box(&octant_box(atom, o)));
                            maxima.octants(atom).into_iter().zip(inside)
                        })
                        .filter(|&(_, inside)| inside)
                        .map(|(max, _)| max)
                        .filter(rankable)
                        .collect();
                    octant_witnesses.sort_by(|a, b| b.total_cmp(a));
                    let values = dense_in(&dense, b);
                    for k in [1, 2, 8, 64, 1000] {
                        let at = format!("{tag}: {name} over {b:?}, k = {k}");
                        let floor = topk_floor(maxima, b, k);
                        if let Some(floor) = floor {
                            let passing = (values.iter())
                                .filter(|&&v| !v.is_nan() && at_or_above(v, floor))
                                .count();
                            assert!(passing >= k, "{at}: {passing} points at or above {floor}");
                        }
                        if let Some(&octant_floor) = octant_witnesses.get(k - 1) {
                            let octant_floor = f64::from(octant_floor);
                            let floor = floor.unwrap_or_else(|| panic!("{at}: no floor"));
                            assert!(floor >= octant_floor, "{at}: {floor} < {octant_floor}");
                            tighter += usize::from(floor > octant_floor);
                        }
                    }
                }
            }
            drop(cluster);
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(tighter > 0, "the witnesses tighten some floor");
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
