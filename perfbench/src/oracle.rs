//! Dense answer oracle: each time-step regenerated and every derived field
//! evaluated over the whole periodic grid in one piece — no atoms, chunks,
//! nodes, caches or wire — giving exact-quantile thresholds and the
//! expected answer of every query the workloads can issue.

use tdb_core::{SyntheticDataset, ThresholdPoint, TimeBreakdown};
use tdb_field::{Histogram, PaddedVector, ScalarField};
use tdb_kernels::interp::{interpolate, LagOrder};
use tdb_kernels::{DiffScheme, FdOrder};
use tdb_zorder::{decode3, encode3};

use crate::rng::Rng;
use crate::workload::{
    Key, Query, Region, Tier, FIELDS, PDF_BINS, POINTS_PER_QUERY, POINT_SETS, TOPK,
};

/// What one query returned, reduced to what the oracle checks.
#[derive(Debug, Clone)]
pub enum Answer {
    Threshold {
        points: Vec<ThresholdPoint>,
        cache_hits: u32,
        nodes: u32,
        /// Total of the response's modelled `breakdown`.
        modelled_s: f64,
        degraded: bool,
    },
    Pdf {
        counts: Vec<u64>,
        degraded: bool,
    },
    TopK {
        points: Vec<ThresholdPoint>,
        degraded: bool,
    },
    Points {
        values: Vec<[f32; 3]>,
    },
}

impl Answer {
    pub fn threshold(
        points: Vec<ThresholdPoint>,
        cache_hits: u32,
        nodes: u32,
        breakdown: &TimeBreakdown,
        degraded: bool,
    ) -> Answer {
        Answer::Threshold {
            points,
            cache_hits,
            nodes,
            modelled_s: breakdown.total_s(),
            degraded,
        }
    }
}

/// Order-sensitive digest of `(zindex, value bits)` rows: equal digests
/// mean the same points with the same values in the same (zindex) order.
pub fn digest(rows: impl Iterator<Item = (u64, f32)>) -> (u64, u64) {
    const P: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0u64;
    for (z, v) in rows {
        h = (h ^ z).wrapping_mul(P);
        h = (h ^ u64::from(v.to_bits())).wrapping_mul(P);
        h ^= h >> 29;
        n += 1;
    }
    (n, h)
}

/// Expected answers for one (raw field, derived field, time-step).
struct KeyOracle {
    /// Every point at or above the [`Tier::Prime`] threshold, ascending
    /// zindex. All tiers and the top-k answer are subsets of it.
    top: Vec<(u64, f32)>,
    /// Exact quantile per [`Tier::ALL`] entry.
    thresholds: [f64; 4],
    pdf_width: f64,
    pdf_counts: Vec<u64>,
    /// The `TOPK` largest values, descending.
    topk_values: Vec<f32>,
}

impl KeyOracle {
    fn from_norm(norm: &ScalarField) -> KeyOracle {
        let (nx, ny, _) = norm.dims();
        let values = norm.as_slice();
        let n = values.len();
        let rank = |fraction: f64| ((n as f64 * fraction).round() as usize).clamp(1, n);
        // the `rank(Prime)` largest values, descending
        let mut scratch = values.to_vec();
        let cut = n - rank(Tier::Prime.fraction());
        scratch.select_nth_unstable_by(cut, f32::total_cmp);
        let mut largest = scratch.split_off(cut);
        largest.sort_unstable_by(|a, b| b.total_cmp(a));
        let kth = |k: usize| largest.get(k - 1).copied().map_or(f64::INFINITY, f64::from);
        let thresholds = Tier::ALL.map(|t| kth(rank(t.fraction())));
        let floor = thresholds[Tier::Prime.index()];
        let mut top: Vec<(u64, f32)> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| f64::from(v) >= floor)
            .map(|(i, &v)| {
                let (x, y, z) = (i % nx, i / nx % ny, i / (nx * ny));
                (encode3(x as u32, y as u32, z as u32), v)
            })
            .collect();
        top.sort_unstable_by_key(|&(z, _)| z);
        let max = largest.first().copied().map_or(0.0, f64::from);
        let pdf_width = if max > 0.0 {
            max / f64::from(PDF_BINS)
        } else {
            1.0
        };
        let mut hist = Histogram::new(0.0, pdf_width, PDF_BINS as usize);
        for &v in values {
            hist.push(f64::from(v));
        }
        largest.truncate(TOPK as usize);
        KeyOracle {
            top,
            thresholds,
            pdf_width,
            pdf_counts: hist.counts().to_vec(),
            topk_values: largest,
        }
    }

    fn value_at(&self, zindex: u64) -> Option<f32> {
        let i = self.top.binary_search_by_key(&zindex, |&(z, _)| z).ok()?;
        self.top.get(i).map(|&(_, v)| v)
    }
}

pub struct Oracle {
    n: u32,
    keys: Vec<KeyOracle>,
    /// Position sets `GetPoints` queries draw from (grid units).
    point_sets: Vec<Vec<[f64; 3]>>,
    /// Expected interpolation results per `(timestep, field, set)`; empty
    /// unless built `with_points`.
    points_expected: Vec<Vec<[f32; 3]>>,
}

impl Oracle {
    /// Evaluates every key of `keys` (time-step major, as
    /// [`crate::workload::keys`] lists them) over the regenerated archive.
    pub fn build(
        dataset: &SyntheticDataset,
        fd_order: FdOrder,
        keys: &[Key],
        with_points: bool,
        seed: u64,
    ) -> Oracle {
        let (nx, ny, nz) = dataset.grid.dims();
        let scheme = DiffScheme::new(&dataset.grid, fd_order);
        let mut rng = Rng::for_lane(seed, 0x706f_696e_7473);
        let point_sets: Vec<Vec<[f64; 3]>> = (0..POINT_SETS)
            .map(|_| {
                (0..POINTS_PER_QUERY)
                    .map(|_| [nx, ny, nz].map(|n| rng.unit() * n as f64))
                    .collect()
            })
            .collect();
        let mut oracles = Vec::with_capacity(keys.len());
        let mut points_expected = Vec::new();
        for t in 0..dataset.timesteps {
            let step = dataset.generate(t);
            for (f, name) in FIELDS.iter().enumerate() {
                let Some(data) = step
                    .fields
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, d)| d.as_vector3())
                else {
                    continue;
                };
                // the halo a node would assemble for these kernels
                let halo = keys
                    .iter()
                    .map(|k| k.derived.halo(&scheme))
                    .fold(0, usize::max);
                let mut padded = PaddedVector::zeros(nx, ny, nz, halo);
                padded.fill_periodic_from(&data, [0, 0, 0]);
                for key in keys.iter().filter(|k| k.timestep == t && k.field == f) {
                    let norm = key.derived.eval(&padded, &scheme, [0, 0, 0]);
                    oracles.push(KeyOracle::from_norm(&norm));
                }
                if with_points {
                    let mut padded = PaddedVector::zeros(nx, ny, nz, LagOrder::Lag6.halo());
                    padded.fill_periodic_from(&data, [0, 0, 0]);
                    for set in &point_sets {
                        points_expected.push(
                            set.iter()
                                .map(|&p| interpolate::<3>(&padded, LagOrder::Lag6, p))
                                .collect(),
                        );
                    }
                }
            }
        }
        Oracle {
            n: nx as u32,
            keys: oracles,
            point_sets,
            points_expected,
        }
    }

    pub fn grid(&self) -> u32 {
        self.n
    }

    pub fn threshold(&self, key: usize, tier: Tier) -> f64 {
        self.keys
            .get(key)
            .and_then(|k| k.thresholds.get(tier.index()).copied())
            .unwrap_or(f64::INFINITY)
    }

    pub fn pdf_width(&self, key: usize) -> f64 {
        self.keys.get(key).map_or(1.0, |k| k.pdf_width)
    }

    pub fn positions(&self, set: usize) -> &[[f64; 3]] {
        self.point_sets.get(set).map_or(&[], Vec::as_slice)
    }

    /// The exact answer to a threshold query, ascending zindex.
    pub fn expected_points(&self, key: usize, tier: Tier, region: Region) -> Vec<(u64, f32)> {
        let Some(k) = self.keys.get(key) else {
            return Vec::new();
        };
        let thr = self.threshold(key, tier);
        let b = region.to_box(self.n);
        k.top
            .iter()
            .copied()
            .filter(|&(zi, v)| {
                let (x, y, z) = decode3(zi);
                f64::from(v) >= thr && b.contains_point(x, y, z)
            })
            .collect()
    }

    /// `(count, digest)` of the exact answer to a threshold query.
    pub fn expected_threshold(&self, key: usize, tier: Tier, region: Region) -> (u64, u64) {
        digest(self.expected_points(key, tier, region).into_iter())
    }

    /// Checks one answer; `Err` names the first discrepancy.
    pub fn check(&self, query: &Query, answer: &Answer) -> Result<(), String> {
        match (query, answer) {
            (
                Query::Threshold { key, tier, region },
                Answer::Threshold {
                    points, degraded, ..
                },
            ) => {
                if *degraded {
                    return Err("degraded threshold answer".into());
                }
                let want = self.expected_threshold(*key, *tier, *region);
                let got = digest(points.iter().map(|p| (p.zindex, p.value)));
                if got != want {
                    return Err(format!(
                        "threshold key {key} {tier:?} {region:?}: got {} points (digest {:#x}), oracle has {} ({:#x})",
                        got.0, got.1, want.0, want.1
                    ));
                }
                Ok(())
            }
            (Query::Pdf { key }, Answer::Pdf { counts, degraded }) => {
                if *degraded {
                    return Err("degraded pdf answer".into());
                }
                let want = self.keys.get(*key).map(|k| &k.pdf_counts);
                if want != Some(counts) {
                    return Err(format!("pdf key {key}: counts differ from the oracle's"));
                }
                Ok(())
            }
            (Query::TopK { key }, Answer::TopK { points, degraded }) => {
                if *degraded {
                    return Err("degraded top-k answer".into());
                }
                let Some(k) = self.keys.get(*key) else {
                    return Err(format!("top-k of unknown key {key}"));
                };
                // equal values may come back in either order, so compare
                // the value sequence and look each location up separately
                let values: Vec<u32> = points.iter().map(|p| p.value.to_bits()).collect();
                let want: Vec<u32> = k.topk_values.iter().map(|v| v.to_bits()).collect();
                if values != want {
                    return Err(format!(
                        "top-k key {key}: {} values differ from the oracle's {}",
                        values.len(),
                        want.len()
                    ));
                }
                let mut seen: Vec<u64> = points.iter().map(|p| p.zindex).collect();
                seen.sort_unstable();
                seen.dedup();
                if seen.len() != points.len() {
                    return Err(format!("top-k key {key}: a location is repeated"));
                }
                for p in points {
                    if k.value_at(p.zindex).map(f32::to_bits) != Some(p.value.to_bits()) {
                        return Err(format!(
                            "top-k key {key}: value at zindex {} is not the oracle's",
                            p.zindex
                        ));
                    }
                }
                Ok(())
            }
            (
                Query::Points {
                    field,
                    timestep,
                    set,
                },
                Answer::Points { values },
            ) => {
                let slot = (*timestep as usize * FIELDS.len() + field) * POINT_SETS + set;
                let Some(want) = self.points_expected.get(slot) else {
                    return Err("oracle was built without point queries".into());
                };
                let same = values.len() == want.len()
                    && values
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.map(f32::to_bits) == b.map(f32::to_bits));
                if !same {
                    return Err(format!(
                        "points field {field} step {timestep} set {set}: values differ from the oracle's"
                    ));
                }
                Ok(())
            }
            (q, a) => Err(format!("answer kind does not match {q:?}: {a:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::keys;

    fn small() -> Oracle {
        let ds = SyntheticDataset::mhd(16, 1, 5);
        Oracle::build(&ds, FdOrder::O4, &keys(1), true, 5)
    }

    #[test]
    fn thresholds_are_exact_quantiles() {
        let o = small();
        let n = 16u64 * 16 * 16;
        for key in 0..8 {
            for tier in Tier::ALL {
                let want = ((n as f64 * tier.fraction()).round() as u64).clamp(1, n);
                let (count, _) = o.expected_threshold(key, tier, Region::Whole);
                // ties at the quantile may add points, never remove them
                assert!(count >= want, "key {key} {tier:?}: {count} < {want}");
                assert!(count <= want + 2, "key {key} {tier:?}: {count} ≫ {want}");
            }
            let by_octant: u64 = (0..8)
                .map(|oct| {
                    o.expected_threshold(key, Tier::Prime, Region::Octant(oct))
                        .0
                })
                .sum();
            assert_eq!(
                by_octant,
                o.expected_threshold(key, Tier::Prime, Region::Whole).0
            );
        }
    }

    #[test]
    fn check_accepts_the_oracles_own_answer_and_rejects_a_changed_one() {
        let o = small();
        let k = &o.keys[3];
        let thr = o.threshold(3, Tier::Low);
        let mut points: Vec<ThresholdPoint> = k
            .top
            .iter()
            .filter(|&&(_, v)| f64::from(v) >= thr)
            .map(|&(zindex, value)| ThresholdPoint { zindex, value })
            .collect();
        let q = Query::Threshold {
            key: 3,
            tier: Tier::Low,
            region: Region::Whole,
        };
        let answer = |points: Vec<ThresholdPoint>, degraded| Answer::Threshold {
            points,
            cache_hits: 0,
            nodes: 4,
            modelled_s: 0.0,
            degraded,
        };
        assert!(o.check(&q, &answer(points.clone(), false)).is_ok());
        assert!(o.check(&q, &answer(points.clone(), true)).is_err());
        points.pop();
        assert!(o.check(&q, &answer(points, false)).is_err());
        assert!(o
            .check(&Query::Pdf { key: 3 }, &answer(Vec::new(), false))
            .is_err());

        let pdf = Answer::Pdf {
            counts: k.pdf_counts.clone(),
            degraded: false,
        };
        assert!(o.check(&Query::Pdf { key: 3 }, &pdf).is_ok());
        assert_eq!(k.pdf_counts.iter().sum::<u64>(), 16 * 16 * 16);
        assert_eq!(k.pdf_counts.len(), PDF_BINS as usize + 1);
    }

    #[test]
    fn topk_check_is_order_free_on_ties_but_strict_on_values() {
        let o = small();
        let k = &o.keys[0];
        let mut by_value = k.top.clone();
        by_value.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
        by_value.truncate(TOPK as usize);
        let mut points: Vec<ThresholdPoint> = by_value
            .iter()
            .map(|&(zindex, value)| ThresholdPoint { zindex, value })
            .collect();
        let q = Query::TopK { key: 0 };
        let ans = |points| Answer::TopK {
            points,
            degraded: false,
        };
        assert!(o.check(&q, &ans(points.clone())).is_ok());
        points[7].zindex ^= 1;
        assert!(o.check(&q, &ans(points.clone())).is_err());
        points[7].zindex ^= 1;
        points.swap(0, 1);
        assert!(o.check(&q, &ans(points)).is_err());
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let a = digest([(1, 1.0f32), (2, 2.0)].into_iter());
        assert_eq!(a.0, 2);
        assert_ne!(a, digest([(2, 2.0f32), (1, 1.0)].into_iter()));
        assert_ne!(a, digest([(1, 1.0f32), (2, -2.0)].into_iter()));
        assert_ne!(
            digest([(0, 0.0f32)].into_iter()),
            digest([(0, -0.0f32)].into_iter())
        );
    }
}
