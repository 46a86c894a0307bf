//! The four workloads: archive shape, cache policy and the seeded query
//! stream of each. The program under test sees only the queries.

use tdb_core::DerivedField;
use tdb_zorder::Box3;

use crate::rng::{Rng, Zipf};

/// Raw fields queried (the MHD archive also stores `pressure`, which is
/// bulk-loaded but never asked for).
pub const FIELDS: [&str; 2] = ["velocity", "magnetic"];
/// Derived quantities queried: one curl-based, three gradient-based.
pub const DERIVED: [DerivedField; 4] = [
    DerivedField::CurlNorm,
    DerivedField::QCriterion,
    DerivedField::GradientNorm,
    DerivedField::StrainRateNorm,
];
pub const PDF_BINS: u32 = 64;
pub const TOPK: u32 = 100;
/// Positions per `GetPoints` query. With the other sizes here it keeps
/// every request and response line under the 8 KiB `BufWriter` capacity of
/// `Client` and server: a longer line leaves in two writes, and the second
/// waits out a 40 ms delayed ACK whenever the kernel's ping-pong
/// heuristic says so — too erratic to gate on (see `README.md`).
pub const POINTS_PER_QUERY: usize = 64;
/// `GetPoints` queries draw one of this many seeded position sets.
pub const POINT_SETS: usize = 32;
pub const LAG_WIDTH: u32 = 6;
pub const ZIPF_S: f64 = 0.99;

/// One (raw field, derived field, time-step): the unit the semantic cache
/// keeps one entry for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub field: usize,
    pub derived: DerivedField,
    pub timestep: u32,
}

/// Name of raw field `index` of [`FIELDS`]. The generator only produces
/// indices inside the table, so one outside it is a bug in this program.
pub fn field_name(index: usize) -> &'static str {
    FIELDS[index]
}

impl Key {
    pub fn field_name(&self) -> &'static str {
        field_name(self.field)
    }
}

/// Every key of an archive with `timesteps` steps, time-step major.
pub fn keys(timesteps: u32) -> Vec<Key> {
    let mut out = Vec::new();
    for timestep in 0..timesteps {
        for field in 0..FIELDS.len() {
            for derived in DERIVED {
                out.push(Key {
                    field,
                    derived,
                    timestep,
                });
            }
        }
    }
    out
}

/// Threshold selectivity as a share of the grid points in the whole
/// time-step. `High`/`Medium`/`Low` are the paper's three query classes
/// (3.95e-6, 8.06e-5 and 8.47e-4 of 1024³ points); `Prime` is what the
/// warm workload fills the cache with, below all three, so a hit has an
/// entry of ~2.6 k rows to validate and filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Prime,
    Low,
    Medium,
    High,
}

impl Tier {
    pub const ALL: [Tier; 4] = [Tier::Prime, Tier::Low, Tier::Medium, Tier::High];

    pub fn fraction(self) -> f64 {
        match self {
            Tier::Prime => 1e-2,
            Tier::Low => 8.47e-4,
            Tier::Medium => 8.06e-5,
            Tier::High => 3.95e-6,
        }
    }

    pub fn index(self) -> usize {
        Tier::ALL.iter().position(|t| *t == self).unwrap_or(0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    Whole,
    /// One of the eight half-edge sub-cubes.
    Octant(u8),
}

impl Region {
    pub fn to_box(self, n: u32) -> Box3 {
        match self {
            Region::Whole => Box3::cube(n),
            Region::Octant(o) => {
                let h = n / 2;
                let lo = [
                    u32::from(o & 1) * h,
                    u32::from(o >> 1 & 1) * h,
                    u32::from(o >> 2 & 1) * h,
                ];
                Box3::new(lo, [lo[0] + h - 1, lo[1] + h - 1, lo[2] + h - 1])
            }
        }
    }

    /// The `query_box` field of a wire request (`None` = whole time-step).
    pub fn wire_box(self, n: u32) -> Option<Box3> {
        match self {
            Region::Whole => None,
            r => Some(r.to_box(n)),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    Threshold {
        key: usize,
        tier: Tier,
        region: Region,
    },
    /// `PDF_BINS`-bin histogram over the whole time-step.
    Pdf { key: usize },
    /// The `TOPK` most intense points of the whole time-step.
    TopK { key: usize },
    /// Lagrange interpolation of a raw field at position set `set`.
    Points {
        field: usize,
        timestep: u32,
        set: usize,
    },
}

impl Query {
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Threshold { .. } => "threshold",
            Query::Pdf { .. } => "pdf",
            Query::TopK { .. } => "topk",
            Query::Points { .. } => "points",
        }
    }
}

/// What the driver resets, untimed, before every query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clear {
    Nothing,
    /// Semantic and PDF caches: every query evaluates from atoms.
    Caches,
    /// Caches and buffer pools: every query also re-reads its blocks.
    CachesAndPools,
}

/// How setup fills the caches before measuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prime {
    Nothing,
    /// Every key, whole grid, at [`Tier::Prime`]: all later queries hit.
    AllKeysBelowEveryTier,
    /// Every key's whole-grid `Medium` entry and PDF: the state the
    /// replace rule keeps returning to.
    ThresholdAndPdf,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdScan,
    DeriveScan,
    WarmCache,
    MixedZipf,
}

/// Archive shape and cache sizing of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub grid: usize,
    pub timesteps: u32,
    pub chunk_atoms: u32,
    /// `None` keeps `ClusterConfig::default()` (256 MiB per node).
    pub bufferpool_bytes: Option<usize>,
    pub clients: usize,
    pub clear: Clear,
    pub prime: Prime,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdScan,
        Workload::DeriveScan,
        Workload::WarmCache,
        Workload::MixedZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScan => "cold_scan",
            Workload::DeriveScan => "derive_scan",
            Workload::WarmCache => "warm_cache",
            Workload::MixedZipf => "mixed_zipf",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line for `BENCHMARK.json` on why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdScan => {
                "The paper's headline cold query: caches and pools cleared before each whole-grid threshold, so block read, CRC, decode, halo fetch and kernels share the time"
            }
            Workload::DeriveScan => {
                "Pool-warm scans (threshold, octant, PDF, top-k) with the semantic cache cleared: halo assembly, derive and scan do the work, storage serves only pool hits"
            }
            Workload::WarmCache => {
                "Every query is a semantic-cache hit from 2 clients: lookup, checksum, filter, scatter, admission and JSON are the whole cost; kernels and storage idle"
            }
            Workload::MixedZipf => {
                "Zipf traffic of 4 query kinds over buffer pools a quarter of the working set: cache hits beside replacements, pool hits beside evictions, scans beside point reads"
            }
        }
    }

    /// The workload's archive and cache sizing. `smoke` halves the grid
    /// edge and the chunk edge (same chunks-per-node shape, 1/8 the data).
    pub fn spec(self, smoke: bool) -> Spec {
        let (grid, chunk_atoms) = match (self, smoke) {
            (Workload::ColdScan | Workload::DeriveScan, false) => (64, 4),
            (Workload::ColdScan | Workload::DeriveScan, true) => (32, 2),
            (Workload::WarmCache | Workload::MixedZipf, false) => (64, 2),
            (Workload::WarmCache | Workload::MixedZipf, true) => (32, 1),
        };
        // one node's share of the three raw fields of all time-steps
        let node_share = |timesteps: usize| grid * grid * grid * 7 * 4 * timesteps / 4;
        match self {
            Workload::ColdScan => Spec {
                workload: self,
                grid,
                timesteps: 1,
                chunk_atoms,
                bufferpool_bytes: None,
                clients: 1,
                clear: Clear::CachesAndPools,
                prime: Prime::Nothing,
            },
            Workload::DeriveScan => Spec {
                workload: self,
                grid,
                timesteps: 1,
                chunk_atoms,
                bufferpool_bytes: None,
                clients: 1,
                clear: Clear::Caches,
                prime: Prime::Nothing,
            },
            Workload::WarmCache => Spec {
                workload: self,
                grid,
                timesteps: 4,
                chunk_atoms,
                bufferpool_bytes: None,
                clients: 2,
                clear: Clear::Nothing,
                prime: Prime::AllKeysBelowEveryTier,
            },
            Workload::MixedZipf => Spec {
                workload: self,
                grid,
                timesteps: 4,
                chunk_atoms,
                // ~27 % of a node's share of the archive, so eviction runs
                bufferpool_bytes: Some(node_share(4) * 27 / 100),
                clients: 1,
                clear: Clear::Nothing,
                prime: Prime::ThresholdAndPdf,
            },
        }
    }
}

/// A shuffled deck dealt without replacement and reshuffled when it runs
/// out: over every deck the shares are exact, so a run's mix of cheap and
/// costly queries does not depend on the seed's luck.
struct Deck<T> {
    cards: Vec<T>,
    /// Position of the next card; 0 = shuffle first.
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Self {
        Deck { cards, next: 0 }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == 0 {
            rng.shuffle(&mut self.cards);
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Threshold,
    Pdf,
    TopK,
    Points,
}

/// The seeded, endless query stream of one client.
pub struct QueryGen {
    workload: Workload,
    rng: Rng,
    /// Key indices in a per-seed order, for the round-robin workloads.
    ranked_keys: Vec<usize>,
    /// (time-step, raw field) snapshots in popularity order (rank 0 = most
    /// requested), a per-seed shuffle so no snapshot is special.
    ranked_snapshots: Vec<usize>,
    /// Popularity of the snapshots. The four derived fields of a snapshot
    /// are dealt evenly: they cost differently (one curl, three gradient
    /// tensors), and a seed that made the cheap one popular would read as
    /// a faster program.
    zipf: Zipf,
    derived: Deck<usize>,
    /// `mixed_zipf`: twentieths — 14 threshold, 2 PDF, 3 top-k, 1 points.
    kinds: Deck<Kind>,
    /// (octant?, tier) of a threshold query of the zipf workloads.
    shapes: Deck<(bool, Tier)>,
    keys: Vec<Key>,
    issued: usize,
}

impl QueryGen {
    /// `client` selects the lane; all clients of a run share one
    /// popularity order.
    pub fn new(workload: Workload, timesteps: u32, seed: u64, client: usize) -> Self {
        let keys = keys(timesteps);
        let mut order = Rng::for_lane(seed, 0x6b65_7973);
        let mut ranked_keys: Vec<usize> = (0..keys.len()).collect();
        order.shuffle(&mut ranked_keys);
        let mut ranked_snapshots: Vec<usize> = (0..keys.len() / DERIVED.len()).collect();
        order.shuffle(&mut ranked_snapshots);
        let shapes = match workload {
            // The cache keeps one entry per key and replaces it on every
            // miss. Whole-grid queries (7 in 8) never go below `Medium`
            // and octant ones never above it, so no entry ever covers
            // everything: one query in sixteen (octant, `Low`) misses and
            // narrows the entry, and the next whole-grid query misses and
            // widens it again — a stationary ~85 % of threshold queries
            // hit on every node, whatever the data or the popularity.
            Workload::MixedZipf => [
                vec![(false, Tier::High); 7],
                vec![(false, Tier::Medium); 7],
                vec![(true, Tier::Medium), (true, Tier::Low)],
            ]
            .concat(),
            // every tier at or above the primed one, whole and octant
            _ => [Tier::Low, Tier::Medium, Tier::High]
                .into_iter()
                .flat_map(|t| [(false, t), (true, t)])
                .collect(),
        };
        QueryGen {
            workload,
            rng: Rng::for_lane(seed, 1 + client as u64),
            zipf: Zipf::new(ranked_snapshots.len(), ZIPF_S),
            ranked_keys,
            ranked_snapshots,
            derived: Deck::new((0..DERIVED.len()).collect()),
            kinds: Deck::new(
                [
                    vec![Kind::Threshold; 14],
                    vec![Kind::Pdf; 2],
                    vec![Kind::TopK; 3],
                    vec![Kind::Points],
                ]
                .concat(),
            ),
            shapes: Deck::new(shapes),
            keys,
            issued: 0,
        }
    }

    fn key_at(&self, turn: usize) -> usize {
        self.ranked_keys[turn % self.ranked_keys.len()]
    }

    /// A key by popularity: zipf over the snapshots, the derived field
    /// dealt evenly ([`keys`] lists a snapshot's derived fields together).
    fn popular_key(&mut self) -> usize {
        let snapshot = self.ranked_snapshots[self.zipf.sample(&mut self.rng)];
        snapshot * DERIVED.len() + self.derived.deal(&mut self.rng)
    }

    fn octant(&mut self) -> Region {
        Region::Octant(self.rng.below(8) as u8)
    }

    fn shaped_threshold(&mut self, key: usize) -> Query {
        let (octant, tier) = self.shapes.deal(&mut self.rng);
        Query::Threshold {
            key,
            tier,
            region: if octant { self.octant() } else { Region::Whole },
        }
    }
}

impl Iterator for QueryGen {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let i = self.issued;
        self.issued += 1;
        let nkeys = self.keys.len();
        Some(match self.workload {
            Workload::ColdScan => Query::Threshold {
                key: self.key_at(i),
                tier: Tier::Medium,
                region: Region::Whole,
            },
            // every (key, kind) pair once per nkeys × 4 queries
            Workload::DeriveScan => {
                let key = self.key_at(i);
                match (i + i / nkeys) % 4 {
                    0 => Query::Threshold {
                        key,
                        tier: Tier::Low,
                        region: Region::Whole,
                    },
                    1 => Query::Threshold {
                        key,
                        tier: Tier::Low,
                        region: self.octant(),
                    },
                    2 => Query::Pdf { key },
                    _ => Query::TopK { key },
                }
            }
            Workload::WarmCache => {
                let key = self.popular_key();
                self.shaped_threshold(key)
            }
            Workload::MixedZipf => {
                let key = self.popular_key();
                match self.kinds.deal(&mut self.rng) {
                    Kind::Threshold => self.shaped_threshold(key),
                    Kind::Pdf => Query::Pdf { key },
                    Kind::TopK => Query::TopK { key },
                    Kind::Points => {
                        let k = self.keys[key];
                        Query::Points {
                            field: k.field,
                            timestep: k.timestep,
                            set: self.rng.below(POINT_SETS),
                        }
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64, client: usize, n: usize) -> Vec<Query> {
        QueryGen::new(w, w.spec(false).timesteps, seed, client)
            .take(n)
            .collect()
    }

    #[test]
    fn query_streams_are_pure_functions_of_seed_and_client() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 11, 0, 200), stream(w, 11, 0, 200), "{w:?}");
            assert_ne!(stream(w, 11, 0, 200), stream(w, 12, 0, 200), "{w:?}");
        }
        // the two clients of a run draw different sequences
        assert_ne!(
            stream(Workload::WarmCache, 11, 0, 200),
            stream(Workload::WarmCache, 11, 1, 200)
        );
    }

    #[test]
    fn workload_names_round_trip_and_whys_fit_the_manifest() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn scan_workloads_cover_every_key_and_kind() {
        let cold = stream(Workload::ColdScan, 5, 0, 8);
        let mut seen: Vec<usize> = cold
            .iter()
            .map(|q| match q {
                Query::Threshold {
                    key,
                    tier: Tier::Medium,
                    region: Region::Whole,
                } => *key,
                other => panic!("cold_scan issued {other:?}"),
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());

        let derive = stream(Workload::DeriveScan, 5, 0, 32);
        let mut pairs: Vec<(usize, &str, bool)> = derive
            .iter()
            .map(|q| match q {
                Query::Threshold { key, region, .. } => {
                    (*key, "threshold", *region == Region::Whole)
                }
                Query::Pdf { key } => (*key, "pdf", true),
                Query::TopK { key } => (*key, "topk", true),
                Query::Points { .. } => panic!("derive_scan issues no point queries"),
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 32, "8 keys × 4 kinds, each once");
    }

    #[test]
    fn warm_queries_never_go_below_the_primed_tier() {
        for q in stream(Workload::WarmCache, 9, 1, 2000) {
            match q {
                Query::Threshold { key, tier, .. } => {
                    assert!(key < 32);
                    assert!(tier.fraction() <= Tier::Prime.fraction());
                }
                other => panic!("warm_cache issued {other:?}"),
            }
        }
    }

    #[test]
    fn mixed_kind_shares_are_as_documented() {
        let qs = stream(Workload::MixedZipf, 3, 0, 20_000);
        let share =
            |kind: &str| qs.iter().filter(|q| q.kind() == kind).count() as f64 / qs.len() as f64;
        // dealt from decks of twenty: exact over any whole number of decks
        assert_eq!(share("threshold"), 0.70);
        assert_eq!(share("pdf"), 0.10);
        assert_eq!(share("topk"), 0.15);
        assert_eq!(share("points"), 0.05);
        // and the four derived fields of a snapshot are asked for evenly
        let derived_of = |q: &Query| match q {
            Query::Threshold { key, .. } | Query::Pdf { key } | Query::TopK { key } => {
                Some(key % DERIVED.len())
            }
            Query::Points { .. } => None,
        };
        for d in 0..DERIVED.len() {
            let n = qs.iter().filter(|q| derived_of(q) == Some(d)).count();
            assert!((4700..=4800).contains(&n), "derived {d}: {n} of 19000");
        }
        // one threshold query in sixteen narrows its key's entry
        let narrowing = qs
            .iter()
            .filter(|q| {
                matches!(
                    q,
                    Query::Threshold {
                        tier: Tier::Low,
                        region: Region::Octant(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(narrowing, 14_000 / 16);
    }

    #[test]
    fn regions_tile_the_grid() {
        assert_eq!(Region::Whole.to_box(64), Box3::cube(64));
        assert_eq!(Region::Whole.wire_box(64), None);
        let total: u64 = (0..8)
            .map(|o| Region::Octant(o).to_box(64).num_points())
            .sum();
        assert_eq!(total, 64 * 64 * 64);
        assert_eq!(
            Region::Octant(5).to_box(64),
            Box3::new([32, 0, 32], [63, 31, 63])
        );
    }

    #[test]
    fn tiers_are_ordered_by_selectivity() {
        let f: Vec<f64> = Tier::ALL.iter().map(|t| t.fraction()).collect();
        assert!(f.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(Tier::Medium.index(), 2);
        assert_eq!(keys(4).len(), 32);
    }
}
