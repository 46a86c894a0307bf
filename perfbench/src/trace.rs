//! Spans recorded from the benchmark's own files around calls into each
//! layer, and the per-layer budget derived from them.
//!
//! The program has no spans of its own on the query path yet (ROADMAP
//! item 4), so one query is replayed at successive altitudes — `Client`,
//! `handle_line_admitted`, `TurbulenceService`, `Cluster`, per-node
//! `evaluate_shared`, and the node pipeline re-issued by hand — and each
//! execution becomes a span whose parent is the same query's span one
//! altitude up. Children were therefore measured in another execution
//! than their parent: they cover `Σ child durations / par` of it, where
//! `par` is how many of them the parent runs at once, and on one query
//! they may read longer than the parent did. A self time is therefore a
//! signed difference — clipping each at zero would turn symmetric
//! run-to-run noise into time that was never spent — and only sums over
//! the replayed sample are reported.

use std::time::Instant;

use tdb_wire::Json;

/// The crate a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Wire,
    Core,
    Cluster,
    Storage,
    Kernels,
    Cache,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Wire,
        Layer::Core,
        Layer::Cluster,
        Layer::Storage,
        Layer::Kernels,
        Layer::Cache,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Wire => "wire",
            Layer::Core => "core",
            Layer::Cluster => "cluster",
            Layer::Storage => "storage",
            Layer::Kernels => "kernels",
            Layer::Cache => "cache",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// `None`: the span's self time is not a call the benchmark can name
    /// (the inside of `evaluate_shared`) and counts as unattributed.
    pub layer: Option<Layer>,
    /// Index of the replayed query; spans of one query share it.
    pub query: u32,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    /// How many of this span's children run at once inside it.
    pub par: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// In-memory span store; written out once, when the benchmark ends.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a new span and returns its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: Option<Layer>,
        query: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_s = self.t0.elapsed().as_secs_f64();
        let out = f();
        let end_s = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            query,
            parent,
            start_s,
            end_s,
            par: 1.0,
        });
        (out, self.spans.len() - 1)
    }

    /// Records a span of `duration_s` ending now: the sum of many short
    /// calls of one kind (per position, per atom) timed individually.
    pub fn add(
        &mut self,
        name: &'static str,
        layer: Option<Layer>,
        query: u32,
        parent: Option<usize>,
        duration_s: f64,
    ) -> usize {
        let end_s = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            query,
            parent,
            start_s: end_s - duration_s,
            end_s,
            par: 1.0,
        });
        self.spans.len() - 1
    }

    pub fn set_par(&mut self, id: usize, par: f64) {
        if let Some(s) = self.spans.get_mut(id) {
            s.par = par.max(1.0);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_s(&self, id: usize) -> f64 {
        self.spans.get(id).map_or(0.0, Span::duration_s)
    }
}

/// Seconds of each span not covered by its children:
/// `duration − Σ child durations / par` (signed, see the module doc).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(slot) = s.parent.and_then(|p| covered.get_mut(p)) {
            *slot += s.duration_s();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration_s() - c / s.par)
        .collect()
}

/// Per-layer self seconds of a span forest, each span weighted by how
/// much of its root's wall time it stands for (`Π 1/par` over its
/// ancestors), so the rows add up to the roots' total.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Σ root durations: the wire round-trip time of the replayed queries.
    pub rtt_s: f64,
    /// Self seconds per [`Layer::ALL`] entry.
    pub layer_s: [f64; 6],
    /// `rtt_s − Σ layer_s`: the self time of spans without a layer.
    pub unattributed_s: f64,
    pub queries: usize,
}

impl Budget {
    pub fn layer(&self, layer: Layer) -> f64 {
        // `Layer::ALL` lists the variants in declaration order
        self.layer_s[layer as usize]
    }

    pub fn unattributed_frac(&self) -> f64 {
        crate::stats::ratio(self.unattributed_s.abs(), self.rtt_s)
    }

    /// The layer with the largest self time.
    pub fn slowest(&self) -> Layer {
        let mut best = Layer::Wire;
        for l in Layer::ALL {
            if self.layer(l) > self.layer(best) {
                best = l;
            }
        }
        best
    }

    pub fn render(&self, workload: &str) -> String {
        let per_query_ms = |s: f64| 1e3 * crate::stats::ratio(s, self.queries as f64);
        let mut out = format!(
            "per-layer budget, {workload}: {} queries, wire RTT {:.3} ms/query\n",
            self.queries,
            per_query_ms(self.rtt_s)
        );
        for l in Layer::ALL {
            out.push_str(&format!(
                "  {:<13}{:>10.3} ms/query {:>6.1} %\n",
                l.name(),
                per_query_ms(self.layer(l)),
                100.0 * crate::stats::ratio(self.layer(l), self.rtt_s)
            ));
        }
        out.push_str(&format!(
            "  {:<13}{:>10.3} ms/query {:>6.1} %\n  slowest layer: {}\n",
            "unattributed",
            per_query_ms(self.unattributed_s),
            100.0 * crate::stats::ratio(self.unattributed_s, self.rtt_s),
            self.slowest().name()
        ));
        out
    }
}

pub fn budget(spans: &[Span]) -> Budget {
    let selfs = self_times(spans);
    // parents are recorded before their children, so one forward pass
    // resolves every weight
    let mut weight = vec![1.0f64; spans.len()];
    let mut b = Budget::default();
    for (i, s) in spans.iter().enumerate() {
        let w = match s.parent.and_then(|p| Some((weight.get(p)?, spans.get(p)?))) {
            Some((pw, parent)) => pw / parent.par,
            None => {
                b.rtt_s += s.duration_s();
                b.queries += 1;
                1.0
            }
        };
        if let Some(slot) = weight.get_mut(i) {
            *slot = w;
        }
        if let (Some(layer), Some(own)) = (s.layer, selfs.get(i)) {
            b.layer_s[layer as usize] += own * w;
        }
    }
    b.unattributed_s = b.rtt_s - b.layer_s.iter().sum::<f64>();
    b
}

/// The spans as one JSON document (`trace.<workload>.json`).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("query", Json::Num(f64::from(s.query))),
                ("name", Json::Str(s.name.to_string())),
                (
                    "layer",
                    s.layer
                        .map_or(Json::Null, |l| Json::Str(l.name().to_string())),
                ),
                ("start_s", Json::Num(s.start_s)),
                ("end_s", Json::Num(s.end_s)),
                ("par", Json::Num(s.par)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: Option<Layer>,
        parent: Option<usize>,
        dur: f64,
        par: f64,
    ) -> Span {
        Span {
            name,
            layer,
            query: 0,
            parent,
            start_s: 0.0,
            end_s: dur,
            par,
        }
    }

    /// client 10 → handle 8 → service 7 → cluster 6 (par 2) → two node
    /// evaluations of 4 and 5, the first with leaves 1 (fetch) + 2 (derive).
    fn tree() -> Vec<Span> {
        vec![
            span("client", Some(Layer::Wire), None, 10.0, 1.0),
            span("handle", Some(Layer::Wire), Some(0), 8.0, 1.0),
            span("service", Some(Layer::Core), Some(1), 7.0, 1.0),
            span("cluster", Some(Layer::Cluster), Some(2), 6.0, 2.0),
            span("node", None, Some(3), 4.0, 1.0),
            span("node", None, Some(3), 5.0, 1.0),
            span("fetch", Some(Layer::Storage), Some(4), 1.0, 1.0),
            span("derive", Some(Layer::Kernels), Some(4), 2.0, 1.0),
        ]
    }

    #[test]
    fn self_time_subtracts_children_scaled_by_parallelism() {
        let s = self_times(&tree());
        assert_eq!(s, vec![2.0, 1.0, 1.0, 1.5, 1.0, 5.0, 1.0, 2.0]);
    }

    #[test]
    fn budget_rows_sum_to_the_root() {
        let b = budget(&tree());
        assert_eq!(b.queries, 1);
        assert_eq!(b.rtt_s, 10.0);
        assert_eq!(b.layer(Layer::Wire), 3.0);
        assert_eq!(b.layer(Layer::Core), 1.0);
        assert_eq!(b.layer(Layer::Cluster), 1.5);
        // leaves under the par-2 cluster span stand for half their time
        assert_eq!(b.layer(Layer::Storage), 0.5);
        assert_eq!(b.layer(Layer::Kernels), 1.0);
        // node self times (1 + 5) / 2
        assert_eq!(b.unattributed_s, 3.0);
        assert_eq!(b.slowest(), Layer::Wire);
        assert!((b.unattributed_frac() - 0.3).abs() < 1e-12);
        assert!(b.render("t").contains("slowest layer: wire"));
    }

    #[test]
    fn children_longer_than_their_parent_give_a_negative_self_time() {
        let spans = vec![
            span("client", Some(Layer::Wire), None, 1.0, 1.0),
            span("handle", Some(Layer::Wire), Some(0), 1.5, 1.0),
        ];
        assert_eq!(self_times(&spans), vec![-0.5, 1.5]);
        // and the rows still add up to the root
        let b = budget(&spans);
        assert_eq!((b.layer(Layer::Wire), b.unattributed_s), (1.0, 0.0));
    }

    #[test]
    fn recorder_links_and_serialises() {
        let mut r = Recorder::new();
        let (v, root) = r.time("client", Some(Layer::Wire), 3, None, || 41 + 1);
        assert_eq!(v, 42);
        let (_, child) = r.time("handle", Some(Layer::Wire), 3, Some(root), || ());
        r.set_par(root, 2.0);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[child].parent, Some(root));
        assert_eq!(r.spans()[root].par, 2.0);
        let doc = to_json("w", 9, r.spans());
        let back = Json::parse(&doc.encode()).expect("round trip");
        assert_eq!(back, doc);
        assert_eq!(
            back.get("spans").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
    }
}
