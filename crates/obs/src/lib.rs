//! `tdb-obs`: query-path observability for ThresholDB.
//!
//! Two pieces, both dependency-free:
//!
//! * [`metrics`] / [`declared`] — process-wide atomic counters, gauges
//!   and log₂-bucketed histograms that storage, cache, cluster and
//!   service layers report into as they work. Each is a `static` of
//!   [`m`], declared by one row of the table in `declared.rs`.
//! * [`trace`] — a per-query span tree ([`QueryTrace`]) the mediator
//!   assembles for each threshold / PDF / top-k query, with one span per
//!   phase plus per-node detail spans carrying structured attributes.
//!
//! **Adding a metric** is one row of that table — `counter MY_EVENTS
//! "my.events";` — and then `tdb_obs::m::MY_EVENTS.inc()` wherever it
//! happens. The row makes it appear (at zero) in every snapshot, hence in
//! `tdbql metrics` and `repro_results.json`; a name that is not in the
//! table does not compile, and `every_declared_metric_is_reported`
//! (`tests/lint_selftest.rs`) fails on a row nothing reports. A metric
//! with a label (per device, per tenant) is a `family` row; resolve the
//! member once with `m::IO_BYTES.with(label)` where the labelled thing
//! is built and keep the handle.

pub mod declared;
pub mod metrics;
pub mod trace;

pub use declared::{global, m, GlobalMetrics};
pub use metrics::{
    Counter, CounterFamily, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{AttrValue, QueryTrace, TraceSpan};
