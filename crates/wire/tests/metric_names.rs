//! What the `metrics` request lists, in a process of its own: the values
//! are process-wide, so beside the unit tests (which shed and evict) "zero"
//! and "unchanged" could not be asserted exactly.

use std::sync::{Arc, Mutex};

use tdb_core::{ServiceConfig, TurbulenceService};
use tdb_wire::admission::{Admission, AdmissionConfig, AdmissionQueue, TenantSpec};
use tdb_wire::proto::Response;
use tdb_wire::server::{handle_line_admitted, ServerState};

/// Building a server resolves its devices' and tenants' family members;
/// the two tests must not see each other do it.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A dashboard must tell "never shed" from "not wired": every declared
/// metric is listed from the first request on, at zero.
#[test]
fn a_fresh_server_lists_metrics_it_has_never_reported() {
    let _serial = ONE_AT_A_TIME.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("thresholdb_wire_fresh_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServiceConfig::mhd(&dir, 16, 1, 0x7db);
    config.cluster.num_nodes = 1;
    let service = TurbulenceService::build(config).expect("service build");
    let state = ServerState::new(Arc::new(service), 1 << 20);
    let Response::Metrics { counters, gauges } =
        handle_line_admitted(r#"{"op":"metrics"}"#, &state, 0)
    else {
        panic!("metrics request was not answered with metrics")
    };
    let counter = |name: &str| counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(counter("admission.shed"), Some(0));
    assert_eq!(counter("qos.evicted"), Some(0));
    assert_eq!(counter("qos.shed.anonymous"), Some(0));
    assert_eq!(counter("query.degraded"), Some(0));
    assert!(gauges
        .iter()
        .any(|(n, v)| n == "admission.queue_depth" && *v == 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-tenant names are resolved when the queue is built, one pair per
/// configured tenant: no admit mints a name, and an unknown key lands on
/// `anonymous`, so cardinality stays bounded by `AdmissionConfig::tenants`.
#[test]
fn admits_leave_the_number_of_metric_names_unchanged() {
    let _serial = ONE_AT_A_TIME.lock().unwrap();
    let queue = AdmissionQueue::new(AdmissionConfig {
        tenants: ["gold", "silver", "bronze"]
            .map(|key| TenantSpec::new(key, 1))
            .to_vec(),
        ..AdmissionConfig::default()
    });
    let before = tdb_obs::global().snapshot();
    for i in 0..10_000u64 {
        let key = ["gold", "silver", "bronze", "no-such-tenant"][(i % 4) as usize];
        let Admission::Granted(_permit) = queue.admit_keyed(i % 7, Some(key)) else {
            panic!("an idle queue shed admit {i}")
        };
    }
    let after = tdb_obs::global().snapshot();
    let names =
        |s: &tdb_obs::MetricsSnapshot| (s.counters.len(), s.gauges.len(), s.histograms.len());
    assert_eq!(names(&after), names(&before));
    let admitted = after.counters_since(&before);
    assert_eq!(admitted["admission.admitted"], 10_000);
    for tenant in ["gold", "silver", "bronze", "anonymous"] {
        assert_eq!(
            admitted[&format!("qos.admitted.{tenant}")],
            2_500,
            "{tenant}"
        );
    }
}
