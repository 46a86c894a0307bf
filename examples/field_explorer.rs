//! Exploring the derived-field catalogue: PDFs, top-k queries, velocity-
//! gradient invariants (Q and R) and the electric current in the MHD
//! dataset — everything §3 of the paper lists as scientifically
//! interesting.
//!
//! ```sh
//! cargo run --release -p tdb-bench --example field_explorer
//! ```

use tdb_core::{DerivedField, ServiceConfig, ThresholdQuery, TurbulenceService};

fn main() {
    let dir = tdb_bench::ScratchDir::new("field_explorer");
    let service = TurbulenceService::build(ServiceConfig::small_mhd(dir.path())).expect("build");

    // --- Fig. 2-style PDF of the vorticity norm -------------------------
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);
    let pdf = service.get_pdf(&q, 0.0, 10.0, 9).expect("pdf");
    println!("PDF of the vorticity norm (paper Fig. 2 binning):");
    for i in 0..=pdf.histogram.nbins() {
        let (lo, hi) = pdf.histogram.bin_range(i);
        let label = if hi.is_infinite() {
            format!("[{lo:>3.0},  ..)")
        } else {
            format!("[{lo:>3.0},{hi:>3.0})")
        };
        let count = pdf.histogram.count(i);
        let bar_len = if count > 0 {
            (count as f64).log10().max(0.5) * 6.0
        } else {
            0.0
        };
        println!("  {label} {count:>9}  {}", "#".repeat(bar_len as usize));
    }

    // --- top-k: the most intense events of several fields ----------------
    println!("\ntop-5 locations per derived field:");
    for (raw, derived, label) in [
        ("velocity", DerivedField::CurlNorm, "vorticity |∇×u|"),
        ("magnetic", DerivedField::CurlNorm, "electric current |∇×B|"),
        ("velocity", DerivedField::QCriterion, "Q-invariant"),
        ("velocity", DerivedField::RInvariant, "R-invariant"),
        ("velocity", DerivedField::StrainRateNorm, "strain rate |S|"),
    ] {
        let q = ThresholdQuery::whole_timestep(raw, derived, 0, 0.0);
        let top = service.get_topk(&q, 5).expect("topk");
        let values: Vec<String> = top
            .points
            .iter()
            .map(|p| format!("{:.1}", p.value))
            .collect();
        println!("  {label:<24} {}", values.join(", "));
    }

    // --- threshold queries across the whole catalogue --------------------
    println!("\nthreshold queries at the 0.1% selectivity level:");
    for (raw, derived) in [
        ("velocity", DerivedField::CurlNorm),
        ("velocity", DerivedField::QCriterion),
        ("velocity", DerivedField::GradientNorm),
        ("magnetic", DerivedField::CurlNorm),
        ("magnetic", DerivedField::Norm),
        ("pressure", DerivedField::Norm),
    ] {
        let thr = service
            .threshold_for_fraction(raw, derived, 0, 0.001)
            .expect("threshold");
        let q = ThresholdQuery::whole_timestep(raw, derived, 0, thr);
        let r = service.get_threshold(&q).expect("query");
        println!(
            "  {raw:<9}/{:<17} k = {thr:>9.2} → {:>5} points, modelled {:6.3}s",
            derived.name(),
            r.points.len(),
            r.breakdown.total_s()
        );
    }

    // the error path of §4: a threshold that is set too low
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);
    match service.get_threshold(&q) {
        Err(e) => println!("\nthreshold 0.0 correctly rejected: {e}"),
        Ok(_) => println!("\n(grid small enough that threshold 0.0 fits the limit)"),
    }
}
