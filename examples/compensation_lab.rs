//! Compensation laboratory: run one simulated collection, then compare the
//! three allocation schemes (paper §5.2.2) on the identical trace, the
//! accuracy of online estimates (§5.3), and earning-rate stability (§6).
//!
//! Run with: `cargo run --release --example compensation_lab [seed]`

use crowdfill::prelude::*;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5u64);
    let report = run_simulation(paper_setup(seed, 12));
    assert!(report.fulfilled, "increase max_sim_secs for this seed");

    let uniform = report.reallocate(Scheme::Uniform);
    let column = report.reallocate(Scheme::ColumnWeighted);
    let dual = report.reallocate(Scheme::DualWeighted);

    println!("=== Per-worker compensation by scheme ($10 budget) ===");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "worker", "actions", "uniform", "column", "dual", "est(raw)", "est(corr)"
    );
    for w in report.payout.per_worker.keys() {
        println!(
            "{:<10} {:>8} {:>9.2}$ {:>9.2}$ {:>9.2}$ {:>9.2}$ {:>9.2}$",
            w.to_string(),
            report.actions_per_worker.get(w).copied().unwrap_or(0),
            uniform.worker_total(*w),
            column.worker_total(*w),
            dual.worker_total(*w),
            report.estimates_raw.get(w).copied().unwrap_or(0.0),
            report.estimates_corrected.get(w).copied().unwrap_or(0.0),
        );
    }

    // Estimation accuracy vs the *configured* scheme's actual payout.
    let pairs_raw: Vec<(f64, f64)> = report
        .payout
        .per_worker
        .iter()
        .map(|(w, actual)| (*actual, report.estimates_raw.get(w).copied().unwrap_or(0.0)))
        .collect();
    let pairs_corr: Vec<(f64, f64)> = report
        .payout
        .per_worker
        .iter()
        .map(|(w, actual)| {
            (
                *actual,
                report.estimates_corrected.get(w).copied().unwrap_or(0.0),
            )
        })
        .collect();
    println!(
        "\nestimate MAPE: raw {:.1}%, corrected {:.1}%  (paper: 16.1% / 9.9%)",
        mape(&pairs_raw).unwrap_or(f64::NAN),
        mape(&pairs_corr).unwrap_or(f64::NAN)
    );

    // Earning-rate stability (paper Figure 6): deviation from linear earning.
    println!("\n=== Earning-rate instability (0 = perfectly steady) ===");
    println!("{:<10} {:>10} {:>10}", "worker", "uniform", "weighted");
    for w in report.payout.per_worker.keys() {
        let curve_u = earning_curve(&uniform, *w);
        let curve_d = earning_curve(&dual, *w);
        println!(
            "{:<10} {:>10.3} {:>10.3}",
            w.to_string(),
            earning_instability(&curve_u),
            earning_instability(&curve_d)
        );
    }

    println!("\nweights learned by the dual scheme:");
    for (i, y) in dual.weights.per_column.iter().enumerate() {
        println!(
            "  {}: y = {:.2}s  z = {:.2}",
            report.schema.columns()[i].name(),
            y,
            dual.weights.z[i]
        );
    }
    println!(
        "  upvote: y = {:.2}s, downvote: y = {:.2}s",
        dual.weights.upvote, dual.weights.downvote
    );
}
