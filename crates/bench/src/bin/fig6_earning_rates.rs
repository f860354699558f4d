//! **E6 — Figure 6: earning rates under uniform vs weighted allocation**
//! (paper §6).
//!
//! For two representative workers, plot cumulative earnings (as % of each
//! worker's eventual total) against elapsed time, under dual-weighted and
//! uniform allocation of the same trace. The paper observes that weighted
//! allocation is "somewhat more stable" — its curves track linear earning
//! more closely. We print the curves and an instability metric (maximum
//! deviation from the linear diagonal; 0 = perfectly steady).

use crowdfill_bench::{ascii_chart, print_table, wname};
use crowdfill_pay::{earning_curve, earning_instability, Scheme, WorkerId};
use crowdfill_sim::{paper_setup, run};

fn normalize(curve: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let Some(&(_, total)) = curve.last() else {
        return Vec::new();
    };
    if total <= 0.0 {
        return Vec::new();
    }
    curve.iter().map(|&(t, c)| (t, c / total * 100.0)).collect()
}

fn main() {
    crowdfill_obs::init_from_env();
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2014u64);
    let report = run(paper_setup(seed, 20));
    assert!(report.fulfilled, "run did not converge; try another seed");

    let uniform = report.reallocate(Scheme::Uniform);
    let dual = report.reallocate(Scheme::DualWeighted);

    // Two representative workers: the top earner and a mid earner.
    let mut by_amount: Vec<(WorkerId, f64)> = report
        .payout
        .per_worker
        .iter()
        .map(|(w, v)| (*w, *v))
        .collect();
    by_amount.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let picks = [by_amount[0].0, by_amount[by_amount.len() / 2].0];

    println!("E6 / Figure 6: cumulative earning (% of final) over time (seed {seed})\n");
    for w in picks {
        let cu = normalize(&earning_curve(&uniform, w));
        let cd = normalize(&earning_curve(&dual, w));
        println!("worker {}:", wname(w));
        ascii_chart(&[("weighted", &cd), ("uniform", &cu)], 64, 12);
        println!();
    }

    // Stability table over all workers.
    let mut rows = Vec::new();
    let mut mean_u = 0.0;
    let mut mean_d = 0.0;
    let mut n = 0;
    for w in report.payout.per_worker.keys() {
        let iu = earning_instability(&earning_curve(&uniform, *w));
        let id = earning_instability(&earning_curve(&dual, *w));
        mean_u += iu;
        mean_d += id;
        n += 1;
        rows.push(vec![wname(*w), format!("{iu:.3}"), format!("{id:.3}")]);
    }
    print_table(&["worker", "uniform", "weighted"], &rows);
    mean_u /= n as f64;
    mean_d /= n as f64;
    println!("\nmean instability: uniform {mean_u:.3}, weighted {mean_d:.3}");
    println!(
        "paper's observation — weighted allocation earns more steadily: {}",
        if mean_d <= mean_u {
            "✓"
        } else {
            "✗ on this seed (paper: 'more extensive experiments would be needed')"
        }
    );
}
