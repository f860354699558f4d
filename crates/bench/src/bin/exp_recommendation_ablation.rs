//! **Ablation (beyond the paper): cell recommendation** — paper §8 proposes
//! that the system "recommend certain cells to individual workers... making
//! the whole data collection process more efficient"; the deployed system
//! only randomized row order. We implemented the recommender
//! (`crowdfill-sim/src/recommend.rs`); this ablation measures its effect:
//! the same worker population collects the same table with recommendations
//! on vs off, over several seeds.
//!
//! **Finding (negative, and informative):** with five workers on this
//! workload, guidance *reduces the number of worker actions slightly but
//! increases makespan ~40%*. The mechanism: free-scanning workers
//! self-select rows they know (and mostly extend rows they themselves
//! started, so their plans rarely go stale), while knowledge-blind server
//! steering sends workers to rows they must research — and to rows whose
//! owners replace them mid-plan, wasting the helper's data-entry time.
//! This empirically supports the paper's §1 transparency argument (workers
//! "identify those parts of the structured data they can contribute to
//! best") and its §8 caveat that useful recommendation needs a model of
//! worker skills, not just table state.

use crowdfill_bench::print_table;
use crowdfill_sim::{paper_setup, run};

fn main() {
    crowdfill_obs::init_from_env();
    let seeds: Vec<u64> = (2014..2022).collect();
    let rows = 20;
    println!("Recommendation ablation: {rows}-row collection, 5 workers, seeds 2014–2021\n");

    let mut table = Vec::new();
    let mut sums = [0.0f64; 2];
    let mut actions = [0usize; 2];
    let mut finished = [0usize; 2];
    for &seed in &seeds {
        let mut row = vec![seed.to_string()];
        for (i, guided) in [false, true].into_iter().enumerate() {
            let mut cfg = paper_setup(seed, rows);
            for p in &mut cfg.profiles {
                p.follow_recommendations = guided;
            }
            let report = run(cfg);
            let total_actions: usize = report.actions_per_worker.values().sum();
            row.push(if report.fulfilled {
                format!("{:.0}s", report.elapsed.seconds())
            } else {
                "—".to_string()
            });
            row.push(total_actions.to_string());
            if report.fulfilled {
                finished[i] += 1;
                sums[i] += report.elapsed.seconds();
                actions[i] += total_actions;
            }
        }
        table.push(row);
    }
    print_table(
        &["seed", "free t", "free acts", "guided t", "guided acts"],
        &table,
    );
    for (i, label) in ["free scanning", "recommended"].iter().enumerate() {
        if finished[i] > 0 {
            println!(
                "{label:>15}: mean {:.0}s, mean {:.0} worker actions ({} / {} converged)",
                sums[i] / finished[i] as f64,
                actions[i] as f64 / finished[i] as f64,
                finished[i],
                seeds.len()
            );
        }
    }
}
