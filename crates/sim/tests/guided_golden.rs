//! Golden runs of recommendation-guided workers (paper §8).
//!
//! A guided worker acts on `crowdfill_sim::recommend`, which reads the probable-row
//! classification, so a run's whole trace is a function of every
//! recommendation it was handed. Each case pins an FNV-1a hash of a seeded
//! `crowdfill_sim::run` whose workers all follow recommendations: the trace
//! (who sent what, when), every estimate's bits, and the final table. The
//! constants were captured when `recommend` ran its own batch
//! classification, so a green run means the live classification hands out
//! identical recommendations.

use crowdfill_sim::{paper_setup, run};

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn guided_run(seed: u64, rows: usize) -> (u64, usize, bool) {
    let mut cfg = paper_setup(seed, rows);
    for p in &mut cfg.profiles {
        p.follow_recommendations = true;
    }
    let report = run(cfg);
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for e in report.trace.entries() {
        let line = format!("{}|{:?}|{}|{:?}\n", e.at.0, e.worker, e.auto_upvote, e.msg);
        fnv1a(&mut hash, line.as_bytes());
    }
    for e in &report.estimate_timeline {
        fnv1a(&mut hash, &e.amount.to_bits().to_le_bytes());
    }
    for v in report.final_table.values() {
        fnv1a(&mut hash, format!("{v:?}\n").as_bytes());
    }
    (hash, report.trace.len(), report.fulfilled)
}

#[test]
fn guided_runs_are_golden() {
    for (seed, rows, golden) in GOLDEN {
        let got = guided_run(seed, rows);
        assert_eq!(got, golden, "seed {seed} rows {rows}: computed {got:?}");
    }
}

/// `(seed, rows, (hash, trace length, fulfilled))` per case.
const GOLDEN: [(u64, usize, (u64, usize, bool)); 3] = [
    (3, 6, (13_132_320_983_870_275_627, 63, true)),
    (2014, 20, (8_305_463_236_177_096_461, 189, true)),
    (11, 40, (16_473_507_898_200_922_435, 399, true)),
];
