//! The metric names this benchmark prints, with unit, direction and (for
//! the gated ones) the bound. `BENCHMARK.json` at the repository root
//! lists the same names; `tests/smoke.rs` fails when the two drift.

use crate::stats::THREAD_GROUPS;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    /// `None` for per-layer metrics, which are reported and never gated.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// What a worker (or the operator paying for the machine) feels. Printed
/// by every workload on the untraced run; all lower-is-better.
///
/// The bounds are three times the widest inter-quartile spread twenty runs
/// of one binary showed on this sandbox (7–12% of the median), capped at
/// the quarter the benchmark contract allows; a tenth is not resolvable on
/// a machine whose clock moves by 1.6x under the measurement.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("fill_ack_p50_us", "us", "lower", Some(0.25)),
        def("vote_ack_p50_us", "us", "lower", Some(0.25)),
        def("peer_p50_us", "us", "lower", Some(0.25)),
        def("join_p50_us", "us", "lower", Some(0.25)),
        def("cpu_us_per_action", "us", "lower", Some(0.25)),
        def("setup_s", "s", "lower", Some(0.25)),
    ]
}

/// Single-layer metrics of the traced run, measured from outside.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for group in THREAD_GROUPS {
        defs.push(def(
            &format!("{group}.cpu_us_per_action"),
            "us",
            "lower",
            None,
        ));
        defs.push(def(
            &format!("{group}.runq_wait_us_per_action"),
            "us",
            "lower",
            None,
        ));
    }
    for (name, unit, better) in [
        // Tails and throughput: reported, never gated (p90s do not repeat
        // within a tenth; a closed loop's rate is 2 / latency again).
        ("tail.fill_ack_p90_us", "us", "lower"),
        ("tail.fill_ack_p99_us", "us", "lower"),
        ("tail.vote_ack_p90_us", "us", "lower"),
        ("tail.peer_p90_us", "us", "lower"),
        ("tail.join_p90_us", "us", "lower"),
        ("tail.complete_fill_p50_us", "us", "lower"),
        ("tail.actions_per_s", "1/s", "higher"),
        // The gated times before scaling to reference speed, and the scale.
        ("raw.fill_ack_p50_us", "us", "lower"),
        ("raw.vote_ack_p50_us", "us", "lower"),
        ("raw.peer_p50_us", "us", "lower"),
        ("raw.join_p50_us", "us", "lower"),
        ("raw.cpu_us_per_action", "us", "lower"),
        ("raw.setup_s", "s", "lower"),
        ("env.speed_factor", "ratio", "lower"),
        ("env.steal_share", "%", "lower"),
        ("env.clean_blocks", "count", "higher"),
        // Journaled workload only (0 elsewhere), hence not end-to-end.
        ("journal.recover_p50_us", "us", "lower"),
        ("journal.wal_bytes_per_action", "bytes", "lower"),
        // Client-edge spans of the traced blocks.
        ("client.prepare_us", "us", "lower"),
        ("wire.rtt_us", "us", "lower"),
        ("client.finish_us", "us", "lower"),
        ("client.absorb_us", "us", "lower"),
        ("wire.bcast_gap_us", "us", "lower"),
        ("join.connect_us", "us", "lower"),
        ("join.handshake_us", "us", "lower"),
        ("join.rebuild_us", "us", "lower"),
        ("net.bytes_out_per_action", "bytes", "lower"),
        ("net.bytes_in_per_action", "bytes", "lower"),
        ("net.frames_in_per_action", "count", "lower"),
        ("net.welcome_bytes", "bytes", "lower"),
        // Layer replay on the captured block.
        ("docstore.parse_us", "us", "lower"),
        ("wire.decode_us", "us", "lower"),
        ("net.frame_us", "us", "lower"),
        ("wire.encode_us", "us", "lower"),
        ("backend.apply_us", "us", "lower"),
        ("sync.process_us", "us", "lower"),
        ("constraints.pri_us", "us", "lower"),
        ("backend.other_us", "us", "lower"),
        ("client.absorb_apply_us", "us", "lower"),
        ("backend.connect_us", "us", "lower"),
        ("client.rebuild_us", "us", "lower"),
        ("wire.welcome_encode_us", "us", "lower"),
        ("client.welcome_parse_us", "us", "lower"),
        ("client.welcome_decode_us", "us", "lower"),
        ("batch.submit_us", "us", "lower"),
        ("docstore.wal_append_us", "us", "lower"),
        ("docstore.wal_bytes_per_op", "bytes", "lower"),
        ("docstore.fsyncs_per_op", "count", "lower"),
        ("persist.recover_us", "us", "lower"),
        ("persist.checkpoint_us", "us", "lower"),
        ("persist.snapshot_bytes", "bytes", "lower"),
        // The reconciliation.
        ("ledger.attributed_us", "us", "lower"),
        ("ledger.unattributed_us", "us", "lower"),
        ("ledger.cpu_coverage_pct", "%", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ] {
        defs.push(def(name, unit, better, None));
    }
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_fit_the_benchmark_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let names: HashSet<&str> = all.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), all.len());
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        for d in &all {
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.bound.is_none_or(|b| b <= 0.25));
        }
        assert!(end_to_end()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
