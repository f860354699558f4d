//! The three pure decisions the numbers rest on: how a quantile is taken,
//! which blocks count, and which thread bills which layer.

/// The `q`-quantile (`0.0..=1.0`) of `values`, linearly interpolated
/// between the two closest ranks (the "type 7" definition, the default of
/// R and numpy). `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; 0 for an empty sample, so a metric whose class
/// never ran prints 0 with sample count 0 instead of vanishing.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The indexes of the blocks metrics are computed over: those whose
/// hypervisor steal is at most the median block steal of the run.
///
/// The selection looks at the disturbance only — it is never shown a
/// latency — so it cannot prefer a fast block. When steal could not be
/// read for some block, or no block saw any, every block is kept.
pub fn clean_blocks(steal_ticks: &[Option<u64>]) -> Vec<usize> {
    let all = || (0..steal_ticks.len()).collect();
    let Some(known) = steal_ticks.iter().copied().collect::<Option<Vec<u64>>>() else {
        return all();
    };
    if known.iter().all(|&s| s == 0) {
        return all();
    }
    let as_f64: Vec<f64> = known.iter().map(|&s| s as f64).collect();
    let cut = median(&as_f64);
    (0..known.len())
        .filter(|&i| known[i] as f64 <= cut)
        .collect()
}

/// The thread-ledger groups, in print order. `other` catches every name
/// no rule matches, so a renamed thread shows up there instead of
/// vanishing from the bill.
pub const THREAD_GROUPS: [&str; 7] = [
    "reactor",
    "batch",
    "accept",
    "sweeps",
    "client_io",
    "driver",
    "other",
];

/// Maps a thread name as `/proc/self/task/*/comm` prints it (cut to 15
/// bytes by the kernel) to its ledger group.
pub fn thread_group(comm: &str) -> &'static str {
    const RULES: [(&str, &str); 9] = [
        ("crowdfill-shard", "reactor"),
        ("crowdfill-batch", "batch"),
        ("crowdfill-accep", "accept"),
        ("crowdfill-evict", "sweeps"),
        ("crowdfill-durab", "sweeps"),
        ("crowdfill-progr", "sweeps"),
        ("obs-sampler", "sweeps"),
        ("crowdfill-net-r", "client_io"),
        ("e2e", "driver"),
    ];
    let comm = comm.trim_end();
    RULES
        .iter()
        .find(|(prefix, _)| comm.starts_with(prefix))
        .map_or("other", |(_, group)| group)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 0.5), Some(25.0));
        assert_eq!(quantile(&v, 1.0), Some(40.0));
        assert_eq!(quantile(&v, 0.9), Some(37.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn clean_blocks_keeps_the_quiet_half() {
        let steal = [Some(0), Some(9), Some(1), Some(0), Some(4), Some(2)];
        // median of {0,0,1,2,4,9} is 1.5: blocks with 0, 1, 0 ticks stay.
        assert_eq!(clean_blocks(&steal), vec![0, 2, 3]);
        // Ties at the median all stay.
        assert_eq!(
            clean_blocks(&[Some(1), Some(1), Some(1), Some(5)]),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn clean_blocks_keeps_everything_without_a_signal() {
        assert_eq!(clean_blocks(&[Some(0), Some(0), Some(0)]), vec![0, 1, 2]);
        assert_eq!(clean_blocks(&[Some(3), None, Some(0)]), vec![0, 1, 2]);
        assert_eq!(clean_blocks(&[None, None]), vec![0, 1]);
        assert!(clean_blocks(&[]).is_empty());
    }

    #[test]
    fn thread_names_map_to_ledger_groups() {
        for (comm, group) in [
            ("crowdfill-shard", "reactor"),
            ("crowdfill-batch", "batch"),
            ("crowdfill-accep", "accept"),
            ("crowdfill-evict", "sweeps"),
            ("crowdfill-progr", "sweeps"),
            ("crowdfill-durab", "sweeps"),
            ("obs-sampler\n", "sweeps"),
            ("crowdfill-net-r", "client_io"),
            ("e2e", "driver"),
            ("crowdfill-conn", "other"),
            ("tokio-worker", "other"),
            ("", "other"),
        ] {
            assert_eq!(thread_group(comm), group, "{comm:?}");
        }
        for group in [
            "reactor",
            "batch",
            "accept",
            "sweeps",
            "client_io",
            "driver",
        ] {
            assert!(THREAD_GROUPS.contains(&group));
        }
    }
}
