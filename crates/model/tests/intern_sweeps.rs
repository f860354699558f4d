//! A counting gate on the intern pool's sweeps. A sweep walks the whole
//! process-global pool under its lock; one that frees nothing must not be
//! followed by another on the next new string, or a deployment holding more
//! live strings than the high-water mark pays a full walk per intern. Its
//! own test binary, because the pool is process-global: no other test
//! interns while it counts.

use crowdfill_model::IStr;

#[test]
fn a_sweep_that_frees_nothing_waits_for_the_pool_to_double() {
    let before = IStr::pool_sweeps();
    // 70,000 live strings: past the high-water mark (65,536), all held.
    let live: Vec<IStr> = (0..70_000)
        .map(|n| IStr::new(&format!("live {n}")))
        .collect();
    let filled = IStr::pool_sweeps();
    // 1,000 new strings on top, each a miss.
    let fresh: Vec<IStr> = (0..1_000)
        .map(|n| IStr::new(&format!("fresh {n}")))
        .collect();
    let after = IStr::pool_sweeps();
    assert!(
        after - filled <= 2,
        "1,000 new strings over 70,000 live ran {} sweeps",
        after - filled
    );
    assert!(
        after - before <= 2,
        "71,000 interns ran {} sweeps",
        after - before
    );
    assert_eq!(IStr::pool_len(), live.len() + fresh.len());
}
