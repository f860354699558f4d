//! Golden open-loop plans: a seed replays the same storm.
//!
//! Each case renders one plan canonically — per session, in worker order,
//! its collection, connect time and every fill's time and speculative
//! flag, then the scenario events (stalled readers, herd disconnect) — and
//! pins an FNV-1a hash of the text with the session and fill counts. The
//! scenario shapes are the ones the overload and connection-scale gates
//! run, at two seeds each.

use crowdfill_sim::openloop::{self, Plan};
use std::fmt::Write;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// `(hash, sessions, fills)` of one plan's canonical rendering.
fn render(plan: Plan) -> (u64, usize, usize) {
    let mut text = String::new();
    let mut sessions = plan.sessions.clone();
    sessions.sort_by_key(|s| s.worker);
    for s in &sessions {
        let _ = write!(
            text,
            "w{} c{} @{}:",
            s.worker, s.collection, s.connect_at_ms
        );
        for fill in &s.fills {
            let spec = if fill.speculative { "s" } else { "" };
            let _ = write!(text, " {}{spec}", fill.at_ms);
        }
        text.push('\n');
    }
    let (stalled, herd) = (plan.stalled_readers, plan.herd_disconnect_at_ms);
    let _ = writeln!(text, "stalled {stalled} herd {herd:?}");
    (fnv1a(text.as_bytes()), sessions.len(), plan.total_fills())
}

fn plan(scenario: &str, seed: u64) -> (u64, usize, usize) {
    render(match scenario {
        "burst" => openloop::burst(seed, 32, 3, 10, 300),
        "ramp" => openloop::ramp(seed, 16, 96, 400),
        "stalled-reader" => openloop::stalled_reader(seed, 8, 8, 400, 2),
        "thundering-herd" => openloop::thundering_herd(seed, 12, 5, 400, 150),
        "conn-scale" => openloop::conn_scale(seed, 16, 1_000, 2, 2_000, 4_000),
        other => panic!("unknown scenario {other}"),
    })
}

#[test]
fn plans_are_golden() {
    for (scenario, seed, golden) in GOLDEN {
        let got = plan(scenario, seed);
        assert_eq!(got, golden, "{scenario} seed {seed}: computed {got:?}");
    }
}

/// `(scenario, seed, (hash, sessions, fills))` per case.
const GOLDEN: [(&str, u64, (u64, usize, usize)); 10] = [
    ("burst", 11, (11_178_686_905_687_240_275, 32, 96)),
    ("burst", 47, (6_579_660_391_725_066_127, 32, 96)),
    ("ramp", 11, (171_518_092_729_373_634, 16, 96)),
    ("ramp", 47, (472_213_899_950_815_025, 16, 96)),
    ("stalled-reader", 11, (2_255_323_205_207_396_256, 8, 64)),
    ("stalled-reader", 47, (15_915_477_336_583_203_658, 8, 64)),
    ("thundering-herd", 11, (10_594_611_953_971_064_132, 12, 60)),
    ("thundering-herd", 47, (6_932_809_008_718_674_847, 12, 60)),
    ("conn-scale", 1009, (15_804_465_765_044_708_986, 1000, 2000)),
    ("conn-scale", 2003, (12_382_486_596_062_513_493, 1000, 2000)),
];
