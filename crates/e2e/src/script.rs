//! The seeded script: which workloads exist, what each block of one does,
//! and every value and think time it uses. The generator takes the seed
//! and nothing else — no clock, no address, no pid — so the product only
//! ever receives generated inputs and a run can be repeated exactly.

use crowdfill_model::{Column, DataType, QuorumMajority, Schema, Template};
use crowdfill_server::TaskConfig;
use std::sync::Arc;

/// Columns of the soccer-player schema; the key is `name` + `nationality`.
pub const COLUMNS: [&str; 5] = ["name", "nationality", "position", "caps", "goals"];
pub const WIDTH: usize = COLUMNS.len();

/// Think time before every timed operation: uniform over two periods of
/// the reactor's 500 µs idle sleep, so the arrival phase is uniform
/// against the server's sweep instead of locking to it.
pub const THINK_MAX_US: u32 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMem,
    PaperWal,
    BigTable,
    LateJoin,
}

/// The shape of one workload's block. Every field is a property of the
/// workload, fixed across seeds and commits.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Template rows of the collection.
    pub rows: usize,
    /// Rows completed through the `Backend` API during set-up.
    pub prefilled_rows: usize,
    /// Rows alice fills cell by cell and bob upvotes.
    pub filled_rows: usize,
    /// Late joins after bob left (each: join, upvote one row, leave).
    pub late_joins: usize,
    /// Join → upvote → observed fill → leave rounds.
    pub rounds: usize,
    /// Collection opened through `persist::open_or_recover`.
    pub journaled: bool,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperMem,
        Workload::PaperWal,
        Workload::BigTable,
        Workload::LateJoin,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::PaperMem => Spec {
                name: "paper_mem",
                why: "32-row in-memory tables: apply is a few percent of an ack, the connection layer (sweep sleeps, hand-offs, outbox) is the rest",
                rows: 32,
                prefilled_rows: 0,
                filled_rows: 32,
                late_joins: 8,
                rounds: 0,
                journaled: false,
            },
            Workload::PaperWal => Spec {
                name: "paper_wal",
                why: "the paper_mem script journaled with fsync Always and re-opened after each block: its difference to paper_mem is the journaling bill",
                journaled: true,
                ..Workload::PaperMem.spec()
            },
            Workload::BigTable => Spec {
                name: "big_table",
                why: "fresh 400-row table per block, 8 rows filled: apply and PRI matching own the ack and Backend::new owns set-up, the connection layer does little",
                rows: 400,
                prefilled_rows: 0,
                filled_rows: 8,
                late_joins: 8,
                rounds: 0,
                journaled: false,
            },
            Workload::LateJoin => Spec {
                name: "late_join",
                why: "128-row table prefilled to 7/8, then 16 join-vote-fill-leave rounds: history reads (welcome encode, decode, rebuild) beside writes",
                rows: 128,
                prefilled_rows: 112,
                filled_rows: 0,
                late_joins: 0,
                rounds: 16,
                journaled: false,
            },
        }
    }
}

impl Spec {
    /// Timed operations of one block — its worker actions (a row-completing
    /// fill is one action of two round trips) and its think-time count:
    /// alice's and bob's joins where bob exists, every fill, bob's vote on
    /// every filled row, join + vote per late joiner, and join + vote +
    /// fill per round.
    pub fn timed_ops(&self) -> usize {
        let opening_joins = if self.rounds > 0 { 1 } else { 2 };
        opening_joins
            + self.filled_rows * WIDTH
            + self.filled_rows
            + self.late_joins * 2
            + self.rounds * 3
    }

    pub fn schema(&self) -> Arc<Schema> {
        Arc::new(
            Schema::new(
                "SoccerPlayer",
                COLUMNS
                    .iter()
                    .map(|c| Column::new(*c, DataType::Text))
                    .collect(),
                &["name", "nationality"],
            )
            .expect("the soccer-player schema is valid"),
        )
    }

    /// The task as a CrowdFill user would launch it: paper scoring
    /// (`QuorumMajority::of_three`), a pure cardinality template, a budget
    /// of one unit per row, every other knob at its default.
    pub fn config(&self) -> TaskConfig {
        TaskConfig::new(
            self.schema(),
            Arc::new(QuorumMajority::of_three()),
            Template::cardinality(self.rows),
            self.rows as f64,
        )
    }
}

/// splitmix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..=max` (the modulo bias is below 2⁻⁵⁰ here).
    pub fn up_to(&mut self, max: u64) -> u64 {
        self.next_u64() % (max + 1)
    }
}

/// One row's five cell values, 6–18 bytes each. The first three bytes of
/// the two key columns encode `row`, so keys are unique within a block.
fn row_values(rng: &mut Rng, row: usize) -> [String; WIDTH] {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::array::from_fn(|col| {
        let len = 6 + rng.up_to(12) as usize;
        let mut s = String::with_capacity(len);
        if col < 2 {
            s.push_str(&format!("{row:03x}"));
        }
        while s.len() < len {
            s.push(ALPHABET[rng.up_to(ALPHABET.len() as u64 - 1) as usize] as char);
        }
        s
    })
}

/// Everything one block needs from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockScript {
    /// Values of the rows filled over the wire, in fill order (one entry
    /// per filled row; per round on `late_join`, which uses column 0 only).
    pub rows: Vec<[String; WIDTH]>,
    /// Think time before each timed operation, in order, in microseconds.
    pub think_us: Vec<u32>,
}

fn stream(seed: u64, workload: Workload, lane: u64) -> Rng {
    let mut mix = Rng::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
    let a = mix.next_u64();
    Rng::new(a ^ (workload as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407) ^ lane)
}

impl BlockScript {
    pub fn generate(workload: Workload, seed: u64, block: u64) -> BlockScript {
        let spec = workload.spec();
        let mut rng = stream(seed, workload, block.wrapping_mul(2) + 2);
        let n_rows = spec.filled_rows.max(spec.rounds);
        // Wire-filled rows are numbered after the prefilled ones so their
        // keys cannot collide with the prefill's.
        let rows = (0..n_rows)
            .map(|i| row_values(&mut rng, spec.prefilled_rows + i))
            .collect();
        let think_us = (0..spec.timed_ops())
            .map(|_| rng.up_to(THINK_MAX_US as u64) as u32)
            .collect();
        BlockScript { rows, think_us }
    }
}

/// Values of the rows completed during set-up (`late_join`). They depend
/// on the seed only, so the prefill is recorded once per run and replayed
/// into every block's fresh backend.
pub fn prefill_rows(workload: Workload, seed: u64) -> Vec<[String; WIDTH]> {
    let mut rng = stream(seed, workload, 1);
    (0..workload.spec().prefilled_rows)
        .map(|i| row_values(&mut rng, i))
        .collect()
}

/// FNV-1a over the prefill and the first `blocks` block scripts: the
/// fingerprint of the inputs the run header prints.
pub fn script_hash(workload: Workload, seed: u64, blocks: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for row in prefill_rows(workload, seed) {
        row.iter().for_each(|v| eat(v.as_bytes()));
    }
    for block in 0..blocks {
        let script = BlockScript::generate(workload, seed, block);
        for row in &script.rows {
            row.iter().for_each(|v| eat(v.as_bytes()));
        }
        script.think_us.iter().for_each(|t| eat(&t.to_le_bytes()));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        for w in Workload::ALL {
            for block in [0, 1, 17] {
                assert_eq!(
                    BlockScript::generate(w, 42, block),
                    BlockScript::generate(w, 42, block)
                );
            }
            assert_eq!(prefill_rows(w, 42), prefill_rows(w, 42));
            assert_eq!(script_hash(w, 42, 4), script_hash(w, 42, 4));
            assert_ne!(script_hash(w, 42, 4), script_hash(w, 43, 4));
            assert_ne!(
                BlockScript::generate(w, 42, 0),
                BlockScript::generate(w, 42, 1)
            );
        }
        assert_ne!(
            script_hash(Workload::PaperMem, 1, 2),
            script_hash(Workload::BigTable, 1, 2)
        );
    }

    #[test]
    fn values_are_6_to_18_bytes_with_unique_keys_and_bounded_think_time() {
        for w in Workload::ALL {
            let spec = w.spec();
            let script = BlockScript::generate(w, 7, 3);
            assert_eq!(script.think_us.len(), spec.timed_ops());
            assert!(script.think_us.iter().all(|&t| t <= THINK_MAX_US));
            let mut keys = HashSet::new();
            for row in prefill_rows(w, 7).iter().chain(&script.rows) {
                for v in row {
                    assert!((6..=18).contains(&v.len()), "{v:?}");
                }
                assert!(keys.insert((row[0].clone(), row[1].clone())));
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.spec().name), Some(w));
        }
        assert_eq!(Workload::parse("churn"), None);
    }
}
