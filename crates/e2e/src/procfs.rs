//! What the benchmark reads from the operating system: hypervisor steal,
//! process CPU time, per-thread scheduler statistics, and the machine
//! fingerprint of the run header. Every reader returns `None` (or an empty
//! list) where the platform has no such file, and the callers degrade:
//! no steal → all blocks kept, no schedstat → an all-zero ledger.

use crate::stats::{thread_group, THREAD_GROUPS};
use std::collections::HashMap;
use std::path::Path;

/// Cumulative hypervisor steal of all CPUs, in `USER_HZ` ticks (10 ms):
/// the eighth counter of the `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_steal(&stat)
}

fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// CPU time consumed by every thread of this process so far, in
/// nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`). Unlike a sum over
/// `/proc/self/task`, it keeps the time of threads that already exited.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the cfg above pins), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> Option<u64> {
    None
}

/// A fixed piece of benchmark-owned work, timed in microseconds: build a
/// few hundred small keyed records, print them as text, scan the text
/// back, and index the records in a hash map and an ordered map — the
/// allocation-, hashing- and copying-heavy mix the product itself runs.
/// It calls no product code, so no change to the product can move it:
/// what moves it is the machine (frequency, a busy sibling hyperthread, a
/// neighbour's cache pressure), none of which `steal` shows.
pub fn speed_probe() -> f64 {
    use std::collections::{BTreeMap, HashMap};
    use std::fmt::Write;
    let start = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let records: Vec<Vec<(u16, String)>> = (0..400)
        .map(|_| {
            (0..5u16)
                .map(|col| (col, format!("{:x}", next() >> (next() % 24))))
                .collect()
        })
        .collect();
    let mut text = String::new();
    for record in &records {
        text.push('[');
        for (col, value) in record {
            let _ = write!(text, "[{col},\"{value}\"],");
        }
        text.push_str("]\n");
    }
    let mut by_hash: HashMap<String, Vec<(u16, String)>> = HashMap::new();
    let mut by_order: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, (line, record)) in text.lines().zip(&records).enumerate() {
        let quotes = line.bytes().filter(|b| *b == b'"').count();
        by_hash.insert(format!("{}:{quotes}", record[0].1), record.clone());
        by_order.insert(line, i);
    }
    std::hint::black_box((by_hash.len(), by_order.len()));
    start.elapsed().as_nanos() as f64 / 1e3
}

/// Per-group CPU time and run-queue wait, in nanoseconds, indexed like
/// [`THREAD_GROUPS`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupBill {
    pub cpu_ns: [u64; THREAD_GROUPS.len()],
    pub runq_wait_ns: [u64; THREAD_GROUPS.len()],
}

impl GroupBill {
    pub fn add(&mut self, other: &GroupBill) {
        for i in 0..THREAD_GROUPS.len() {
            self.cpu_ns[i] += other.cpu_ns[i];
            self.runq_wait_ns[i] += other.runq_wait_ns[i];
        }
    }
}

/// The thread ledger: `/proc/self/task/*/schedstat` deltas grouped by
/// thread name. [`begin`](Self::begin) sets the baseline; every
/// [`sample`](Self::sample) bills what each thread ran and waited since it
/// was last seen. A thread that exits between two samples takes its last
/// slice with it, so the driver samples before every disconnect.
#[derive(Default)]
pub struct ThreadLedger {
    last: HashMap<u64, (u64, u64)>,
    bill: GroupBill,
}

impl ThreadLedger {
    pub fn begin(&mut self) {
        self.last = read_threads()
            .into_iter()
            .map(|t| (t.tid, (t.run_ns, t.wait_ns)))
            .collect();
        self.bill = GroupBill::default();
    }

    pub fn sample(&mut self) {
        for t in read_threads() {
            let (run0, wait0) = self.last.get(&t.tid).copied().unwrap_or((0, 0));
            let g = THREAD_GROUPS
                .iter()
                .position(|&g| g == thread_group(&t.comm))
                .expect("thread_group returns a listed group");
            self.bill.cpu_ns[g] += t.run_ns.saturating_sub(run0);
            self.bill.runq_wait_ns[g] += t.wait_ns.saturating_sub(wait0);
            self.last.insert(t.tid, (t.run_ns, t.wait_ns));
        }
    }

    pub fn bill(&self) -> GroupBill {
        self.bill
    }
}

struct ThreadStat {
    tid: u64,
    comm: String,
    run_ns: u64,
    wait_ns: u64,
}

fn read_threads() -> Vec<ThreadStat> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|entry| {
            let tid = entry.file_name().to_str()?.parse().ok()?;
            // A thread may exit between the directory read and these two.
            let comm = std::fs::read_to_string(entry.path().join("comm")).ok()?;
            let sched = std::fs::read_to_string(entry.path().join("schedstat")).ok()?;
            let mut fields = sched.split_ascii_whitespace();
            Some(ThreadStat {
                tid,
                comm,
                run_ns: fields.next()?.parse().ok()?,
                wait_ns: fields.next()?.parse().ok()?,
            })
        })
        .collect()
}

/// The filesystem type `path` lives on (longest matching mount point of
/// `/proc/mounts`), e.g. `tmpfs` or `ext4`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_ascii_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// First `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_counter_of_the_cpu_line() {
        let stat = "cpu  1370685 0 211800 4223083 46089 0 42059 69750 0 0\n\
                    cpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(69750));
        assert_eq!(parse_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_steal("intr 5\n"), None);
    }

    #[test]
    fn ledger_bills_this_thread_somewhere() {
        let mut ledger = ThreadLedger::default();
        ledger.begin();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        ledger.sample();
        if Path::new("/proc/self/task").exists() {
            assert!(ledger.bill().cpu_ns.iter().sum::<u64>() > 0);
        }
    }
}
