//! Global string interning for cell values.
//!
//! Crowd tables hold a bounded set of distinct text values (names, enum-like
//! categories) that are copied constantly on the apply hot path: every fill
//! message, vote-history key, broadcast fan-out, and WAL frame used to deep-
//! copy its strings. [`IStr`] makes every one of those copies a refcount bump
//! by storing each distinct string exactly once in a process-global pool.
//!
//! Semantics are **content-based**: `Eq`/`Ord`/`Hash` compare the text, never
//! the pointer, so interning is invisible to vote resolution, subsumption,
//! and final-table tie-breaks. Pointer equality is used only as a fast path
//! (two interned strings with the same content are normally the same
//! allocation, so `==` is usually a pointer compare).
//!
//! The pool holds strong references; to keep a long-running server bounded it
//! sweeps unreferenced entries (strong count 1, i.e. only the pool itself)
//! whenever it grows past a high-water mark: twice what the last sweep
//! left, and never below `SWEEP_HIGH_WATER`. A sweep is O(pool), and the
//! next one waits until the pool has doubled, so a sweep costs O(1) per
//! intern amortised, however many strings stay live. See DESIGN.md §12 for
//! the lifetime rules.
//!
//! A decoder that interns many cells at once holds the pool for a batch
//! through an [`Interner`]: one lock per row value, not one per cell.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The least pool size at which a miss sweeps the pool for dead entries.
const SWEEP_HIGH_WATER: usize = 1 << 16;

/// The distinct strings, and when to sweep them next.
struct Pool {
    strings: HashSet<Arc<str>>,
    /// The size at which the next miss sweeps.
    sweep_at: usize,
    /// Sweeps run since the process started.
    sweeps: u64,
}

fn pool() -> &'static Mutex<Pool> {
    static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        Mutex::new(Pool {
            strings: HashSet::new(),
            sweep_at: SWEEP_HIGH_WATER,
            sweeps: 0,
        })
    })
}

/// The pool, held: interns any number of strings under one lock. Hold it
/// for one row value's cells, never for a whole table — the pool is
/// process-global, and every other thread that interns waits while it is
/// held. Interning through [`IStr::new`] while holding one deadlocks.
pub struct Interner(MutexGuard<'static, Pool>);

impl Interner {
    /// Locks the pool.
    pub fn lock() -> Interner {
        Interner(pool().lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Interns `s`, returning the canonical shared allocation: what
    /// [`IStr::new`] returns, and the same sweep when the pool is past its
    /// high-water mark.
    pub fn intern(&mut self, s: &str) -> IStr {
        let pool = &mut *self.0;
        if let Some(existing) = pool.strings.get(s) {
            return IStr(Arc::clone(existing));
        }
        if pool.strings.len() >= pool.sweep_at {
            pool.strings.retain(|a| Arc::strong_count(a) > 1);
            pool.sweep_at = SWEEP_HIGH_WATER.max(2 * pool.strings.len());
            pool.sweeps += 1;
        }
        let arc: Arc<str> = Arc::from(s);
        pool.strings.insert(Arc::clone(&arc));
        IStr(arc)
    }
}

/// An interned, immutable UTF-8 string. Cloning is a refcount bump; equality
/// is by content with a pointer fast path.
#[derive(Clone)]
pub struct IStr(Arc<str>);

impl IStr {
    /// Interns `s`, returning the canonical shared allocation.
    pub fn new(s: &str) -> IStr {
        Interner::lock().intern(s)
    }

    /// The string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Number of distinct strings currently held by the global pool
    /// (diagnostics / tests).
    pub fn pool_len() -> usize {
        Interner::lock().0.strings.len()
    }

    /// Number of sweeps the global pool has run (diagnostics / tests).
    pub fn pool_sweeps() -> u64 {
        Interner::lock().0.sweeps
    }

    /// Whether two handles share one allocation. Handles with equal content
    /// always do once both came through the interner (modulo a sweep
    /// between the two interns).
    pub fn ptr_eq(a: &IStr, b: &IStr) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl PartialEq for IStr {
    fn eq(&self, other: &Self) -> bool {
        // Interned equals are normally pointer-equal; fall back to content so
        // equality survives pool sweeps and cross-pool strings.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for IStr {}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for IStr {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl std::hash::Hash for IStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must match `str`'s hash so `Borrow<str>`-style lookups agree.
        self.0.hash(state);
    }
}

impl std::ops::Deref for IStr {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> IStr {
        IStr::new(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> IStr {
        IStr::new(&s)
    }
}

impl From<&String> for IStr {
    fn from(s: &String) -> IStr {
        IStr::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn equal_content_shares_storage() {
        let a = IStr::new("Messi");
        let b = IStr::new("Messi");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn ordering_and_hash_are_content_based() {
        let a = IStr::new("aa");
        let b = IStr::new("ab");
        assert!(a < b);
        let h = |s: &IStr| {
            let mut d = DefaultHasher::new();
            s.hash(&mut d);
            d.finish()
        };
        // IStr must hash exactly like the underlying str.
        let h_str = {
            let mut d = DefaultHasher::new();
            "aa".hash(&mut d);
            d.finish()
        };
        assert_eq!(h(&a), h_str);
    }

    #[test]
    fn an_interner_shares_storage_with_new_and_sweeps_as_it_does() {
        let mut pool = Interner::lock();
        let (a, b) = (pool.intern("Pele"), pool.intern("Pele"));
        drop(pool);
        assert!(IStr::ptr_eq(&a, &b));
        assert!(IStr::ptr_eq(&a, &IStr::new("Pele")));

        // Held throughout, so no other test's interns land in between.
        let mut pool = Interner::lock();
        let kept = pool.intern("sweep: kept");
        drop(pool.intern("sweep: dropped"));
        let mut n = 0;
        while pool.0.strings.len() < SWEEP_HIGH_WATER {
            drop(pool.intern(&format!("sweep: filler {n}")));
            n += 1;
        }
        fn strings(pool: &Interner) -> &HashSet<Arc<str>> {
            &pool.0.strings
        }
        assert!(
            strings(&pool).contains("sweep: dropped"),
            "no sweep below the mark"
        );
        let fresh = pool.intern("sweep: fresh");
        assert!(
            !strings(&pool).contains("sweep: dropped"),
            "strong count 1 is swept"
        );
        assert!(!strings(&pool).contains("sweep: filler 0"));
        assert!(strings(&pool).len() < SWEEP_HIGH_WATER);
        assert!(IStr::ptr_eq(&kept, &pool.intern("sweep: kept")));
        assert!(IStr::ptr_eq(&fresh, &pool.intern("sweep: fresh")));
    }

    #[test]
    fn clone_is_same_allocation() {
        let a = IStr::new("shared");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }
}
