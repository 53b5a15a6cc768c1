//! Wall-clock phase attribution.
//!
//! The profiler answers "where does *real* time go" — as opposed to
//! bh-trace, which records *virtual*-time events. Scopes are RAII
//! guards ([`PhaseGuard::enter`]) on a thread-local stack; a scope's
//! self time is its elapsed time minus that of the scopes nested inside
//! it, so the self times in a thread's table sum to exactly the elapsed
//! time of its outermost scopes — never more than the wall clock.
//!
//! Every armed scope reads the OS clock twice (~40ns). A simulated op
//! costs 150–400ns, so scopes belong around coarse work only — a fill,
//! a drain, a reclaim pass, a flush, a compaction, a report merge —
//! never around something that happens once per op. Per-op, per-layer
//! attribution is blockhead-bench's traced ledger (`benchmark/`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Process-wide profiler switch. Relaxed ordering is fine: the flag is
/// flipped between runs, never mid-measurement, and a racy read on a
/// worker thread only delays when its first scope arms.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns wall-clock phase profiling on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether phase profiling is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct Frame {
    name: &'static str,
    start: Instant,
    /// Nanoseconds spent in already-closed child scopes, excluded from
    /// this frame's self time.
    child_nanos: u64,
}

#[derive(Default)]
struct ThreadProf {
    stack: Vec<Frame>,
    table: Vec<PhaseStat>,
}

/// Adds to `name`'s row, appending it if new. A linear scan: the phase
/// vocabulary is tiny.
fn record(rows: &mut Vec<PhaseStat>, name: &'static str, calls: u64, self_nanos: u64) {
    if let Some(row) = rows.iter_mut().find(|r| r.name == name) {
        row.calls += calls;
        row.self_nanos += self_nanos;
    } else {
        rows.push(PhaseStat {
            name,
            calls,
            self_nanos,
        });
    }
}

thread_local! {
    static PROF: RefCell<ThreadProf> = RefCell::new(ThreadProf::default());
}

/// An RAII phase scope: measures from [`PhaseGuard::enter`] until it is
/// dropped.
///
/// ```
/// bh_obs::profiler::set_enabled(true);
/// {
///     let _p = bh_obs::PhaseGuard::enter("gc_scan");
///     // ... work attributed to "gc_scan" ...
/// }
/// let report = bh_obs::profiler::take();
/// assert_eq!(report.entries[0].name, "gc_scan");
/// bh_obs::profiler::set_enabled(false);
/// ```
#[must_use = "a phase guard measures until it is dropped"]
#[derive(Debug)]
pub struct PhaseGuard {
    armed: bool,
}

impl PhaseGuard {
    /// Enters a scope named `name` on this thread. Disarmed (one atomic
    /// load, no clock read) while profiling is off.
    pub fn enter(name: &'static str) -> Self {
        if !enabled() {
            return PhaseGuard { armed: false };
        }
        PROF.with(|p| {
            p.borrow_mut().stack.push(Frame {
                name,
                start: Instant::now(),
                child_nanos: 0,
            });
        });
        PhaseGuard { armed: true }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Clock first: everything below (thread-local access, borrow,
        // pop, table update) is bookkeeping that must not count toward
        // the span.
        let end = Instant::now();
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            let frame = match p.stack.pop() {
                Some(f) => f,
                None => return,
            };
            let elapsed = end.duration_since(frame.start).as_nanos() as u64;
            if let Some(parent) = p.stack.last_mut() {
                parent.child_nanos += elapsed;
            }
            let self_nanos = elapsed.saturating_sub(frame.child_nanos);
            record(&mut p.table, frame.name, 1, self_nanos);
        });
    }
}

/// One phase's accumulated attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name as given to [`PhaseGuard::enter`].
    pub name: &'static str,
    /// Scope entries.
    pub calls: u64,
    /// Self wall-clock nanoseconds (children excluded).
    pub self_nanos: u64,
}

/// A drained per-phase table, sorted hottest-first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Per-phase rows, descending by self time.
    pub entries: Vec<PhaseStat>,
}

impl PhaseReport {
    /// Sum of self time over all phases.
    pub fn total_nanos(&self) -> u64 {
        self.entries.iter().map(|e| e.self_nanos).sum()
    }

    /// Folds another report's rows into this one and re-sorts.
    pub fn merge(&mut self, other: &PhaseReport) {
        for e in &other.entries {
            record(&mut self.entries, e.name, e.calls, e.self_nanos);
        }
        self.sort();
    }

    fn sort(&mut self) {
        self.entries
            .sort_by(|a, b| b.self_nanos.cmp(&a.self_nanos).then(a.name.cmp(b.name)));
    }
}

/// Drains this thread's phase table into a sorted report. Open scopes
/// are unaffected; they will land in the next drain.
pub fn take() -> PhaseReport {
    let mut report = PhaseReport {
        entries: PROF.with(|p| std::mem::take(&mut p.borrow_mut().table)),
    };
    report.sort();
    report
}

/// Folds a report (e.g. one shipped back from a fleet worker thread)
/// into this thread's live table, so a later [`take`] sees it.
pub fn absorb(report: &PhaseReport) {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        for e in &report.entries {
            record(&mut p.table, e.name, e.calls, e.self_nanos);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    /// The profiler switch is process-global, and `cargo test` runs
    /// tests on multiple threads; serialize the tests that toggle it.
    fn with_profiler<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        let _ = take();
        r
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        with_profiler(|| {
            set_enabled(false);
            drop(PhaseGuard::enter("ghost"));
            assert!(take().entries.is_empty());
        });
    }

    #[test]
    fn nested_scopes_self_exclude() {
        with_profiler(|| {
            {
                let _outer = PhaseGuard::enter("outer");
                spin(2_000_000);
                {
                    let _inner = PhaseGuard::enter("inner");
                    spin(8_000_000);
                }
            }
            let report = take();
            let get = |n: &str| {
                report
                    .entries
                    .iter()
                    .find(|e| e.name == n)
                    .map(|e| e.self_nanos)
                    .unwrap()
            };
            // Inner spun 4x longer than outer's own work; with
            // self-exclusion the inner row must dominate the outer row.
            assert!(get("inner") > get("outer"));
            assert!(get("outer") >= 1_000_000);
        });
    }

    fn xorshift(rng: &mut u64) -> u64 {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    }

    /// One scope at `depth` with a random number of children (none past
    /// depth 3, so at most 4 scopes are open at once), spinning before
    /// and after them.
    fn nest(rng: &mut u64, depth: usize) {
        let _p = PhaseGuard::enter(["d0", "d1", "d2", "d3"][depth]);
        spin(20_000 + xorshift(rng) % 60_000);
        let children = if depth < 3 { xorshift(rng) % 4 } else { 0 };
        for _ in 0..children {
            nest(rng, depth + 1);
        }
        spin(xorshift(rng) % 40_000);
    }

    #[test]
    fn random_nestings_sum_to_the_outermost_elapsed() {
        with_profiler(|| {
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            for case in 0..24 {
                let start = Instant::now();
                nest(&mut rng, 0);
                let outer = start.elapsed().as_nanos() as u64;
                let total = take().total_nanos();
                assert!(total <= outer, "case {case}: Σ self {total} > {outer}");
                assert!(
                    total * 100 >= outer * 95,
                    "case {case}: Σ self {total} < 95% of {outer}"
                );
            }
        });
    }

    #[test]
    fn reports_merge_and_absorb() {
        with_profiler(|| {
            drop(PhaseGuard::enter("a"));
            let first = take();
            absorb(&first);
            drop(PhaseGuard::enter("a"));
            let mut merged = take();
            assert_eq!(merged.entries[0].calls, 2);
            let mut other = PhaseReport::default();
            other.entries.push(PhaseStat {
                name: "b",
                calls: 5,
                self_nanos: u64::MAX / 2,
            });
            merged.merge(&other);
            assert_eq!(merged.entries[0].name, "b");
            assert_eq!(merged.entries[1].calls, 2);
        });
    }
}
