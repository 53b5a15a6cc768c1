//! The one worker pool: [`run_ordered`] runs numbered jobs on scoped
//! threads and hands their results back in id order. The fleet engine
//! ([`crate::FleetSession`]) runs shards on it, and `run_all` runs whole
//! experiments on it. Determinism never depends on the pool: the caller
//! absorbs results in id order regardless of which worker ran what.

use std::any::Any;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Worker threads to use by default: the machine's available
/// parallelism, floored at 1.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pool state shared by the workers and the absorbing caller, behind
/// one mutex.
struct Pool<T, E> {
    /// The lowest id no worker has started.
    next: u32,
    /// The next id to absorb.
    frontier: u32,
    /// The lowest id whose run failed (`range.end` while none has):
    /// nothing at or above it can change the outcome, so it never starts.
    fail: u32,
    /// Finished runs the frontier has not reached, at most `window`.
    done: BTreeMap<u32, Result<T, E>>,
    /// A run panicked: its payload, for the caller to re-raise.
    panicked: Option<Box<dyn Any + Send>>,
    /// The caller has stopped absorbing: workers must exit.
    stop: bool,
}

/// Every update under the lock is a single store or map insert, so a
/// poisoned lock still guards a valid state.
fn lock<S>(m: &Mutex<S>) -> MutexGuard<'_, S> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `run(id)` for every id in `range` on up to `jobs` scoped threads
/// (clamped to `1..=range.len()`) and hands each result to
/// `absorb(id, result)` on the calling thread, in ascending id order.
///
/// A worker takes the lowest id not yet started, and only while it lies
/// below `frontier + window` (the frontier being the next id to absorb)
/// and below the lowest failure seen so far; otherwise it waits. So at
/// most `window` finished results (floored at 1) wait for absorption.
///
/// # Errors
///
/// The lowest failing id and its error, once every id below it has been
/// absorbed. Nothing at or above it is absorbed.
///
/// # Panics
///
/// A panic in `run` is re-raised on the calling thread once the pool
/// has stopped. A panic in `absorb` stops the pool before it propagates.
pub fn run_ordered<T, E, R, A>(
    jobs: usize,
    range: Range<u32>,
    window: u32,
    run: R,
    mut absorb: A,
) -> Result<(), (u32, E)>
where
    T: Send,
    E: Send,
    R: Fn(u32) -> Result<T, E> + Sync,
    A: FnMut(u32, T),
{
    if range.is_empty() {
        return Ok(());
    }
    let jobs = jobs.clamp(1, range.len());
    let window = u64::from(window.max(1));
    let pool = Mutex::new(Pool {
        next: range.start,
        frontier: range.start,
        fail: range.end,
        done: BTreeMap::new(),
        panicked: None,
        stop: false,
    });
    let cv = Condvar::new();
    let work = || {
        let mut p = lock(&pool);
        while !p.stop && p.next < p.fail {
            let k = p.next;
            if u64::from(k) >= u64::from(p.frontier) + window {
                p = cv.wait(p).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            p.next += 1;
            drop(p);
            // `run` only reads shared state, and a panicking run's
            // private state dies with it.
            let outcome = catch_unwind(AssertUnwindSafe(|| run(k)));
            p = lock(&pool);
            match outcome {
                Ok(r) => {
                    if r.is_err() {
                        p.fail = p.fail.min(k);
                    }
                    p.done.insert(k, r);
                }
                Err(payload) => {
                    // Its result will never arrive: stop the pool and
                    // let the caller re-raise.
                    p.panicked.get_or_insert(payload);
                    p.stop = true;
                }
            }
            cv.notify_all();
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(work);
        }
        let _stop = StopOnUnwind {
            pool: &pool,
            cv: &cv,
        };
        let mut p = lock(&pool);
        loop {
            if let Some(payload) = p.panicked.take() {
                drop(p);
                resume_unwind(payload);
            }
            let k = p.frontier;
            if k == range.end {
                return Ok(());
            }
            match p.done.remove(&k) {
                Some(Ok(r)) => {
                    p.frontier += 1;
                    cv.notify_all();
                    // Absorb unlocked so its cost never blocks a worker.
                    drop(p);
                    absorb(k, r);
                    p = lock(&pool);
                }
                Some(Err(e)) => {
                    p.stop = true;
                    cv.notify_all();
                    return Err((k, e));
                }
                None => p = cv.wait(p).unwrap_or_else(PoisonError::into_inner),
            }
        }
    })
}

/// Held by the caller across the absorb loop. If `absorb` panics, no one
/// would set `stop`: workers waiting on the window would stay parked,
/// and `std::thread::scope` waits for them before it lets the panic out.
/// Dropping this during the unwind stops them first.
struct StopOnUnwind<'a, T, E> {
    pool: &'a Mutex<Pool<T, E>>,
    cv: &'a Condvar,
}

impl<T, E> Drop for StopOnUnwind<'_, T, E> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(self.pool).stop = true;
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// What was absorbed, in order, and how the run ended.
    type Absorbed<T, E> = (Vec<(u32, T)>, Result<(), (u32, E)>);

    /// Runs `f` over `range` and returns what was absorbed.
    fn absorbed<T: Send, E: Send>(
        jobs: usize,
        range: Range<u32>,
        window: u32,
        f: impl Fn(u32) -> Result<T, E> + Sync,
    ) -> Absorbed<T, E> {
        let mut got = Vec::new();
        let outcome = run_ordered(jobs, range, window, f, |k, r| got.push((k, r)));
        (got, outcome)
    }

    #[test]
    fn results_come_back_in_input_order() {
        for jobs in [1, 2, 8] {
            let (got, outcome) = absorbed(jobs, 0..50, 8, |k| Ok::<_, Infallible>(k * 2));
            assert!(outcome.is_ok());
            assert_eq!(got, (0..50).map(|k| (k, k * 2)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn jobs_beyond_items_and_empty_input_are_fine() {
        let ok = |k| Ok::<_, Infallible>(k);
        assert_eq!(absorbed(16, 0..2, 4, ok).0, vec![(0, 0), (1, 1)]);
        assert!(absorbed(4, 3..3, 4, ok).0.is_empty());
        assert_eq!(absorbed(0, 7..8, 0, ok).0, vec![(7, 7)]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let (got, _) = absorbed(3, 0..100, 100, |k| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok::<_, Infallible>(k)
        });
        assert_eq!(got.len(), 100);
        assert_eq!(calls.load(Ordering::SeqCst), 100);
    }

    /// Waits, up to a bound that fails the test, until `flag` is set.
    fn wait_for(flag: &AtomicBool) {
        let t0 = Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(t0.elapsed() < Duration::from_secs(30), "never set");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Id 5 fails at once while id 2 is still running; id 2 then fails
    /// too. The reported failure is the lowest, 2, and only 0 and 1 are
    /// absorbed.
    #[test]
    fn the_lowest_failure_wins_over_an_earlier_higher_one() {
        let five_failed = AtomicBool::new(false);
        let (got, outcome) = absorbed(4, 0..8, 8, |k| match k {
            2 => {
                wait_for(&five_failed);
                Err("slow")
            }
            5 => {
                five_failed.store(true, Ordering::SeqCst);
                Err("fast")
            }
            _ => Ok(k),
        });
        assert_eq!(outcome, Err((2, "slow")));
        assert_eq!(got, vec![(0, 0), (1, 1)]);
    }

    /// A window of 1 admits only the frontier id: four workers run one
    /// job at a time, and results still come back in order.
    #[test]
    fn a_window_of_one_runs_one_at_a_time_in_order() {
        let (running, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let (got, outcome) = absorbed(4, 0..20, 1, |k| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            most.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(200));
            running.fetch_sub(1, Ordering::SeqCst);
            Ok::<_, Infallible>(k)
        });
        assert!(outcome.is_ok());
        assert_eq!(got, (0..20).map(|k| (k, k)).collect::<Vec<_>>());
        assert_eq!(most.load(Ordering::SeqCst), 1);
    }

    /// `run_all`'s shape: a window as wide as the item list. Each item
    /// finishes only after the one behind it, so they finish in reverse
    /// order and are still absorbed in input order.
    #[test]
    fn a_window_as_wide_as_the_items_keeps_their_order() {
        let items = ["a", "b", "c", "d", "e"];
        let n = items.len() as u32;
        let finished: Vec<AtomicBool> = items.iter().map(|_| AtomicBool::new(false)).collect();
        let order = Mutex::new(Vec::new());
        let (got, outcome) = absorbed(items.len(), 0..n, n, |k| {
            if let Some(behind) = finished.get(k as usize + 1) {
                wait_for(behind);
            }
            order.lock().unwrap().push(k);
            finished[k as usize].store(true, Ordering::SeqCst);
            Ok::<_, Infallible>(items[k as usize])
        });
        assert!(outcome.is_ok());
        assert_eq!(order.into_inner().unwrap(), [4, 3, 2, 1, 0]);
        assert_eq!(got.iter().map(|&(_, s)| s).collect::<Vec<_>>(), items);
    }
}
