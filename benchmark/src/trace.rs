//! The benchmark's own span ledger.
//!
//! The traced pass wraps the simulator's public trait seams with
//! delegating recorders (see [`crate::recorders`]); each call through a
//! seam is one span — (name, start, end, parent). A run crosses a seam
//! tens of millions of times, so spans are not kept one record each:
//! they are aggregated in memory per name into a call count, a total
//! time, a *self* time (the span minus the part its children cover) and
//! a log-bucketed histogram of per-call self time, and the table is
//! written out with the result at the end of the run.
//!
//! Reading the clock is not free. [`Ledger::calibrate`] measures, at
//! start-up, what an empty span costs: the part that lands inside the
//! span's own interval (`inner`) and the part that lands in its parent
//! (`outer`). Both are subtracted as each span is recorded, so self
//! times are the layer's, not the timer's.
//!
//! Nothing here uses `bh_obs::phase!` or `bh_trace::Tracer`: tracing
//! from inside the program is a later issue. This ledger lives in the
//! benchmark so that a change claiming a gain cannot move it.

use bh_json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// Every span the recorders and workloads can open. The name is what
/// the span table and README call it; `Round` is the root the harness
/// opens around each timed segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    Round,
    RunnerRun,
    NextOp,
    StackRead,
    StackWrite,
    StackTrim,
    StackMaintenance,
    StackPowerCycle,
    ZonedOpen,
    ZonedClose,
    ZonedFinish,
    ZonedReset,
    ZonedWrite,
    ZonedAppend,
    ZonedRead,
    ZonedSimpleCopy,
    ZonedPowerCycle,
    ConvWrite,
    KvPut,
    KvGet,
    BackendCreate,
    BackendAppend,
    BackendSync,
    BackendRead,
    BackendDelete,
    BackendMaintenance,
    FleetRun,
    /// Test-only leaf used by the calibration loop and the unit tests.
    Probe,
}

const SPAN_COUNT: usize = Span::Probe as usize + 1;

const SPAN_NAMES: [&str; SPAN_COUNT] = [
    "bench.round",
    "runner.run",
    "source.next_op",
    "stack.read",
    "stack.write",
    "stack.trim",
    "stack.maintenance",
    "stack.power_cycle",
    "zoned.open",
    "zoned.close",
    "zoned.finish",
    "zoned.reset",
    "zoned.write",
    "zoned.append",
    "zoned.read",
    "zoned.simple_copy",
    "zoned.power_cycle",
    "conv.write",
    "kv.put",
    "kv.get",
    "backend.create",
    "backend.append",
    "backend.sync",
    "backend.read",
    "backend.delete",
    "backend.maintenance",
    "fleet.run",
    "bench.probe",
];

impl Span {
    pub fn name(self) -> &'static str {
        SPAN_NAMES[self as usize]
    }
}

/// Sub-buckets per power of two: ~6% value resolution.
const SUB_BUCKETS: usize = 16;
const HIST_BUCKETS: usize = 64 * SUB_BUCKETS;

fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (exp - 4)) & (SUB_BUCKETS as u64 - 1)) as usize;
    (exp - 3) * SUB_BUCKETS + sub
}

/// Inclusive upper edge of a bucket's value range.
fn bucket_top(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let exp = index / SUB_BUCKETS + 3;
    let sub = (index % SUB_BUCKETS) as u64;
    let base = 1u64 << exp;
    let step = base / SUB_BUCKETS as u64;
    (base + (sub + 1) * step).saturating_sub(1)
}

/// Aggregate of every closed span of one name.
#[derive(Clone)]
pub struct SpanStats {
    pub count: u64,
    /// Σ (end − start), timer cost removed.
    pub total_ns: f64,
    /// Σ (end − start − child cover), timer cost removed.
    pub self_ns: f64,
    /// Name of the span that was open when this one started (`None` at
    /// the root). A name seen under two parents keeps the first.
    pub parent: Option<Span>,
    self_hist: Vec<u64>,
}

impl SpanStats {
    fn new() -> Self {
        SpanStats {
            count: 0,
            total_ns: 0.0,
            self_ns: 0.0,
            parent: None,
            self_hist: Vec::new(),
        }
    }

    /// Per-call self time at quantile `q`, to bucket resolution.
    pub fn self_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.self_hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_top(i);
            }
        }
        bucket_top(HIST_BUCKETS - 1)
    }

    pub fn mean_total_ns(&self) -> f64 {
        ratio(self.total_ns, self.count as f64)
    }

    pub fn mean_self_ns(&self) -> f64 {
        ratio(self.self_ns, self.count as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

struct Frame {
    span: Span,
    start: Instant,
    /// Raw time covered by closed children.
    child_ns: u64,
    children: u64,
    /// Closed spans anywhere below this one.
    descendants: u64,
}

/// What an empty span costs, measured once at start-up. Fractional:
/// a nanosecond of rounding times 10⁸ spans is a tenth of a second.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerCost {
    /// Part of the cost inside the span's own interval.
    pub inner_ns: f64,
    /// Part of the cost that lands in the parent's interval.
    pub outer_ns: f64,
}

pub struct Ledger {
    stack: Vec<Frame>,
    stats: Vec<SpanStats>,
    cost: TimerCost,
    /// Raw (uncorrected) time under root spans.
    root_raw_ns: u64,
    /// Spans closed, roots included.
    closed: u64,
    /// Time of write spans across which the flash erase count advanced
    /// — garbage collection as seen from outside a conventional device.
    pub gc_write_ns: f64,
}

impl Ledger {
    pub fn new(cost: TimerCost) -> Self {
        Ledger {
            stack: Vec::with_capacity(8),
            stats: vec![SpanStats::new(); SPAN_COUNT],
            cost,
            root_raw_ns: 0,
            closed: 0,
            gc_write_ns: 0.0,
        }
    }

    pub fn enter(&mut self, span: Span) {
        self.stack.push(Frame {
            span,
            start: Instant::now(),
            child_ns: 0,
            children: 0,
            descendants: 0,
        });
    }

    /// Closes the innermost span and returns its corrected duration.
    pub fn exit(&mut self) -> f64 {
        let end = Instant::now();
        let start = self.stack.last().expect("span exit without enter").start;
        self.exit_after(end.duration_since(start).as_nanos() as u64)
    }

    /// Closes the innermost span as if `raw_ns` had passed since it was
    /// opened. Split from [`Ledger::exit`] so the arithmetic can be
    /// tested on synthetic trees with exact times.
    fn exit_after(&mut self, raw_ns: u64) -> f64 {
        let frame = self.stack.pop().expect("span exit without enter");
        let span = frame.span;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += raw_ns;
            p.children += 1;
            p.descendants += frame.descendants + 1;
            p.span
        });
        if parent.is_none() {
            self.root_raw_ns += raw_ns;
        }
        self.closed += 1;
        let TimerCost { inner_ns, outer_ns } = self.cost;
        // The raw interval holds this span's own `inner` and a whole
        // pair for everything below it. Of those, `child_ns` (raw too)
        // already covers all but the direct children's `outer`.
        let total =
            (raw_ns as f64 - inner_ns - frame.descendants as f64 * (inner_ns + outer_ns)).max(0.0);
        let self_ns = (raw_ns.saturating_sub(frame.child_ns) as f64
            - inner_ns
            - frame.children as f64 * outer_ns)
            .max(0.0);
        let s = &mut self.stats[span as usize];
        if s.count == 0 {
            s.parent = parent;
            s.self_hist = vec![0; HIST_BUCKETS];
        }
        s.count += 1;
        s.total_ns += total;
        s.self_ns += self_ns;
        s.self_hist[bucket_of(self_ns.round() as u64)] += 1;
        total
    }

    pub fn get(&self, span: Span) -> &SpanStats {
        &self.stats[span as usize]
    }

    /// Σ self time over every span except the roots.
    pub fn layer_self_ns(&self) -> f64 {
        self.stats
            .iter()
            .filter(|s| s.count > 0 && s.parent.is_some())
            .map(|s| s.self_ns)
            .sum()
    }

    /// Traced wall time under the roots with the timer's own estimated
    /// cost removed — an estimate independent of the self-time sums, so
    /// that a wrong calibration shows as coverage off 1.
    pub fn deinstrumented_root_ns(&self) -> f64 {
        let pair = self.cost.inner_ns + self.cost.outer_ns;
        (self.root_raw_ns as f64 - self.closed as f64 * pair).max(0.0)
    }

    /// `bench.span_coverage`: Σ layer self time ÷ de-instrumented wall.
    pub fn coverage(&self) -> f64 {
        ratio(self.layer_self_ns(), self.deinstrumented_root_ns())
    }

    /// Measures the cost of an empty span under a parent.
    pub fn calibrate() -> TimerCost {
        const N: u64 = 400_000;
        let mut best = TimerCost {
            inner_ns: f64::INFINITY,
            outer_ns: f64::INFINITY,
        };
        // Minimum over a few batches: scheduler noise only ever adds.
        for _ in 0..5 {
            let mut l = Ledger::new(TimerCost::default());
            l.enter(Span::Round);
            let start = Instant::now();
            for _ in 0..N {
                l.enter(Span::Probe);
                l.exit();
            }
            let pair = start.elapsed().as_nanos() as f64 / N as f64;
            l.exit();
            let inner = l.get(Span::Probe).mean_total_ns();
            if pair < best.inner_ns + best.outer_ns {
                best = TimerCost {
                    inner_ns: inner,
                    outer_ns: (pair - inner).max(0.0),
                };
            }
        }
        best
    }

    /// The span table, for the result file.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::arr();
        for (i, s) in self.stats.iter().enumerate() {
            if s.count == 0 || i == Span::Probe as usize {
                continue;
            }
            let mut row = Json::obj();
            row.set("name", SPAN_NAMES[i]);
            row.set(
                "parent",
                s.parent.map_or(Json::Null, |p| Json::from(p.name())),
            );
            row.set("count", s.count);
            row.set("total_ns", s.total_ns.round());
            row.set("self_ns", s.self_ns.round());
            row.set("self_p50_ns", s.self_quantile(0.5));
            row.set("self_p999_ns", s.self_quantile(0.999));
            rows.push(row);
        }
        rows
    }
}

thread_local! {
    static LEDGER: RefCell<Option<Ledger>> = const { RefCell::new(None) };
}

/// Installs a fresh ledger on this thread (the traced pass) and returns
/// whatever was installed before.
pub fn install(ledger: Ledger) -> Option<Ledger> {
    LEDGER.with(|l| l.borrow_mut().replace(ledger))
}

/// Removes and returns this thread's ledger.
pub fn take() -> Option<Ledger> {
    LEDGER.with(|l| l.borrow_mut().take())
}

/// Runs `f` with this thread's ledger set aside, so that untimed work
/// on recorder-wrapped types (a rebuild between rounds, a read-back for
/// a check) books no spans.
pub fn suspended<T>(f: impl FnOnce() -> T) -> T {
    let ledger = take();
    let out = f();
    if let Some(l) = ledger {
        install(l);
    }
    out
}

/// Books `ns` of write-span time as spent in a write that erased.
pub fn note_gc_write(ns: f64) {
    LEDGER.with(|l| {
        if let Some(ledger) = l.borrow_mut().as_mut() {
            ledger.gc_write_ns += ns;
        }
    });
}

/// RAII span on this thread's ledger; a no-op when none is installed
/// (recorders are only built for the traced pass, so that case is the
/// root span of an untraced round).
pub struct SpanGuard {
    live: bool,
}

pub fn span(span: Span) -> SpanGuard {
    let live = LEDGER.with(|l| match l.borrow_mut().as_mut() {
        Some(ledger) => {
            ledger.enter(span);
            true
        }
        None => false,
    });
    SpanGuard { live }
}

impl SpanGuard {
    /// Closes the span now and returns its corrected duration in ns.
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        if !std::mem::take(&mut self.live) {
            return 0.0;
        }
        LEDGER.with(|l| l.borrow_mut().as_mut().map_or(0.0, Ledger::exit))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [0u64, 1, 15, 16, 17, 31, 32, 1000, 123_456, 1 << 40] {
            let b = bucket_of(v);
            assert!(bucket_top(b) >= v, "value {v} above its bucket top");
            if b > 0 {
                assert!(bucket_top(b - 1) < v, "value {v} fits a lower bucket");
            }
        }
    }

    /// Nested, sibling and zero-length spans with exact synthetic times:
    /// self = span − child cover, and the self times sum to the root.
    #[test]
    fn self_time_arithmetic_on_a_synthetic_tree() {
        let mut l = Ledger::new(TimerCost::default());
        // round(1000) ─ runner(900) ─┬ next_op(100)
        //                            ├ write(500) ─ append(300)
        //                            ├ write(0)            (zero-length)
        //                            └ next_op(50)
        let leaf = |l: &mut Ledger, s, ns| {
            l.enter(s);
            l.exit_after(ns);
        };
        l.enter(Span::Round);
        l.enter(Span::RunnerRun);
        leaf(&mut l, Span::NextOp, 100);
        l.enter(Span::StackWrite);
        leaf(&mut l, Span::ZonedAppend, 300);
        l.exit_after(500);
        leaf(&mut l, Span::StackWrite, 0);
        leaf(&mut l, Span::NextOp, 50);
        l.exit_after(900);
        l.exit_after(1000);

        assert_eq!(l.get(Span::NextOp).count, 2);
        assert_eq!(l.get(Span::NextOp).self_ns, 150.0);
        assert_eq!(l.get(Span::StackWrite).count, 2);
        assert_eq!(l.get(Span::StackWrite).total_ns, 500.0);
        assert_eq!(l.get(Span::StackWrite).self_ns, 200.0);
        assert_eq!(l.get(Span::ZonedAppend).self_ns, 300.0);
        assert_eq!(l.get(Span::RunnerRun).self_ns, 250.0);
        assert_eq!(l.get(Span::Round).self_ns, 100.0);
        assert_eq!(l.get(Span::StackWrite).parent, Some(Span::RunnerRun));
        assert_eq!(l.get(Span::Round).parent, None);
        let all: f64 = l.stats.iter().map(|s| s.self_ns).sum();
        assert_eq!(all, 1000.0, "self times sum to the root span");
        assert_eq!(l.layer_self_ns(), 900.0);
        assert!((l.coverage() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn timer_cost_is_subtracted_where_it_lands() {
        let cost = TimerCost {
            inner_ns: 10.0,
            outer_ns: 5.0,
        };
        let mut l = Ledger::new(cost);
        l.enter(Span::Round);
        // Three empty children: each reads `inner` raw.
        for _ in 0..3 {
            l.enter(Span::Probe);
            l.exit_after(10);
        }
        // Root raw = own inner + 3 × (inner + outer) + 40 of real work.
        l.exit_after(10 + 3 * 15 + 40);
        assert_eq!(l.get(Span::Probe).self_ns, 0.0);
        assert_eq!(l.get(Span::Round).self_ns, 40.0);
        assert_eq!(l.get(Span::Round).total_ns, 40.0);
        // The root's own `outer` lies outside its interval, so the
        // independent estimate takes one `outer` too many.
        assert_eq!(l.deinstrumented_root_ns(), 95.0 - 4.0 * 15.0);
    }

    /// The accounting gate: time spent under the root but outside every
    /// layer span drags coverage below the floor.
    #[test]
    fn coverage_gate_trips_on_an_unaccounted_sleep() {
        let cost = Ledger::calibrate();
        install(Ledger::new(cost));
        {
            let _root = span(Span::Round);
            {
                let _layer = span(Span::RunnerRun);
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            // Nobody's span: the harness itself burning time.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let l = take().unwrap();
        let c = l.coverage();
        assert!(
            c < crate::COVERAGE_FLOOR,
            "coverage {c} should trip the gate"
        );
        assert!(c > 0.3, "coverage {c}: the accounted half went missing");

        install(Ledger::new(cost));
        {
            let _root = span(Span::Round);
            let _layer = span(Span::RunnerRun);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let c = take().unwrap().coverage();
        assert!(
            (crate::COVERAGE_FLOOR..=crate::COVERAGE_CEIL).contains(&c),
            "fully accounted run reads {c}"
        );
    }

    #[test]
    fn untraced_spans_are_no_ops() {
        assert!(take().is_none());
        let g = span(Span::Round);
        assert_eq!(g.finish(), 0.0);
    }
}
