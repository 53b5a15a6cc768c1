//! Deterministic cross-layer event tracing for the blockhead simulator.
//!
//! The paper's argument lives in *internal* device behavior — GC stealing
//! bandwidth from reads (§2.4), write amplification accruing per-origin
//! (§2.2), zone-state churn under the active-zone limit — which end-of-run
//! counters can measure but not explain. This crate records typed,
//! virtual-clock-stamped events from every simulator layer so experiments
//! can attribute *which* flash operations, GC episodes, and zone
//! transitions produced a number.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** Devices hold a cheap [`Tracer`] handle; the
//!    disabled handle is a `None` and every `emit` is a single branch with
//!    no allocation. `run_all --trace` turns recording on.
//! 2. **Deterministic.** Events carry the virtual clock ([`Nanos`]) and a
//!    monotone sequence number; two runs of the same seed produce
//!    byte-identical traces.
//! 3. **Bounded.** The recorder is a drop-oldest ring; a runaway
//!    experiment degrades to "most recent window" instead of OOM.
//!
//! Export formats: JSONL (one event per line, the full schema) and Chrome
//! `trace_event` JSON (loadable in Perfetto / `chrome://tracing`, with
//! flash ops and GC episodes as duration spans).

mod event;
pub mod export;
pub mod replay;
mod sink;

pub use event::{
    CacheEvent, ConvEvent, Event, FaultEvent, FlashEvent, FlashOpKind, HostEvent, KvEvent, Origin,
    RunnerEvent, Subsystem, TracedEvent, ZnsEvent, ZoneStateTag,
};
pub use export::{to_chrome_trace, to_chrome_trace_sharded, to_jsonl, PID_STRIDE};
pub use sink::{SpanId, Tracer, DEFAULT_CAPACITY};
