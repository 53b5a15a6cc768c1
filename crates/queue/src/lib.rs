//! NVMe-style paired submission/completion queues for the blockhead
//! simulator.
//!
//! Every claim the paper makes about interface-attributable latency
//! (§2.4 read tails behind GC, §4.2 zone scheduling) was measured on
//! real devices at queue depth ≫ 1, yet the simulator's block interface
//! historically served exactly one operation at a time. This crate adds
//! the missing host-side concurrency: a [`SubmissionQueue`] accepts
//! typed [`IoRequest`]s, a deterministic arbiter keeps up to a
//! configured queue depth of them in flight against the virtual clock,
//! and a [`CompletionQueue`] yields [`IoCompletion`]s carrying typed
//! errors, per-op latency breakdowns (queue wait vs device service),
//! and trace span ids.
//!
//! Determinism is load-bearing: operation *issue* order is submission
//! order, each op issues at `max(arrival, earliest slot free)`, and
//! completion (retirement) order is decided solely by the device-model
//! completion instants — which the flash `ResourceModel` derives from
//! per-plane free times — with ties broken by submission index. Two
//! runs of the same workload are therefore byte-identical, at any queue
//! depth.
//!
//! The arbiter is [`QueueEngine`], an event-driven core: in-flight ops
//! live on a next-event calendar (a descending array of completion
//! instants), retirement pops its last entry, and the hot path
//! ([`QueueEngine::dispatch`]) hands completions to a caller sink
//! without any deque round-trips. The differential suites
//! (`tests/event_lockstep.rs`, `tests/prop_event.rs`) hold it bit for
//! bit to the original per-op polling arbiter, which lives test-side.
//!
//! The engine is generic over the device error type `E` and calls the
//! device through a plain closure `(request, issue instant) ->
//! (completion instant, result)`, so it layers over any
//! `bh_core::BlockInterface` stack (`bh_core::exec_request` is that
//! adapter) without a dependency cycle.

mod calendar;
mod engine;
mod req;

pub use engine::{CompletionQueue, PowerCut, QueueEngine, SubmissionQueue};
pub use req::{IoCompletion, IoKind, IoRequest};
