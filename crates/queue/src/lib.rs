//! NVMe-style multi-queue-depth dispatch for the blockhead simulator.
//!
//! Every claim the paper makes about interface-attributable latency
//! (§2.4 read tails behind GC, §4.2 zone scheduling) was measured on
//! real devices at queue depth ≫ 1, yet the simulator's block interface
//! historically served exactly one operation at a time. This crate adds
//! the missing host-side concurrency: [`QueueEngine::dispatch`] accepts
//! typed [`IoRequest`]s, a deterministic arbiter keeps up to a
//! configured queue depth of them in flight against the virtual clock,
//! and retired ops reach a caller sink as [`IoCompletion`]s carrying
//! typed errors and per-op latency breakdowns (queue wait vs device
//! service).
//!
//! Determinism is load-bearing: operation *issue* order is dispatch
//! order, each op issues at `max(arrival, earliest slot free)`, and
//! completion (retirement) order is decided solely by the device-model
//! completion instants — which the flash `ResourceModel` derives from
//! per-plane free times — with ties broken by command id. Two runs of
//! the same workload are therefore byte-identical, at any queue depth.
//!
//! [`QueueEngine`] is an event-driven core: in-flight ops live on a
//! next-event calendar (a descending array of completion instants) and
//! retirement pops its last entry. It has one way in and out:
//! [`QueueEngine::dispatch`] and [`QueueEngine::flush_into`] hand
//! completions to a caller sink, and [`QueueEngine::cut`] splits a power
//! loss into acknowledged and unacknowledged ops. The differential
//! suites (`tests/event_lockstep.rs`, `tests/prop_event.rs`) hold it bit
//! for bit to the original per-op polling arbiter, which lives
//! test-side.
//!
//! The engine is generic over the device error type `E` and calls the
//! device through a plain closure `(request, issue instant) ->
//! (completion instant, result)`, so it layers over any
//! `bh_core::BlockInterface` stack (`bh_core::exec_request` is that
//! adapter) without a dependency cycle.

mod calendar;
mod engine;
mod req;

pub use engine::QueueEngine;
pub use req::{IoCompletion, IoKind, IoRequest};
