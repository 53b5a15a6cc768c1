//! Trace export: JSONL (full schema, one event per line) and Chrome
//! `trace_event` JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! Chrome-trace mapping:
//!
//! - flash operations → `"X"` complete events on per-die tracks
//!   (`pid` "flash", `tid` = global die index);
//! - conventional-FTL GC episodes → `"B"`/`"E"` duration spans, one
//!   track per plane — episodes still open at the end of the recording
//!   window are closed at the last observed instant so every span is a
//!   well-formed duration;
//! - host reclaim episodes → `"B"`/`"E"` spans likewise;
//! - zone state transitions and limit stalls → `"i"` instant events;
//! - runner snapshots → `"C"` counter events (WA and queue depth).
//!
//! Per-write append events are deliberately JSONL-only: a steady-state
//! run emits one per page and would swamp the timeline view.

use crate::event::{
    CacheEvent, ConvEvent, Event, FaultEvent, FlashEvent, HostEvent, KvEvent, RunnerEvent,
    TracedEvent, ZnsEvent,
};
use bh_json::Json;
use bh_metrics::Nanos;

/// Serializes one event to its flat JSONL schema.
pub fn event_json(ev: &TracedEvent) -> Json {
    let mut j = Json::obj();
    j.set("seq", ev.seq)
        .set("ns", ev.at.as_nanos())
        .set("span", ev.span.0)
        .set("subsystem", ev.subsystem().name());
    match ev.event {
        Event::Flash(FlashEvent::Op {
            kind,
            origin,
            channel,
            die,
            plane,
            block,
            page,
            start,
            done,
        }) => {
            j.set("type", kind.name())
                .set("origin", origin.name())
                .set("channel", channel)
                .set("die", die)
                .set("plane", plane)
                .set("block", block)
                .set("page", page)
                .set("start_ns", start.as_nanos())
                .set("done_ns", done.as_nanos());
        }
        Event::Conv(ConvEvent::GcBegin {
            plane,
            victim,
            valid,
            invalid,
        }) => {
            j.set("type", "gc-begin")
                .set("plane", plane)
                .set("victim", victim)
                .set("valid", valid)
                .set("invalid", invalid);
        }
        Event::Conv(ConvEvent::GcEnd {
            plane,
            pages_copied,
            retired,
        }) => {
            j.set("type", "gc-end")
                .set("plane", plane)
                .set("pages_copied", pages_copied)
                .set("retired", retired);
        }
        Event::Conv(ConvEvent::WearLevel { block, pages_moved }) => {
            j.set("type", "wear-level")
                .set("block", block)
                .set("pages_moved", pages_moved);
        }
        Event::Zns(ZnsEvent::Transition {
            zone,
            from,
            to,
            cause,
        }) => {
            j.set("type", "zone-transition")
                .set("zone", zone)
                .set("from", from.name())
                .set("to", to.name())
                .set("cause", cause);
        }
        Event::Zns(ZnsEvent::Append { zone, wp }) => {
            j.set("type", "append").set("zone", zone).set("wp", wp);
        }
        Event::Zns(ZnsEvent::LimitStall {
            zone,
            active,
            open,
            kind,
            limit,
        }) => {
            j.set("type", "limit-stall")
                .set("zone", zone)
                .set("active", active)
                .set("open", open)
                .set("kind", kind)
                .set("limit", limit);
        }
        Event::Host(HostEvent::ReclaimBegin { victim, live }) => {
            j.set("type", "reclaim-begin")
                .set("victim", victim)
                .set("live", live);
        }
        Event::Host(HostEvent::ReclaimEnd { victim, relocated }) => {
            j.set("type", "reclaim-end")
                .set("victim", victim)
                .set("relocated", relocated);
        }
        Event::Host(HostEvent::ReclaimGate {
            policy,
            free_zones,
            ran,
        }) => {
            j.set("type", "reclaim-gate")
                .set("policy", policy)
                .set("free_zones", free_zones)
                .set("ran", ran);
        }
        Event::Host(HostEvent::ZoneAlloc { class, zone }) => {
            j.set("type", "zone-alloc")
                .set("class", class)
                .set("zone", zone);
        }
        Event::Kv(KvEvent::Flush { entries, pages }) => {
            j.set("type", "flush")
                .set("entries", entries)
                .set("pages", pages);
        }
        Event::Kv(KvEvent::Compaction {
            tables_in,
            pages_out,
        }) => {
            j.set("type", "compaction")
                .set("tables_in", tables_in)
                .set("pages_out", pages_out);
        }
        Event::Cache(CacheEvent::Evict { pages }) => {
            j.set("type", "evict").set("pages", pages);
        }
        Event::Runner(RunnerEvent::Snapshot {
            ops_done,
            interval_wa,
            cumulative_wa,
            queue_depth,
            in_flight,
            host_programs,
            internal_programs,
            erases,
        }) => {
            j.set("type", "snapshot")
                .set("ops_done", ops_done)
                .set("interval_wa", interval_wa)
                .set("cumulative_wa", cumulative_wa)
                .set("queue_depth", queue_depth)
                .set("in_flight", in_flight)
                .set("host_programs", host_programs)
                .set("internal_programs", internal_programs)
                .set("erases", erases);
        }
        Event::Fault(FaultEvent::ProgramFail {
            block,
            page,
            origin,
        }) => {
            j.set("type", "program-fail")
                .set("block", block)
                .set("page", page)
                .set("origin", origin.name());
        }
        Event::Fault(FaultEvent::EraseFail { block, wear }) => {
            j.set("type", "erase-fail")
                .set("block", block)
                .set("wear", wear);
        }
        Event::Fault(FaultEvent::ReadRetry {
            block,
            page,
            retries,
        }) => {
            j.set("type", "read-retry")
                .set("block", block)
                .set("page", page)
                .set("retries", retries);
        }
        Event::Fault(FaultEvent::PowerLoss { op_index }) => {
            j.set("type", "power-loss").set("op_index", op_index);
        }
        Event::Fault(FaultEvent::Redrive { layer, attempts }) => {
            j.set("type", "redrive")
                .set("layer", layer)
                .set("attempts", attempts);
        }
        Event::Fault(FaultEvent::Replay {
            layer,
            scanned,
            recovered,
        }) => {
            j.set("type", "replay")
                .set("layer", layer)
                .set("scanned", scanned)
                .set("recovered", recovered);
        }
    }
    j
}

/// Exports the full event stream as JSONL, one compact object per line.
pub fn to_jsonl(events: &[TracedEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_json(ev).dump());
        out.push('\n');
    }
    out
}

/// Streams the event stream to `path` as JSONL through a buffered
/// writer, one compact object per line — the spill path for fleet runs
/// too large to accumulate every shard's trace in memory. Lines are
/// identical to [`to_jsonl`]'s.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_jsonl(path: &std::path::Path, events: &[TracedEvent]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for ev in events {
        w.write_all(event_json(ev).dump().as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Process-id offsets within one shard's pid block, one per subsystem
/// family. A single-device trace uses base 0, so pids are 1–5 as they
/// always were; a fleet trace gives shard `k` the block starting at
/// `k * PID_STRIDE`, so every shard's five tracks stay grouped in
/// Perfetto.
mod pid {
    pub const FLASH: u32 = 1;
    pub const CONV_GC: u32 = 2;
    pub const ZNS: u32 = 3;
    pub const HOST: u32 = 4;
    pub const RUNNER: u32 = 5;
    pub const FAULTS: u32 = 6;
}

/// Pid-space stride between shards in a sharded trace (room for the five
/// subsystem tracks plus headroom).
pub const PID_STRIDE: u32 = 8;

fn micros(t: Nanos) -> f64 {
    t.as_nanos() as f64 / 1_000.0
}

fn chrome_event(ph: &str, name: &str, pid_: u32, tid: u32, ts: f64) -> Json {
    let mut j = Json::obj();
    j.set("ph", ph)
        .set("name", name)
        .set("pid", pid_)
        .set("tid", tid)
        .set("ts", ts);
    j
}

fn metadata(pid_: u32, name: &str) -> Json {
    let mut args = Json::obj();
    args.set("name", name);
    let mut j = Json::obj();
    j.set("ph", "M")
        .set("name", "process_name")
        .set("pid", pid_)
        .set("tid", 0u32)
        .set("args", args);
    j
}

/// Exports a Chrome `trace_event` JSON document.
///
/// Episodes (GC, host reclaim) whose end falls outside the recording
/// window are closed at the last observed instant, and end events whose
/// begin was evicted from the drop-oldest ring are skipped, so the
/// output always contains well-formed duration spans.
pub fn to_chrome_trace(events: &[TracedEvent]) -> String {
    let mut out = Vec::new();
    push_shard(&mut out, events, 0, "");
    finish_doc(out)
}

/// Exports one Chrome `trace_event` JSON document merging several
/// shards' event streams. Shard `k` (by the given shard id) occupies the
/// pid block starting at `k * PID_STRIDE`, with its process names
/// prefixed `shard<k>: `, so every device's five subsystem tracks stay
/// grouped and distinguishable in Perfetto. Span closing and orphan-end
/// skipping apply per shard, exactly as in [`to_chrome_trace`].
pub fn to_chrome_trace_sharded(shards: &[(u32, Vec<TracedEvent>)]) -> String {
    let mut out = Vec::new();
    for (shard, events) in shards {
        push_shard(
            &mut out,
            events,
            shard * PID_STRIDE,
            &format!("shard{shard}: "),
        );
    }
    finish_doc(out)
}

fn finish_doc(out: Vec<Json>) -> String {
    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(out))
        .set("displayTimeUnit", "ms");
    doc.dump()
}

fn push_shard(out: &mut Vec<Json>, events: &[TracedEvent], base: u32, prefix: &str) {
    out.push(metadata(
        base + pid::FLASH,
        &format!("{prefix}flash (per-die ops)"),
    ));
    out.push(metadata(
        base + pid::CONV_GC,
        &format!("{prefix}conv FTL GC (per-plane episodes)"),
    ));
    out.push(metadata(
        base + pid::ZNS,
        &format!("{prefix}zns zone state machine"),
    ));
    out.push(metadata(base + pid::HOST, &format!("{prefix}host reclaim")));
    out.push(metadata(
        base + pid::RUNNER,
        &format!("{prefix}runner samples"),
    ));
    out.push(metadata(
        base + pid::FAULTS,
        &format!("{prefix}faults & recovery"),
    ));
    let last_ts = micros(events.iter().map(|e| e.at).max().unwrap_or(Nanos::ZERO));
    // Open B events awaiting their E: (pid, tid, begin ts).
    let mut open: Vec<(u32, u32, &'static str)> = Vec::new();

    for ev in events {
        let ts = micros(ev.at);
        match ev.event {
            Event::Flash(FlashEvent::Op {
                kind,
                origin,
                die,
                plane,
                block,
                page,
                start,
                done,
                ..
            }) => {
                let mut j = chrome_event("X", kind.name(), base + pid::FLASH, die, micros(start));
                j.set("dur", micros(done) - micros(start));
                let mut args = Json::obj();
                args.set("origin", origin.name())
                    .set("plane", plane)
                    .set("block", block)
                    .set("page", page);
                j.set("args", args);
                out.push(j);
            }
            Event::Conv(ConvEvent::GcBegin {
                plane,
                victim,
                valid,
                invalid,
            }) => {
                let mut j = chrome_event("B", "gc", base + pid::CONV_GC, plane, ts);
                let mut args = Json::obj();
                args.set("span", ev.span.0)
                    .set("victim", victim)
                    .set("valid", valid)
                    .set("invalid", invalid);
                j.set("args", args);
                out.push(j);
                open.push((base + pid::CONV_GC, plane, "gc"));
            }
            Event::Conv(ConvEvent::GcEnd {
                plane,
                pages_copied,
                retired,
            }) => {
                // An end whose begin was evicted from the ring has no
                // span to close; emitting it would unbalance the track.
                let Some(pos) = open
                    .iter()
                    .position(|&(p, t, _)| p == base + pid::CONV_GC && t == plane)
                else {
                    continue;
                };
                open.swap_remove(pos);
                let mut j = chrome_event("E", "gc", base + pid::CONV_GC, plane, ts);
                let mut args = Json::obj();
                args.set("span", ev.span.0)
                    .set("pages_copied", pages_copied)
                    .set("retired", retired);
                j.set("args", args);
                out.push(j);
            }
            Event::Conv(ConvEvent::WearLevel { block, pages_moved }) => {
                let mut j = chrome_event("i", "wear-level", base + pid::CONV_GC, 0, ts);
                j.set("s", "p");
                let mut args = Json::obj();
                args.set("block", block).set("pages_moved", pages_moved);
                j.set("args", args);
                out.push(j);
            }
            Event::Zns(ZnsEvent::Transition { zone, from, to, .. }) => {
                let mut j = chrome_event(
                    "i",
                    &format!("{}\u{2192}{}", from.name(), to.name()),
                    base + pid::ZNS,
                    zone,
                    ts,
                );
                j.set("s", "t");
                out.push(j);
            }
            Event::Zns(ZnsEvent::Append { .. }) => {
                // JSONL-only: one event per written page is too dense
                // for a timeline.
            }
            Event::Zns(ZnsEvent::LimitStall { zone, kind, .. }) => {
                let mut j = chrome_event("i", "limit-stall", base + pid::ZNS, zone, ts);
                j.set("s", "p");
                let mut args = Json::obj();
                args.set("kind", kind);
                j.set("args", args);
                out.push(j);
            }
            Event::Host(HostEvent::ReclaimBegin { victim, live }) => {
                let mut j = chrome_event("B", "reclaim", base + pid::HOST, 0, ts);
                let mut args = Json::obj();
                args.set("span", ev.span.0)
                    .set("victim", victim)
                    .set("live", live);
                j.set("args", args);
                out.push(j);
                open.push((base + pid::HOST, 0, "reclaim"));
            }
            Event::Host(HostEvent::ReclaimEnd { relocated, .. }) => {
                let Some(pos) = open.iter().position(|&(p, _, _)| p == base + pid::HOST) else {
                    continue;
                };
                open.swap_remove(pos);
                let mut j = chrome_event("E", "reclaim", base + pid::HOST, 0, ts);
                let mut args = Json::obj();
                args.set("span", ev.span.0).set("relocated", relocated);
                j.set("args", args);
                out.push(j);
            }
            Event::Host(HostEvent::ReclaimGate { .. })
            | Event::Host(HostEvent::ZoneAlloc { .. })
            | Event::Kv(_)
            | Event::Cache(_) => {
                // JSONL-only bookkeeping events.
            }
            Event::Runner(RunnerEvent::Snapshot {
                interval_wa,
                cumulative_wa,
                queue_depth,
                in_flight,
                ..
            }) => {
                let mut wa = chrome_event("C", "write-amplification", base + pid::RUNNER, 0, ts);
                let mut args = Json::obj();
                // Counter tracks cannot draw infinity; clamp for display.
                args.set("interval", clamp_counter(interval_wa))
                    .set("cumulative", clamp_counter(cumulative_wa));
                wa.set("args", args);
                out.push(wa);
                let mut qd = chrome_event("C", "queue-depth", base + pid::RUNNER, 0, ts);
                let mut args = Json::obj();
                args.set("busy_planes", queue_depth)
                    .set("in_flight", in_flight);
                qd.set("args", args);
                out.push(qd);
            }
            Event::Fault(fe) => {
                let (name, detail) = match fe {
                    FaultEvent::ProgramFail { block, page, .. } => {
                        ("program-fail", format!("block {block} page {page}"))
                    }
                    FaultEvent::EraseFail { block, wear } => {
                        ("erase-fail", format!("block {block} wear {wear}"))
                    }
                    FaultEvent::ReadRetry { block, retries, .. } => {
                        ("read-retry", format!("block {block} x{retries}"))
                    }
                    FaultEvent::PowerLoss { op_index } => ("power-loss", format!("op {op_index}")),
                    FaultEvent::Redrive { layer, attempts } => {
                        ("redrive", format!("{layer} x{attempts}"))
                    }
                    FaultEvent::Replay { layer, scanned, .. } => {
                        ("replay", format!("{layer} scanned {scanned}"))
                    }
                };
                let mut j = chrome_event("i", name, base + pid::FAULTS, 0, ts);
                j.set("s", "p");
                let mut args = Json::obj();
                args.set("detail", detail.as_str());
                j.set("args", args);
                out.push(j);
            }
        }
    }

    // Close any episode still open at the end of the window.
    for (p, t, name) in open {
        out.push(chrome_event("E", name, p, t, last_ts));
    }
}

fn clamp_counter(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlashOpKind, Origin};
    use crate::sink::{SpanId, Tracer};

    fn sample_events() -> Vec<TracedEvent> {
        let t = Tracer::ring(64);
        let span = t.begin_span();
        t.emit(
            Nanos::from_nanos(100),
            FlashEvent::Op {
                kind: FlashOpKind::Program,
                origin: Origin::Host,
                channel: 0,
                die: 1,
                plane: 2,
                block: 3,
                page: 4,
                start: Nanos::from_nanos(100),
                done: Nanos::from_nanos(600),
            },
        );
        t.emit_span(
            Nanos::from_nanos(700),
            span,
            ConvEvent::GcBegin {
                plane: 2,
                victim: 3,
                valid: 5,
                invalid: 11,
            },
        );
        t.emit_span(
            Nanos::from_nanos(900),
            span,
            ConvEvent::GcEnd {
                plane: 2,
                pages_copied: 5,
                retired: false,
            },
        );
        t.events()
    }

    #[test]
    fn jsonl_lines_parse_and_keep_schema() {
        let jsonl = to_jsonl(&sample_events());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        let first = bh_json::parse(lines[0]).unwrap();
        assert_eq!(first["subsystem"], "flash");
        assert_eq!(first["type"], "program");
        assert_eq!(first["die"].as_u64(), Some(1));
        let begin = bh_json::parse(lines[1]).unwrap();
        assert_eq!(begin["type"], "gc-begin");
        assert_eq!(begin["span"].as_u64(), Some(1));
    }

    #[test]
    fn write_jsonl_matches_the_in_memory_export() {
        let events = sample_events();
        let path =
            std::env::temp_dir().join(format!("bh-trace-spill-{}.jsonl", std::process::id()));
        write_jsonl(&path, &events).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(on_disk, to_jsonl(&events));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_spans() {
        let doc = bh_json::parse(&to_chrome_trace(&sample_events())).unwrap();
        let events = doc["traceEvents"].as_arr().unwrap();
        let begins = events.iter().filter(|e| e["ph"] == "B").count();
        let ends = events.iter().filter(|e| e["ph"] == "E").count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1);
        assert!(events.iter().any(|e| e["ph"] == "X"));
    }

    #[test]
    fn unterminated_episode_gets_closed() {
        let t = Tracer::ring(8);
        let span = t.begin_span();
        t.emit_span(
            Nanos::from_nanos(10),
            span,
            ConvEvent::GcBegin {
                plane: 0,
                victim: 1,
                valid: 2,
                invalid: 3,
            },
        );
        let doc = bh_json::parse(&to_chrome_trace(&t.events())).unwrap();
        let events = doc["traceEvents"].as_arr().unwrap();
        let begins = events.iter().filter(|e| e["ph"] == "B").count();
        let ends = events.iter().filter(|e| e["ph"] == "E").count();
        assert_eq!(begins, ends, "every B needs an E");
    }

    #[test]
    fn orphan_end_is_skipped() {
        // A GcEnd whose GcBegin was evicted from the drop-oldest ring
        // must not produce an unbalanced "E" record.
        let t = Tracer::ring(8);
        t.emit(
            Nanos::from_nanos(50),
            ConvEvent::GcEnd {
                plane: 4,
                pages_copied: 9,
                retired: true,
            },
        );
        let doc = bh_json::parse(&to_chrome_trace(&t.events())).unwrap();
        let events = doc["traceEvents"].as_arr().unwrap();
        assert!(events.iter().all(|e| e["ph"] != "E"));
        assert!(events.iter().all(|e| e["ph"] != "B"));
    }

    #[test]
    fn sharded_trace_separates_pid_blocks() {
        let shards = vec![(0u32, sample_events()), (2u32, sample_events())];
        let doc = bh_json::parse(&to_chrome_trace_sharded(&shards)).unwrap();
        let events = doc["traceEvents"].as_arr().unwrap();
        // Each shard contributes the same shapes, offset into its block.
        for (shard, base) in [(0u32, 0u32), (2, 2 * PID_STRIDE)] {
            let _ = shard;
            assert!(events
                .iter()
                .any(|e| e["ph"] == "X" && e["pid"].as_u64() == Some((base + pid::FLASH) as u64)));
            let begins = events
                .iter()
                .filter(|e| {
                    e["ph"] == "B" && e["pid"].as_u64() == Some((base + pid::CONV_GC) as u64)
                })
                .count();
            let ends = events
                .iter()
                .filter(|e| {
                    e["ph"] == "E" && e["pid"].as_u64() == Some((base + pid::CONV_GC) as u64)
                })
                .count();
            assert_eq!(begins, 1);
            assert_eq!(ends, 1);
        }
        // Shard 2's process names carry the shard prefix.
        assert!(events.iter().any(|e| e["ph"] == "M"
            && e["pid"].as_u64() == Some((2 * PID_STRIDE + pid::FLASH) as u64)
            && e["args"]["name"]
                .as_str()
                .is_some_and(|n| n.starts_with("shard2: "))));
    }

    #[test]
    fn empty_stream_exports_cleanly() {
        assert_eq!(to_jsonl(&[]), "");
        let doc = bh_json::parse(&to_chrome_trace(&[])).unwrap();
        assert!(doc["traceEvents"].as_arr().unwrap().len() >= 5); // metadata only
    }

    #[test]
    fn span_none_is_zero_in_jsonl() {
        let t = Tracer::ring(4);
        t.emit(Nanos::ZERO, CacheEvent::Evict { pages: 7 });
        let line = to_jsonl(&t.events());
        let j = bh_json::parse(line.trim()).unwrap();
        assert_eq!(j["span"].as_u64(), Some(0));
        let _ = SpanId::NONE;
    }
}
