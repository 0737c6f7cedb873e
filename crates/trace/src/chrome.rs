//! Chrome `trace_event` JSON exporter.
//!
//! Produces the JSON object format consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) (legacy Chrome JSON importer):
//! one process (`pid 0`, named "medea"), one thread track per node —
//! compute nodes and MPMMU bank nodes alike, labelled by the caller's
//! naming function.
//!
//! Field mapping (see the crate docs for the viewer workflow):
//!
//! | event                         | `ph`  | `name`              | `args`                          |
//! |-------------------------------|-------|---------------------|---------------------------------|
//! | [`TraceEvent::SpanBegin`]/[`TraceEvent::SpanEnd`] | `B`/`E` | the [`KernelOp`] name | —       |
//! | [`TraceEvent::FlitInjected`]  | `i`   | `flit-inject`       | `kind`                          |
//! | [`TraceEvent::FlitDelivered`] | `i`   | `flit-deliver`      | `uid`, `latency`, `hops`, `deflections` |
//! | [`TraceEvent::FlitDeflected`] | `i`   | `deflect`           | —                               |
//! | [`TraceEvent::LinkLoad`]      | `C`   | `links-busy`        | `busy` (0..=4 counter)          |
//! | [`TraceEvent::CacheAccess`]   | `i`   | `cache:<kind>`      | `addr`                          |
//! | [`TraceEvent::ReorderSlip`]   | `i`   | `reorder-slip`      | —                               |
//! | [`TraceEvent::MemTxn`]        | `i`   | `mem:<kind>`        | `src`, `addr`                   |
//! | [`TraceEvent::LockAcquired`]/`LockContended`/`LockReleased` | `i` | `lock:acquire` / `lock:contend` / `lock:release` | `src`, `addr` |
//!
//! Timestamps (`ts`) are the simulated cycle numbers, presented to the
//! viewer as microseconds — 1 cycle renders as 1 µs, which keeps the
//! timeline readable without scaling tricks.
//!
//! Note on ring truncation: a [`crate::RingSink`] that wrapped may have
//! dropped a `B` whose matching `E` survived; both viewers tolerate the
//! unmatched `E` (it is ignored), so exported traces always load.

#[cfg(doc)]
use crate::event::KernelOp;
use crate::event::{coh_op_name, packet_kind_name, TimedEvent, TraceEvent};
use crate::json::escape;
use std::collections::BTreeSet;
use std::fmt::Write as _;

fn push_common(out: &mut String, name: &str, ph: char, at: u64, tid: u16) {
    out.push_str("{\"name\":\"");
    escape(name, out);
    let _ = write!(out, "\",\"ph\":\"{ph}\",\"ts\":{at}.0,\"pid\":0,\"tid\":{tid}");
}

/// Render `events` as a Chrome `trace_event` JSON document.
///
/// `track_name` labels each node's track (e.g. `"node 3 (rank 2)"`,
/// `"bank 0 @ node 0"`); it is called once per distinct node appearing in
/// the trace.
pub fn to_chrome_json<F>(events: &[TimedEvent], track_name: F) -> String
where
    F: Fn(u16) -> String,
{
    // ~96 bytes per rendered event is a comfortable upper bound.
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"medea\"}}",
    );

    // Metadata: one thread-name record per distinct node, in node order.
    let nodes: BTreeSet<u16> = events.iter().map(|t| t.event.node()).collect();
    for node in &nodes {
        out.push_str(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
        let _ = write!(out, "{node}");
        out.push_str(",\"args\":{\"name\":\"");
        escape(&track_name(*node), &mut out);
        out.push_str("\"}}");
    }

    let mut scratch = String::new();
    for &TimedEvent { at, event } in events {
        out.push_str(",\n");
        match event {
            TraceEvent::SpanBegin { node, op } => {
                push_common(&mut out, op.name(), 'B', at, node);
                out.push('}');
            }
            TraceEvent::SpanEnd { node, op } => {
                push_common(&mut out, op.name(), 'E', at, node);
                out.push('}');
            }
            TraceEvent::FlitInjected { node, kind } => {
                push_common(&mut out, "flit-inject", 'i', at, node);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"kind\":\"{}\"}}}}", {
                    packet_kind_name(kind)
                });
            }
            TraceEvent::FlitDelivered { node, uid, latency, hops, deflections } => {
                push_common(&mut out, "flit-deliver", 'i', at, node);
                let _ = write!(
                    out,
                    ",\"s\":\"t\",\"args\":{{\"uid\":{uid},\"latency\":{latency},\
                     \"hops\":{hops},\"deflections\":{deflections}}}}}"
                );
            }
            TraceEvent::FlitDeflected { node } => {
                push_common(&mut out, "deflect", 'i', at, node);
                out.push_str(",\"s\":\"t\"}");
            }
            TraceEvent::LinkLoad { node, links } => {
                // Counter ('C') events are keyed by (pid, name) — tid is
                // ignored — so the node must be part of the name or every
                // router's series would merge into one track.
                scratch.clear();
                let _ = write!(scratch, "links-busy/node {node}");
                push_common(&mut out, &scratch, 'C', at, node);
                let _ = write!(out, ",\"args\":{{\"busy\":{links}}}}}");
            }
            TraceEvent::CacheAccess { node, kind, addr } => {
                scratch.clear();
                scratch.push_str("cache:");
                scratch.push_str(kind.name());
                push_common(&mut out, &scratch, 'i', at, node);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"addr\":{addr}}}}}");
            }
            TraceEvent::ReorderSlip { node } => {
                push_common(&mut out, "reorder-slip", 'i', at, node);
                out.push_str(",\"s\":\"t\"}");
            }
            TraceEvent::MemTxn { bank, src, kind, addr } => {
                scratch.clear();
                scratch.push_str("mem:");
                scratch.push_str(packet_kind_name(kind));
                push_common(&mut out, &scratch, 'i', at, bank);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"src\":{src},\"addr\":{addr}}}}}");
            }
            TraceEvent::CohProbe { node, op, addr } => {
                scratch.clear();
                scratch.push_str("coh:");
                scratch.push_str(coh_op_name(op));
                push_common(&mut out, &scratch, 'i', at, node);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"addr\":{addr}}}}}");
            }
            TraceEvent::CohHome { bank, src, op, addr } => {
                scratch.clear();
                scratch.push_str("coh:");
                scratch.push_str(coh_op_name(op));
                push_common(&mut out, &scratch, 'i', at, bank);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"src\":{src},\"addr\":{addr}}}}}");
            }
            TraceEvent::LockAcquired { bank, src, addr } => {
                push_common(&mut out, "lock:acquire", 'i', at, bank);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"src\":{src},\"addr\":{addr}}}}}");
            }
            TraceEvent::LockContended { bank, src, addr } => {
                push_common(&mut out, "lock:contend", 'i', at, bank);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"src\":{src},\"addr\":{addr}}}}}");
            }
            TraceEvent::LockReleased { bank, src, addr } => {
                push_common(&mut out, "lock:release", 'i', at, bank);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"src\":{src},\"addr\":{addr}}}}}");
            }
            TraceEvent::FaultFlitCorrupted { node, bit } => {
                push_common(&mut out, "fault:flit-corrupt", 'i', at, node);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"bit\":{bit}}}}}");
            }
            TraceEvent::FaultLinkKilled { node, dir } => {
                push_common(&mut out, "fault:link-kill", 'i', at, node);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"dir\":{dir}}}}}");
            }
            TraceEvent::FaultBankDrop { bank } => {
                push_common(&mut out, "fault:bank-drop", 'i', at, bank);
                out.push_str(",\"s\":\"t\"}");
            }
            TraceEvent::FaultBankDelay { bank, cycles } => {
                push_common(&mut out, "fault:bank-delay", 'i', at, bank);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"cycles\":{cycles}}}}}");
            }
            TraceEvent::FaultPeStall { node, cycles } => {
                push_common(&mut out, "fault:pe-stall", 'i', at, node);
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"cycles\":{cycles}}}}}");
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheEventKind, KernelOp};
    use crate::json;

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            TimedEvent { at: 0, event: TraceEvent::SpanBegin { node: 1, op: KernelOp::Send } },
            TimedEvent { at: 1, event: TraceEvent::FlitInjected { node: 1, kind: 6 } },
            TimedEvent { at: 3, event: TraceEvent::LinkLoad { node: 1, links: 2 } },
            TimedEvent { at: 4, event: TraceEvent::FlitDeflected { node: 2 } },
            TimedEvent {
                at: 7,
                event: TraceEvent::FlitDelivered {
                    node: 5,
                    uid: 1,
                    latency: 6,
                    hops: 3,
                    deflections: 1,
                },
            },
            TimedEvent {
                at: 8,
                event: TraceEvent::CacheAccess {
                    node: 1,
                    kind: CacheEventKind::LoadMiss,
                    addr: 0x40,
                },
            },
            TimedEvent { at: 9, event: TraceEvent::ReorderSlip { node: 1 } },
            TimedEvent { at: 10, event: TraceEvent::MemTxn { bank: 0, src: 1, kind: 2, addr: 64 } },
            TimedEvent { at: 11, event: TraceEvent::LockAcquired { bank: 0, src: 1, addr: 512 } },
            TimedEvent { at: 12, event: TraceEvent::LockContended { bank: 0, src: 2, addr: 512 } },
            TimedEvent { at: 13, event: TraceEvent::LockReleased { bank: 0, src: 1, addr: 512 } },
            TimedEvent { at: 14, event: TraceEvent::SpanEnd { node: 1, op: KernelOp::Send } },
        ]
    }

    #[test]
    fn export_is_valid_json_with_tracks_and_phases() {
        let doc = to_chrome_json(&sample_events(), |n| format!("node {n}"));
        json::validate(&doc).expect("chrome export must be syntactically valid JSON");
        // Per-node thread tracks.
        assert!(doc.contains("\"thread_name\""));
        assert!(doc.contains("node 0"));
        assert!(doc.contains("node 5"));
        // All four phase kinds appear.
        for ph in ["\"ph\":\"B\"", "\"ph\":\"E\"", "\"ph\":\"i\"", "\"ph\":\"C\"", "\"ph\":\"M\""] {
            assert!(doc.contains(ph), "missing {ph}");
        }
        // Event names from every class.
        for name in ["flit-inject", "cache:load-miss", "mem:block-read", "lock:contend", "send"] {
            assert!(doc.contains(name), "missing {name}");
        }
    }

    #[test]
    fn track_names_are_escaped() {
        let events = vec![TimedEvent { at: 0, event: TraceEvent::FlitDeflected { node: 3 } }];
        let doc = to_chrome_json(&events, |_| "evil \"name\"\\\n".to_owned());
        json::validate(&doc).expect("escaped names keep the document valid");
        assert!(doc.contains("evil \\\"name\\\"\\\\\\u000a"));
    }

    #[test]
    fn empty_trace_still_valid() {
        let doc = to_chrome_json(&[], |n| format!("node {n}"));
        json::validate(&doc).unwrap();
        assert!(doc.contains("traceEvents"));
    }
}
