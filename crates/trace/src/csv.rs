//! Flat CSV exporter: one row per event, fixed column set.
//!
//! Columns: `cycle,class,event,node,kind,src,addr,value` — `node` is the
//! event's track node (the bank node for memory events), `kind` the
//! event-specific discriminator (packet kind, cache access kind, span
//! op), `src` the requesting node where one exists, `addr` the target
//! address, and `value` the remaining scalar (link load, flit latency).
//! Inapplicable cells are left empty, so the file loads directly into
//! any dataframe tool.

use crate::event::{coh_op_name, packet_kind_name, TimedEvent, TraceEvent};
use std::fmt::Write as _;

/// The fixed CSV header row (shared with the streaming
/// [`FileSink`](crate::file::FileSink), which writes the same format).
pub const HEADER: &str = "cycle,class,event,node,kind,src,addr,value\n";

/// Render `events` as a CSV document with a header row.
pub fn to_csv(events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(32 + events.len() * 40);
    out.push_str(HEADER);
    for timed in events {
        push_row(&mut out, timed);
    }
    out
}

/// Append one CSV data row (with trailing newline) for `timed` to `out`.
pub fn push_row(out: &mut String, timed: &TimedEvent) {
    let &TimedEvent { at, event } = timed;
    {
        let class = event.class().label();
        let node = event.node();
        let (name, kind, src, addr, value) = match event {
            TraceEvent::FlitInjected { kind, .. } => {
                ("flit-inject", packet_kind_name(kind), None, None, None)
            }
            TraceEvent::FlitDelivered { latency, .. } => {
                ("flit-deliver", "", None, None, Some(latency))
            }
            TraceEvent::FlitDeflected { .. } => ("deflect", "", None, None, None),
            TraceEvent::LinkLoad { links, .. } => {
                ("links-busy", "", None, None, Some(links as u64))
            }
            TraceEvent::CacheAccess { kind, addr, .. } => {
                ("cache", kind.name(), None, Some(addr), None)
            }
            TraceEvent::ReorderSlip { .. } => ("reorder-slip", "", None, None, None),
            TraceEvent::MemTxn { src, kind, addr, .. } => {
                ("mem-txn", packet_kind_name(kind), Some(src), Some(addr), None)
            }
            TraceEvent::CohProbe { op, addr, .. } => {
                ("coh-probe", coh_op_name(op), None, Some(addr), None)
            }
            TraceEvent::CohHome { src, op, addr, .. } => {
                ("coh-home", coh_op_name(op), Some(src), Some(addr), None)
            }
            TraceEvent::LockAcquired { src, addr, .. } => {
                ("lock-acquire", "", Some(src), Some(addr), None)
            }
            TraceEvent::LockContended { src, addr, .. } => {
                ("lock-contend", "", Some(src), Some(addr), None)
            }
            TraceEvent::LockReleased { src, addr, .. } => {
                ("lock-release", "", Some(src), Some(addr), None)
            }
            TraceEvent::SpanBegin { op, .. } => ("span-begin", op.name(), None, None, None),
            TraceEvent::SpanEnd { op, .. } => ("span-end", op.name(), None, None, None),
            TraceEvent::FaultFlitCorrupted { bit, .. } => {
                ("fault-flit-corrupt", "", None, None, Some(bit as u64))
            }
            TraceEvent::FaultLinkKilled { dir, .. } => {
                ("fault-link-kill", "", None, None, Some(dir as u64))
            }
            TraceEvent::FaultBankDrop { .. } => ("fault-bank-drop", "", None, None, None),
            TraceEvent::FaultBankDelay { cycles, .. } => {
                ("fault-bank-delay", "", None, None, Some(cycles as u64))
            }
            TraceEvent::FaultPeStall { cycles, .. } => {
                ("fault-pe-stall", "", None, None, Some(cycles as u64))
            }
        };
        let _ = write!(out, "{at},{class},{name},{node},{kind},");
        if let Some(src) = src {
            let _ = write!(out, "{src}");
        }
        out.push(',');
        if let Some(addr) = addr {
            let _ = write!(out, "{addr}");
        }
        out.push(',');
        if let Some(value) = value {
            let _ = write!(out, "{value}");
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::KernelOp;

    #[test]
    fn rows_have_fixed_arity() {
        let events = vec![
            TimedEvent { at: 5, event: TraceEvent::MemTxn { bank: 0, src: 3, kind: 1, addr: 64 } },
            TimedEvent { at: 6, event: TraceEvent::SpanBegin { node: 2, op: KernelOp::Recv } },
            TimedEvent { at: 7, event: TraceEvent::LinkLoad { node: 4, links: 3 } },
        ];
        let csv = to_csv(&events);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert_eq!(line.matches(',').count(), 7, "8 columns in {line:?}");
        }
        assert_eq!(lines[1], "5,mem,mem-txn,0,single-write,3,64,");
        assert_eq!(lines[2], "6,kernel,span-begin,2,recv,,,");
        assert_eq!(lines[3], "7,noc,links-busy,4,,,,3");
    }
}
