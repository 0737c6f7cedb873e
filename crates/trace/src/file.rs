//! Streaming file sink for captures that outgrow [`RingSink`](crate::RingSink).
//!
//! A multi-hundred-million-cycle run emits far more events than any
//! in-memory ring can hold — `RingSink` keeps only the newest `capacity`
//! events and silently truncates history. [`FileSink`] instead streams
//! every selected event to disk through a buffered writer, in the same
//! flat CSV vocabulary as [`crate::csv::to_csv`] (one row per event,
//! fixed `cycle,class,event,node,kind,src,addr,value` columns), so a
//! capture of any length loads into the same dataframe tooling.
//!
//! # Drop-counter semantics
//!
//! The two sinks count "drops" differently, deliberately:
//!
//! * [`RingSink::dropped`](crate::sink::RingSink::dropped) counts events
//!   *overwritten* because the ring was full — capacity pressure; the
//!   sink itself never fails.
//! * [`FileSink::dropped`] counts events *lost to I/O errors* (a failed
//!   `write` after buffer-flush retry). There is no capacity pressure —
//!   a healthy disk never drops — so a non-zero count means the capture
//!   file is incomplete and should be distrusted. Events filtered out by
//!   the class mask are counted by neither sink, matching `RingSink`.
//!
//! The writer is buffered; call [`FileSink::flush`] (or drop the sink)
//! before reading the file back.

use crate::event::{EventClass, TimedEvent, TraceEvent};
use crate::sink::TraceSink;
use medea_sim::Cycle;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// A [`TraceSink`] that streams events to a CSV file through a buffered
/// writer. See the module docs for the drop-counter contract.
#[derive(Debug)]
pub struct FileSink {
    classes: EventClass,
    writer: BufWriter<File>,
    scratch: String,
    written: u64,
    dropped: u64,
}

impl FileSink {
    /// Create (truncating) `path` and write the CSV header, capturing
    /// every class.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        FileSink::with_classes(path, EventClass::ALL)
    }

    /// Create (truncating) `path`, capturing only `classes`.
    pub fn with_classes<P: AsRef<Path>>(path: P, classes: EventClass) -> std::io::Result<Self> {
        let mut writer = BufWriter::new(File::create(path)?);
        writer.write_all(crate::csv::HEADER.as_bytes())?;
        Ok(FileSink { classes, writer, scratch: String::with_capacity(64), written: 0, dropped: 0 })
    }

    /// Events successfully handed to the buffered writer.
    pub const fn written(&self) -> u64 {
        self.written
    }

    /// Events lost to I/O errors (not capacity — see the module docs).
    pub const fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The class filter.
    pub const fn classes(&self) -> EventClass {
        self.classes
    }

    /// Flush the buffered writer to disk.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

impl TraceSink for FileSink {
    const ACTIVE: bool = true;

    fn record(&mut self, at: Cycle, event: TraceEvent) {
        if !self.classes.intersects(event.class()) {
            return;
        }
        self.scratch.clear();
        crate::csv::push_row(&mut self.scratch, &TimedEvent { at, event });
        match self.writer.write_all(self.scratch.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(_) => self.dropped += 1,
        }
    }

    fn io_drops(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::KernelOp;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("medea_filesink_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn streams_rows_in_csv_vocabulary() {
        let path = tmp("rows");
        let events = [
            TimedEvent { at: 5, event: TraceEvent::MemTxn { bank: 0, src: 3, kind: 1, addr: 64 } },
            TimedEvent { at: 6, event: TraceEvent::SpanBegin { node: 2, op: KernelOp::Recv } },
            TimedEvent { at: 9, event: TraceEvent::CohHome { bank: 0, src: 2, op: 1, addr: 64 } },
        ];
        {
            let mut sink = FileSink::create(&path).unwrap();
            for t in events {
                sink.record(t.at, t.event);
            }
            assert_eq!(sink.written(), 3);
            assert_eq!(sink.dropped(), 0);
            sink.flush().unwrap();
        }
        let got = std::fs::read_to_string(&path).unwrap();
        // Bit-identical to the in-memory exporter over the same events.
        assert_eq!(got, crate::csv::to_csv(&events));
        assert!(got.lines().next().unwrap().starts_with("cycle,class,"));
        assert!(got.contains("coh-home"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn class_filter_skips_without_counting() {
        let path = tmp("filter");
        let mut sink = FileSink::with_classes(&path, EventClass::KERNEL).unwrap();
        sink.record(0, TraceEvent::FlitDeflected { node: 1 }); // NOC: filtered
        sink.record(1, TraceEvent::SpanBegin { node: 1, op: KernelOp::Barrier });
        assert_eq!(sink.written(), 1);
        assert_eq!(sink.dropped(), 0, "filtered events are not drops");
        sink.flush().unwrap();
        drop(sink);
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got.lines().count(), 2, "header + one kernel row");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_on_drop_persists_buffered_rows() {
        let path = tmp("drop");
        {
            let mut sink = FileSink::create(&path).unwrap();
            sink.record(0, TraceEvent::FlitDeflected { node: 7 });
            // No explicit flush: Drop must flush the buffer.
        }
        let got = std::fs::read_to_string(&path).unwrap();
        assert!(got.contains("deflect"));
        std::fs::remove_file(&path).ok();
    }
}
