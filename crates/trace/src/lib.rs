//! Trace capture & replay for the LAEC campaign engine.
//!
//! The pipeline-level access stream of a campaign cell is identical across
//! fault seeds — only the injected faults differ.  This crate implements
//! the standard trace-driven-simulation technique: record the
//! access/commit stream of the fault-free run once per workload × platform
//! × scheme, then *replay* it directly against the memory hierarchy,
//! skipping pipeline re-simulation entirely.  The campaign engines replay
//! a fault-free recording carrying the cell's fault seeds as overlays
//! (`laec_mem::overlay`); a replay can also carry one fault campaign
//! (`laec-cli trace replay --fault-seed`).
//!
//! Modules:
//!
//! * [`event`] — the [`TraceEvent`] record model (fetch / mem-read /
//!   mem-write / commit / stall / line-fill / writeback, with cycle stamps),
//! * [`varint`] — the LEB128 + zigzag primitives of the binary format,
//! * [`format`](mod@format) — [`Trace`] (a [`TraceHeader`] with its
//!   [`TraceSummary`] plus the decoded events) and its versioned,
//!   delta-encoded binary container, written and read only when a trace is
//!   persisted,
//! * [`record`] — the capture side: the [`TraceRecorder`], which the one
//!   `laec_mem::MemorySystem` of a run owns and the pipeline reaches
//!   through the hierarchy's recorder accessor; it appends events to an
//!   in-memory stream,
//! * [`replay`] — the replay engine: a generic [`ReplayTarget`] driver with
//!   *checked* divergence detection, the foundation of the byte-identical
//!   guarantee of trace-backed campaigns.
//!
//! # Why replay can be byte-identical
//!
//! A replayed faulty run is indistinguishable from a fully simulated one as
//! long as no injected fault perturbs the recorded stream: the memory
//! hierarchy is driven through exactly the same calls (same addresses, same
//! cycle stamps, same store values, same injection opportunities), so its
//! internal state — and therefore every counter, checksum and ECC outcome —
//! evolves identically.  The replay driver *checks* this invariant at every
//! load: the moment a response's value, hit/miss status, stall cycles or
//! timing-relevant ECC outcome differs from the recording, it reports a
//! [`replay::Divergence`], and only a full simulation can tell that run's
//! result.
//!
//! # Example
//!
//! ```
//! use laec_trace::{ReplayTarget, ReplayLoad, TraceContext, TraceRecorder, TraceSummary,
//!     replay_events};
//!
//! // Record a tiny stream: one load, two commits, one store.
//! let mut recorder = TraceRecorder::new(TraceContext::new("demo", "laec", "wb", 7));
//! recorder.record_mem_read(0x100, 4, 42, true, 0);
//! recorder.record_commit();
//! recorder.record_commit();
//! recorder.record_mem_write(0x104, 9, 7, 0xF);
//! recorder.record_commit();
//! let trace = recorder.finish(TraceSummary::default());
//!
//! // Replay it against a toy target that answers every load with 42.
//! struct Toy(u64);
//! impl ReplayTarget for Toy {
//!     fn replay_load(&mut self, _address: u32, _cycle: u64) -> ReplayLoad {
//!         ReplayLoad { value: 42, hit: true, extra_cycles: 0, timing_error: false }
//!     }
//!     fn replay_store(&mut self, _address: u32, _value: u32, _mask: u8, _cycle: u64) {}
//!     fn replay_commits(&mut self, count: u64) { self.0 += count; }
//! }
//! let mut toy = Toy(0);
//! replay_events(trace.events(), &mut toy).expect("faithful replay");
//! assert_eq!(toy.0, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod format;
pub mod record;
pub mod replay;
pub mod varint;

pub use event::{MemLevel, StallKind, TraceEvent};
pub use format::{Trace, TraceError, TraceHeader, TraceSummary, FORMAT_VERSION};
pub use record::{TraceContext, TraceDetail, TraceRecorder};
pub use replay::{replay_events, Divergence, ReplayLoad, ReplayProgress, ReplayTarget};
