//! The capture side: the [`TraceRecorder`].
//!
//! A recording has one owner from its first event to its last replay.
//! `laec_mem::MemorySystem` holds an optional recorder (`None` by default,
//! so every emission site costs one branch on untraced runs); the pipeline
//! reaches it through the hierarchy's recorder accessor and the hierarchy
//! emits its own
//! line-fill and writeback events into the same stream.  The recorder
//! appends plain [`TraceEvent`]s; nothing is encoded until a trace is
//! persisted ([`Trace::encode`]).

use serde::Serialize;

use crate::event::{MemLevel, StallKind, TraceEvent};
use crate::format::{Trace, TraceHeader, TraceSummary, FORMAT_VERSION};

/// How much of the stream a recording keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceDetail {
    /// Only the events replay needs: memory accesses and commits.  This is
    /// what campaign traces use.
    Replay,
    /// Everything, including fetches, stalls, line fills and writebacks —
    /// for `laec-cli trace info` style inspection.
    Full,
}

/// Identity of a recording: which cell of the campaign grid the stream
/// belongs to, and a fingerprint of everything that shaped it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Platform label.
    pub platform: String,
    /// Hash of the recording configuration (spec seed, generator shape,
    /// scheme, hierarchy parameters).
    pub fingerprint: u64,
}

impl TraceContext {
    /// Builds a context from its parts.
    #[must_use]
    pub fn new(
        workload: impl Into<String>,
        scheme: impl Into<String>,
        platform: impl Into<String>,
        fingerprint: u64,
    ) -> Self {
        TraceContext {
            workload: workload.into(),
            scheme: scheme.into(),
            platform: platform.into(),
            fingerprint,
        }
    }
}

/// Appends capture events to an in-memory stream.
///
/// Consecutive commits are run-length-merged into one
/// [`TraceEvent::Commit`]; in [`TraceDetail::Replay`] mode the informational
/// events (fetch, stall, fill, writeback) are dropped at the door.
#[derive(Debug)]
pub struct TraceRecorder {
    context: TraceContext,
    detail: TraceDetail,
    events: Vec<TraceEvent>,
    pending_commits: u64,
    /// Core the pending commit run belongs to (runs never span cores).
    pending_core: u8,
    /// Core stamped onto subsequently recorded events (see
    /// [`TraceRecorder::set_core`]); single-core recordings leave it at 0.
    current_core: u8,
}

impl TraceRecorder {
    /// A replay-detail recorder (campaign traces).
    #[must_use]
    pub fn new(context: TraceContext) -> Self {
        TraceRecorder::with_detail(context, TraceDetail::Replay)
    }

    /// A full-detail recorder (inspection traces).
    #[must_use]
    pub fn full(context: TraceContext) -> Self {
        TraceRecorder::with_detail(context, TraceDetail::Full)
    }

    /// A recorder with an explicit detail level.
    #[must_use]
    pub fn with_detail(context: TraceContext, detail: TraceDetail) -> Self {
        TraceRecorder {
            context,
            detail,
            events: Vec::with_capacity(1024),
            pending_commits: 0,
            pending_core: 0,
            current_core: 0,
        }
    }

    /// Sets the core id stamped onto subsequently recorded events.
    /// Single-core recordings never touch it.
    pub fn set_core(&mut self, core: u8) {
        self.current_core = core;
    }

    /// Events recorded so far (merged commits count as one).
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.events.len() as u64 + u64::from(self.pending_commits > 0)
    }

    fn push(&mut self, event: TraceEvent) {
        self.flush_commits();
        self.events.push(event);
    }

    fn flush_commits(&mut self) {
        if self.pending_commits > 0 {
            self.events.push(TraceEvent::Commit {
                count: self.pending_commits,
                core: self.pending_core,
            });
            self.pending_commits = 0;
        }
    }

    /// Seals the recording into a [`Trace`], attaching the fault-free run's
    /// `summary`.
    #[must_use]
    pub fn finish(mut self, summary: TraceSummary) -> Trace {
        self.flush_commits();
        self.events.shrink_to_fit();
        Trace::from_parts(
            TraceHeader {
                version: FORMAT_VERSION,
                detail: self.detail,
                workload: self.context.workload,
                scheme: self.context.scheme,
                platform: self.context.platform,
                context_fingerprint: self.context.fingerprint,
                summary,
                event_count: self.events.len() as u64,
            },
            self.events,
        )
    }

    /// An instruction fetch entered the pipeline.
    pub fn record_fetch(&mut self, pc: u32, cycle: u64) {
        if self.detail == TraceDetail::Full {
            self.push(TraceEvent::Fetch {
                pc,
                cycle,
                core: self.current_core,
            });
        }
    }

    /// A load was issued to the memory system.
    pub fn record_mem_read(&mut self, address: u32, cycle: u64, value: u32, hit: bool, extra: u32) {
        self.push(TraceEvent::MemRead {
            address,
            cycle,
            value,
            hit,
            extra_cycles: extra,
            core: self.current_core,
        });
    }

    /// A store was issued to the memory system.
    pub fn record_mem_write(&mut self, address: u32, cycle: u64, value: u32, byte_mask: u8) {
        self.push(TraceEvent::MemWrite {
            address,
            cycle,
            value,
            byte_mask,
            core: self.current_core,
        });
    }

    /// One instruction committed (one fault-injection opportunity).
    pub fn record_commit(&mut self) {
        if self.pending_commits > 0 && self.pending_core != self.current_core {
            // Commit runs never span cores: seal the other core's run first.
            self.flush_commits();
        }
        self.pending_core = self.current_core;
        self.pending_commits += 1;
    }

    /// The pipeline stalled.
    pub fn record_stall(&mut self, kind: StallKind, cycle: u64, cycles: u64) {
        if self.detail == TraceDetail::Full {
            self.push(TraceEvent::Stall {
                kind,
                cycle,
                cycles,
                core: self.current_core,
            });
        }
    }

    /// A cache level filled a line.
    pub fn record_line_fill(&mut self, level: MemLevel, address: u32) {
        if self.detail == TraceDetail::Full {
            self.push(TraceEvent::LineFill {
                level,
                address,
                core: self.current_core,
            });
        }
    }

    /// A cache level wrote a dirty line back.
    pub fn record_writeback(&mut self, level: MemLevel, address: u32) {
        if self.detail == TraceDetail::Full {
            self.push(TraceEvent::Writeback {
                level,
                address,
                core: self.current_core,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_detail_drops_informational_events() {
        let mut recorder = TraceRecorder::new(TraceContext::new("w", "s", "p", 0));
        recorder.record_fetch(0, 1);
        recorder.record_stall(StallKind::Operand, 2, 3);
        recorder.record_line_fill(MemLevel::Dl1, 0x100);
        recorder.record_writeback(MemLevel::L2, 0x200);
        recorder.record_commit();
        let trace = recorder.finish(TraceSummary::default());
        assert_eq!(trace.events(), [TraceEvent::Commit { count: 1, core: 0 }]);
    }

    #[test]
    fn commit_runs_merge_and_flush_on_interleaved_accesses() {
        let mut recorder = TraceRecorder::new(TraceContext::new("w", "s", "p", 0));
        recorder.record_commit();
        recorder.record_commit();
        recorder.record_mem_read(0, 1, 2, true, 0);
        recorder.record_commit();
        assert_eq!(recorder.event_count(), 3);
        let trace = recorder.finish(TraceSummary::default());
        let events = trace.events();
        assert!(matches!(
            events[0],
            TraceEvent::Commit { count: 2, core: 0 }
        ));
        assert!(matches!(events[1], TraceEvent::MemRead { .. }));
        assert!(matches!(
            events[2],
            TraceEvent::Commit { count: 1, core: 0 }
        ));
    }

    #[test]
    fn shared_sink_merges_two_emitters_and_unwraps_once_free() {
        // The pipeline's and the hierarchy's events reach one owner's
        // stream in emission order, and sealing it needs no other handle.
        let mut recorder = TraceRecorder::full(TraceContext::new("w", "s", "p", 0));
        recorder.record_mem_read(0x10, 1, 0, false, 9);
        recorder.record_line_fill(MemLevel::Dl1, 0x10);
        recorder.record_commit();
        let trace = recorder.finish(TraceSummary::default());
        assert_eq!(trace.header.event_count, 3);
        assert!(matches!(trace.events()[1], TraceEvent::LineFill { .. }));
    }
}
