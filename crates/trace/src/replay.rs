//! The replay engine.
//!
//! [`replay_events`] walks a recorded stream and drives a [`ReplayTarget`]
//! (in practice `laec_mem::ReplayMemory`: the memory hierarchy plus an
//! optional fault campaign or seed overlays) through exactly the calls the
//! full simulator
//! would have made: same addresses, same cycle stamps, same store values,
//! same injection-opportunity interleaving.  Pipeline re-simulation is
//! skipped entirely — the pipeline-side statistics of the cell come from
//! the trace's [`TraceSummary`](crate::TraceSummary).
//!
//! # The checked byte-identical guarantee
//!
//! Skipping the pipeline is only sound while the recorded stream is still
//! what the full simulator *would* execute.  An injected fault can break
//! that in exactly two ways, and both are visible at the faulted load:
//!
//! 1. **value divergence** — the load returns a different word than the
//!    recording (silent corruption in an unprotected DL1, an uncorrectable
//!    flip on dirty data, …).  The corrupted value would flow into a
//!    register and could steer branches, so the rest of the recorded stream
//!    can no longer be trusted.
//! 2. **timing divergence** — the load's hit/miss status or stall cycles
//!    differ (a detected-uncorrectable error on a clean line triggers an
//!    invalidate-and-refetch), or the active scheme turns a *corrected*
//!    error into a timing event (speculate-and-flush pays its flush
//!    penalty on every detected error).  The recorded cycle stamps — and
//!    the recorded total-cycle count — are then stale.
//!
//! The driver compares every load response against the recording and
//! reports the first [`Divergence`]; only a full simulation can then tell
//! the run's result.  A fault-free replay, which the campaign engines run
//! with the fault seeds as overlays, never diverges from its own
//! recording.

use crate::event::TraceEvent;
use crate::format::TraceError;

/// A replayed load response, as the target observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayLoad {
    /// The loaded aligned word.
    pub value: u32,
    /// `true` if the access hit in the DL1.
    pub hit: bool,
    /// Stall cycles beyond a 1-cycle DL1 hit.
    pub extra_cycles: u32,
    /// `true` if the response carries an ECC outcome that perturbs timing
    /// under the active scheme (e.g. any detected error under
    /// speculate-and-flush).  Recorded fault-free streams never do.
    pub timing_error: bool,
}

/// What the replay engine drives: the memory hierarchy plus fault
/// injection, abstracted so this crate stays dependency-free.
pub trait ReplayTarget {
    /// Performs a load at the recorded cycle stamp.
    fn replay_load(&mut self, address: u32, cycle: u64) -> ReplayLoad;
    /// Performs a store at the recorded cycle stamp.
    fn replay_store(&mut self, address: u32, value: u32, byte_mask: u8, cycle: u64);
    /// Advances `count` instruction commits — `count` fault-injection
    /// opportunities, in recorded order relative to the accesses.
    fn replay_commits(&mut self, count: u64);
}

/// Why a replay had to abandon the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// A load returned a different value than the recording: the corrupted
    /// word would reach a register, so control flow may differ from here on.
    LoadValue {
        /// Index of the diverging event.
        event: u64,
        /// Address of the load.
        address: u32,
        /// What the fault-free recording loaded.
        recorded: u32,
        /// What the replay loaded.
        replayed: u32,
    },
    /// A load's hit/miss status or stall cycles differ from the recording
    /// (e.g. an uncorrectable error forced an invalidate-and-refetch): the
    /// recorded cycle stamps are stale.
    LoadTiming {
        /// Index of the diverging event.
        event: u64,
        /// Address of the load.
        address: u32,
    },
    /// The response carries an ECC outcome that the active scheme turns
    /// into extra cycles (speculate-and-flush's recovery penalty).
    SchemeTimingError {
        /// Index of the diverging event.
        event: u64,
        /// Address of the load.
        address: u32,
    },
    /// The trace does not fit the cell it is replayed for: a foreign
    /// workload or configuration, or event counts that disagree with its
    /// summary.
    Trace(TraceError),
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::LoadValue {
                event,
                address,
                recorded,
                replayed,
            } => write!(
                f,
                "load value diverged at event {event} (address {address:#x}: \
                 recorded {recorded:#x}, replayed {replayed:#x})"
            ),
            Divergence::LoadTiming { event, address } => write!(
                f,
                "load timing diverged at event {event} (address {address:#x})"
            ),
            Divergence::SchemeTimingError { event, address } => write!(
                f,
                "scheme-level timing error at event {event} (address {address:#x})"
            ),
            Divergence::Trace(error) => write!(f, "trace error: {error}"),
        }
    }
}

impl std::error::Error for Divergence {}

/// Counters of a completed replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayProgress {
    /// Events consumed.
    pub events: u64,
    /// Instruction commits replayed (= injection opportunities offered).
    pub commits: u64,
    /// Loads replayed.
    pub loads: u64,
    /// Stores replayed.
    pub stores: u64,
}

/// Replays `events` (usually [`Trace::events`](crate::Trace::events))
/// against `target`, checking faithfulness at every load.
///
/// # Errors
///
/// Returns the first [`Divergence`] (the target's state is then partial
/// and must be discarded; fall back to full simulation).
pub fn replay_events<T: ReplayTarget>(
    events: &[TraceEvent],
    target: &mut T,
) -> Result<ReplayProgress, Divergence> {
    let mut progress = ReplayProgress::default();
    for (index, &event) in events.iter().enumerate() {
        progress.events += 1;
        match event {
            TraceEvent::Commit { count, .. } => {
                progress.commits += count;
                target.replay_commits(count);
            }
            TraceEvent::MemRead {
                address,
                cycle,
                value,
                hit,
                extra_cycles,
                ..
            } => {
                progress.loads += 1;
                let response = target.replay_load(address, cycle);
                if response.timing_error {
                    return Err(Divergence::SchemeTimingError {
                        event: index as u64,
                        address,
                    });
                }
                if response.hit != hit || response.extra_cycles != extra_cycles {
                    return Err(Divergence::LoadTiming {
                        event: index as u64,
                        address,
                    });
                }
                if response.value != value {
                    return Err(Divergence::LoadValue {
                        event: index as u64,
                        address,
                        recorded: value,
                        replayed: response.value,
                    });
                }
            }
            TraceEvent::MemWrite {
                address,
                cycle,
                value,
                byte_mask,
                ..
            } => {
                progress.stores += 1;
                target.replay_store(address, value, byte_mask, cycle);
            }
            // Informational events carry no replayable work.
            TraceEvent::Fetch { .. }
            | TraceEvent::Stall { .. }
            | TraceEvent::LineFill { .. }
            | TraceEvent::Writeback { .. } => {}
        }
    }
    Ok(progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{TraceContext, TraceRecorder};
    use crate::{Trace, TraceSummary};

    /// Scripted target: answers loads from a queue and logs calls.
    #[derive(Debug, Default)]
    struct Scripted {
        responses: Vec<ReplayLoad>,
        log: Vec<String>,
    }

    impl ReplayTarget for Scripted {
        fn replay_load(&mut self, address: u32, cycle: u64) -> ReplayLoad {
            self.log.push(format!("ld {address:#x}@{cycle}"));
            self.responses.remove(0)
        }

        fn replay_store(&mut self, address: u32, value: u32, mask: u8, cycle: u64) {
            self.log
                .push(format!("st {address:#x}={value}/{mask}@{cycle}"));
        }

        fn replay_commits(&mut self, count: u64) {
            self.log.push(format!("commit x{count}"));
        }
    }

    fn recorded_trace() -> Trace {
        let mut recorder = TraceRecorder::new(TraceContext::new("w", "s", "p", 0));
        recorder.record_mem_read(0x100, 4, 77, true, 0);
        recorder.record_commit();
        recorder.record_commit();
        recorder.record_mem_write(0x104, 8, 5, 0xF);
        recorder.record_commit();
        recorder.finish(TraceSummary::default())
    }

    fn faithful_response() -> ReplayLoad {
        ReplayLoad {
            value: 77,
            hit: true,
            extra_cycles: 0,
            timing_error: false,
        }
    }

    #[test]
    fn faithful_replay_preserves_order_and_counts() {
        let mut target = Scripted {
            responses: vec![faithful_response()],
            log: Vec::new(),
        };
        let progress = replay_events(recorded_trace().events(), &mut target).expect("faithful");
        assert_eq!(
            target.log,
            vec!["ld 0x100@4", "commit x2", "st 0x104=5/15@8", "commit x1"]
        );
        assert_eq!(
            progress,
            ReplayProgress {
                events: 4,
                commits: 3,
                loads: 1,
                stores: 1
            }
        );
    }

    #[test]
    fn value_divergence_is_reported() {
        let mut target = Scripted {
            responses: vec![ReplayLoad {
                value: 78,
                ..faithful_response()
            }],
            log: Vec::new(),
        };
        let error = replay_events(recorded_trace().events(), &mut target).unwrap_err();
        assert_eq!(
            error,
            Divergence::LoadValue {
                event: 0,
                address: 0x100,
                recorded: 77,
                replayed: 78
            }
        );
    }

    #[test]
    fn timing_divergence_is_reported() {
        let mut target = Scripted {
            responses: vec![ReplayLoad {
                hit: false,
                extra_cycles: 14,
                ..faithful_response()
            }],
            log: Vec::new(),
        };
        assert_eq!(
            replay_events(recorded_trace().events(), &mut target).unwrap_err(),
            Divergence::LoadTiming {
                event: 0,
                address: 0x100
            }
        );
    }

    #[test]
    fn scheme_timing_error_is_reported_before_value_checks() {
        let mut target = Scripted {
            responses: vec![ReplayLoad {
                timing_error: true,
                ..faithful_response()
            }],
            log: Vec::new(),
        };
        assert_eq!(
            replay_events(recorded_trace().events(), &mut target).unwrap_err(),
            Divergence::SchemeTimingError {
                event: 0,
                address: 0x100
            }
        );
    }
}
