//! Phase-scoped wall-clock timing spans.
//!
//! A [`Phase`] names one stage of campaign execution; [`crate::Obs::span`]
//! opens a [`Span`] guard that accumulates the scope's elapsed wall-clock
//! time into the registry's timing table on drop.  When observability is
//! disabled the guard holds nothing and the scope pays neither a clock
//! read nor a lock — the same pay-nothing-when-off discipline as the
//! trace recorder's capture hooks.

/// One instrumented stage of campaign execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Decoding a cached recording from disk, and replaying it as its
    /// triple's fault-free run.
    TraceDecode,
    /// Recording a cell's fault-free run.
    TraceRecord,
    /// Replaying a recording against the memory hierarchy.
    Replay,
    /// A faulty cell under full simulation (the injection path).
    Inject,
    /// A fault-free cell under full simulation.
    FullSim,
    /// A faulty cell served from the seed overlay its triple's fault-free
    /// run carried (progress events only: the cell costs no run of its
    /// own, so its time is inside that run's span).
    Overlay,
    /// One round of the stratified sampler (schedule, execute, fold).
    SamplerRound,
    /// Writing a sampler checkpoint to disk.
    CheckpointWrite,
    /// Rendering the final report (text or JSON).
    ReportRender,
}

impl Phase {
    /// The stable label the self-profile table and the JSONL events use.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::TraceDecode => "trace_decode",
            Phase::TraceRecord => "trace_record",
            Phase::Replay => "replay",
            Phase::Inject => "inject",
            Phase::FullSim => "full_sim",
            Phase::Overlay => "overlay",
            Phase::SamplerRound => "sampler_round",
            Phase::CheckpointWrite => "checkpoint_write",
            Phase::ReportRender => "report_render",
        }
    }
}

/// An open timing span; closes (and records) when dropped.
///
/// Obtained from [`crate::Obs::span`].  An inert span (observability off)
/// is a no-op from construction to drop.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive in"]
pub struct Span<'a> {
    pub(crate) active: Option<OpenSpan<'a>>,
}

#[derive(Debug)]
pub(crate) struct OpenSpan<'a> {
    pub(crate) obs: &'a crate::ObsInner,
    pub(crate) phase: Phase,
    pub(crate) started: std::time::Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.active.take() {
            let elapsed = open.started.elapsed();
            let mut timings = crate::lock(&open.obs.timings);
            let stats = timings.entry(open.phase.label()).or_default();
            stats.calls += 1;
            stats.total_ns += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let phases = [
            Phase::TraceDecode,
            Phase::TraceRecord,
            Phase::Replay,
            Phase::Inject,
            Phase::FullSim,
            Phase::Overlay,
            Phase::SamplerRound,
            Phase::CheckpointWrite,
            Phase::ReportRender,
        ];
        let labels: std::collections::BTreeSet<&str> = phases.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), phases.len());
        assert!(labels.contains("overlay"));
    }

    #[test]
    fn inert_span_is_a_no_op() {
        let span = Span { active: None };
        drop(span);
    }
}
