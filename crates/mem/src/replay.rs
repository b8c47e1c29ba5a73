//! The memory-hierarchy side of trace replay.
//!
//! [`ReplayMemory`] wires a fresh [`MemorySystem`] (plus an optional
//! [`FaultCampaign`] or [`SeedOverlays`]) into `laec_trace`'s
//! [`ReplayTarget`] so a recorded access/commit stream can be re-executed
//! without the pipeline: loads and stores are issued at their recorded
//! cycle stamps, and every recorded commit is offered to the fault campaign
//! or the overlays as an injection opportunity — exactly the interleaving
//! the full simulator produces.  A recorded commit run is offered at once
//! ([`FaultCampaign::maybe_inject_many`], [`MemorySystem::commit_overlays`]),
//! so access-free stretches of the program cost O(strikes), not
//! O(instructions).

use laec_trace::{ReplayLoad, ReplayTarget};

use crate::bus::Interference;
use crate::config::HierarchyConfig;
use crate::fault::{FaultCampaign, FaultCampaignConfig, FaultCampaignReport};
use crate::hierarchy::MemorySystem;
use crate::overlay::SeedOverlays;
use crate::stats::MemStats;

/// A memory system (plus an optional fault campaign or seed overlays)
/// driven by a trace.
#[derive(Debug)]
pub struct ReplayMemory {
    system: MemorySystem,
    campaign: Option<FaultCampaign>,
    /// `true` when the scheme under replay pays a timing penalty on *any*
    /// detected ECC error (the speculate-and-flush recovery): such a
    /// response must be reported as a timing divergence even if the error
    /// was corrected.
    flush_on_error: bool,
}

impl ReplayMemory {
    /// Builds an empty replay target over `config`.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        ReplayMemory {
            system: MemorySystem::new(config),
            campaign: None,
            flush_on_error: false,
        }
    }

    /// Installs a fault campaign (builder style).
    #[must_use]
    pub fn with_fault_campaign(mut self, config: FaultCampaignConfig) -> Self {
        self.campaign = Some(FaultCampaign::new(config));
        self
    }

    /// Installs bus interference (builder style).
    #[must_use]
    pub fn with_bus_interference(mut self, interference: Interference) -> Self {
        self.system.set_bus_interference(interference);
        self
    }

    /// Marks the replayed scheme as paying a flush penalty on detected
    /// errors (builder style; speculate-and-flush only).
    #[must_use]
    pub fn with_flush_on_error(mut self, flush_on_error: bool) -> Self {
        self.flush_on_error = flush_on_error;
        self
    }

    /// Carries `overlays` through the replay of a fault-free recording:
    /// each seed is evaluated against the replayed hierarchy, as a
    /// simulation would evaluate it (see [`MemorySystem::attach_overlays`]).
    pub fn attach_overlays(&mut self, overlays: SeedOverlays) {
        self.system.attach_overlays(overlays);
    }

    /// Detaches the seed overlays, settled against the memory image; take
    /// them after [`ReplayMemory::drain_to_memory`].
    pub fn take_overlays(&mut self) -> Option<SeedOverlays> {
        self.system.take_overlays()
    }

    /// Pre-sizes main memory for a data image of about `words` words.
    pub fn reserve_memory(&mut self, words: usize) {
        self.system.reserve_memory(words);
    }

    /// Pre-loads the program's data image (mirrors `Simulator::new`).
    pub fn preload_word(&mut self, address: u32, value: u32) {
        self.system.preload_word(address, value);
    }

    /// The underlying memory system (statistics, error counters).
    #[must_use]
    pub fn system(&self) -> &MemorySystem {
        &self.system
    }

    /// Accumulated memory statistics.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.system.core_stats(0)
    }

    /// The fault campaign's counters (zeroes when no campaign is attached).
    #[must_use]
    pub fn campaign_report(&self) -> FaultCampaignReport {
        self.campaign
            .as_ref()
            .map_or_else(FaultCampaignReport::default, FaultCampaign::report)
    }

    /// Flushes dirty state and returns the final memory-image checksum
    /// (mirrors the end of `Simulator::execute`).
    pub fn drain_to_memory(&mut self) -> u64 {
        self.system.drain(0)
    }
}

impl ReplayTarget for ReplayMemory {
    fn replay_load(&mut self, address: u32, cycle: u64) -> ReplayLoad {
        let response = self.system.load(0, address, cycle);
        ReplayLoad {
            value: response.value,
            hit: response.dl1_hit,
            extra_cycles: response.extra_cycles,
            timing_error: self.flush_on_error && response.outcome.is_error(),
        }
    }

    fn replay_store(&mut self, address: u32, value: u32, byte_mask: u8, cycle: u64) {
        let _ = self.system.store(0, address, value, byte_mask, cycle);
    }

    fn replay_commits(&mut self, count: u64) {
        if let Some(campaign) = &mut self.campaign {
            let _ = campaign.maybe_inject_many(count, &mut self.system, 0);
        }
        self.system.commit_overlays(0, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laec_trace::{replay_events, Trace, TraceContext, TraceRecorder, TraceSummary};

    /// Drives a scripted access pattern against a plain `MemorySystem`
    /// while recording it, then replays the recording against a twin and
    /// checks the two systems are indistinguishable.
    #[test]
    fn replayed_twin_matches_the_original_system() {
        let mut recorder = TraceRecorder::new(TraceContext::new("twin", "laec", "wb", 0));
        let mut original = MemorySystem::new(HierarchyConfig::ngmp_write_back());
        for i in 0..16u32 {
            original.preload_word(0x1000 + 4 * i, i * 3);
        }
        let mut cycle = 0u64;
        for i in 0..16u32 {
            let address = 0x1000 + 4 * (i % 8);
            let response = original.load(0, address, cycle);
            recorder.record_mem_read(
                address,
                cycle,
                response.value,
                response.dl1_hit,
                response.extra_cycles,
            );
            recorder.record_commit();
            cycle += 1 + u64::from(response.extra_cycles);
            if i % 3 == 0 {
                let value = 0xA000 + i;
                original.store(0, address, value, 0xF, cycle);
                recorder.record_mem_write(address, cycle, value, 0xF);
                recorder.record_commit();
                cycle += 1;
            }
        }
        let original_stats = original.core_stats(0);
        let trace = recorder.finish(TraceSummary::default());

        let mut twin = ReplayMemory::new(HierarchyConfig::ngmp_write_back());
        for i in 0..16u32 {
            twin.preload_word(0x1000 + 4 * i, i * 3);
        }
        let progress = replay_events(trace.events(), &mut twin).expect("no faults, no divergence");
        assert_eq!(progress.loads, 16);
        assert_eq!(twin.stats(), original_stats);
        assert_eq!(twin.drain_to_memory(), original.drain(0));
    }

    #[test]
    fn injection_opportunities_follow_recorded_commit_runs() {
        // 25 commits at interval 10 → 2 injections, regardless of how the
        // commits were run-length encoded.
        let config = HierarchyConfig::ngmp_write_back();
        let mut recorder = TraceRecorder::new(TraceContext::new("w", "s", "p", 0));
        recorder.record_mem_read(0x2000, 0, 0, false, config.memory_penalty());
        for _ in 0..25 {
            recorder.record_commit();
        }
        let trace = recorder.finish(TraceSummary::default());

        let mut target =
            ReplayMemory::new(config).with_fault_campaign(FaultCampaignConfig::single_bit(3, 10));
        target.preload_word(0x2000, 0);
        // The single recorded load misses and refills — matching the twin
        // response — then the commit run drives the campaign.
        replay_events(trace.events(), &mut target).expect("faithful");
        assert_eq!(target.campaign_report().injected, 2);
    }

    /// Records a fault-free stream that keeps re-reading one warm DL1 line,
    /// so a replay with injection *must* read back a strike eventually.
    fn scrub_loop_trace(rounds: u32) -> Trace {
        let mut recorder = TraceRecorder::new(TraceContext::new("w", "s", "p", 0));
        let mut original = MemorySystem::new(HierarchyConfig::ngmp_write_back());
        for i in 0..8u32 {
            original.preload_word(0x3000 + 4 * i, 100 + i);
        }
        let mut cycle = 0u64;
        for round in 0..rounds {
            for i in 0..8u32 {
                let address = 0x3000 + 4 * i;
                let response = original.load(0, address, cycle);
                recorder.record_mem_read(
                    address,
                    cycle,
                    response.value,
                    response.dl1_hit,
                    response.extra_cycles,
                );
                recorder.record_commit();
                cycle += 1 + u64::from(response.extra_cycles) + u64::from(round);
            }
        }
        recorder.finish(TraceSummary::default())
    }

    #[test]
    fn speculate_flush_reports_read_back_errors_as_divergence() {
        // Interval 1: a strike lands in the warm line after every commit,
        // and the stream keeps reading the whole line, so some load reads
        // back an error.  Under flush-on-error semantics even a *corrected*
        // error is a timing event — the replay must refuse to continue.
        let trace = scrub_loop_trace(6);
        let mut target = ReplayMemory::new(HierarchyConfig::ngmp_write_back())
            .with_fault_campaign(FaultCampaignConfig::single_bit(11, 1))
            .with_flush_on_error(true);
        for i in 0..8u32 {
            target.preload_word(0x3000 + 4 * i, 100 + i);
        }
        let error = replay_events(trace.events(), &mut target).unwrap_err();
        assert!(
            matches!(error, laec_trace::Divergence::SchemeTimingError { .. }),
            "{error}"
        );
    }

    #[test]
    fn absorbed_strikes_replay_without_divergence_and_are_counted() {
        // Without flush-on-error semantics, SEC-DED absorbs sparse single-
        // bit strikes: the replay completes and the corrected counter of
        // the replayed system shows the strikes were really read back.
        let trace = scrub_loop_trace(8);
        let mut target = ReplayMemory::new(HierarchyConfig::ngmp_write_back())
            .with_fault_campaign(FaultCampaignConfig::single_bit(0xFEED, 16));
        for i in 0..8u32 {
            target.preload_word(0x3000 + 4 * i, 100 + i);
        }
        replay_events(trace.events(), &mut target).expect("SEC-DED absorbs the strikes");
        let report = target.campaign_report();
        assert_eq!(report.injected, 4, "64 commits at interval 16");
        assert!(
            target.stats().dl1.ecc.corrected() > 0,
            "strikes were read back and corrected"
        );
    }
}
