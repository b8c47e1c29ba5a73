//! The N-core system: one pipeline per core over the coherent hierarchy,
//! advanced in deterministic cycle interleaving.
//!
//! # Scheduling
//!
//! Each [`Core`] is instruction-stepped and keeps a local clock
//! (the retirement cycle of its newest instruction).  The system always
//! steps the unfinished core whose clock is furthest behind, breaking ties
//! by core id — a deterministic round-robin interleaving of the cores'
//! cycles that depends only on the programs and configuration, never on
//! host threads or wall time.  Flag-polling synchronisation is live-lock
//! free under this policy: a spinning consumer's clock races ahead, so the
//! producer it waits for is always scheduled.

use laec_isa::Program;
use laec_mem::{CellForensics, CoherenceStats, MemorySystem, ProtocolKind, SeedOverlays};
use laec_pipeline::{Core, PipelineConfig, SimResult};

/// When the system stops stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopPolicy {
    /// Step until every core halts (shared-memory kernels, which all
    /// terminate).  Cores that never halt stop at their instruction cap.
    AllHalt,
    /// Step until core 0 — the observed core — halts; the other cores are
    /// frozen wherever they are.  This is the campaign mode: background
    /// cores generate real bus/L2/coherence contention but are not
    /// themselves measured (and, being read-only, never perturb
    /// architectural results).
    ObservedCoreHalts,
}

/// Everything an SMP run reports.
#[derive(Debug, Clone)]
pub struct SmpRunResult {
    /// Per-core results, index = core id.  Cores frozen by
    /// [`StopPolicy::ObservedCoreHalts`] report their partial progress.
    pub cores: Vec<SimResult>,
    /// Checksum of the final memory image after *every* core drained —
    /// unlike the per-core `SimResult::memory_checksum` snapshots, this is
    /// the system-wide final state.
    pub final_checksum: u64,
    /// Coherence-protocol event counters.
    pub coherence: CoherenceStats,
    /// The system's per-fault lifecycle records, taken once after every
    /// core drained; present only when [`SmpSystem::enable_forensics`] was
    /// called before the run.
    pub forensics: Option<CellForensics>,
}

/// An N-core system: one [`Core`] per core, all stepping with the one
/// [`MemorySystem`].
#[derive(Debug)]
pub struct SmpSystem {
    memory: MemorySystem,
    cores: Vec<Core>,
}

impl SmpSystem {
    /// Builds a system running `programs[i]` on core *i* under
    /// `configs[i]`.  All configurations must agree on the hierarchy
    /// geometry (there is only one shared bus/L2); the data images of every
    /// program are preloaded into the shared memory.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty, lengths differ, or the
    /// configurations' hierarchies disagree.
    #[must_use]
    pub fn new(programs: Vec<Program>, configs: Vec<PipelineConfig>) -> Self {
        SmpSystem::with_protocol(programs, configs, ProtocolKind::Mesi)
    }

    /// [`SmpSystem::new`] with an explicit coherence protocol governing the
    /// shared hierarchy (`new` is MESI).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SmpSystem::new`].
    #[must_use]
    pub fn with_protocol(
        programs: Vec<Program>,
        configs: Vec<PipelineConfig>,
        protocol: ProtocolKind,
    ) -> Self {
        assert!(!programs.is_empty(), "need at least one core");
        assert_eq!(programs.len(), configs.len(), "one config per core");
        let hierarchy = configs[0].hierarchy;
        assert!(
            configs.iter().all(|c| c.hierarchy == hierarchy),
            "all cores share one hierarchy"
        );
        let mut memory = MemorySystem::with_cores(hierarchy, programs.len(), protocol);
        let words: usize = programs.iter().map(|p| p.data().len()).sum();
        memory.reserve_memory(words);
        for program in &programs {
            for &(address, value) in program.data() {
                memory.preload_word(address, value);
            }
        }
        if let Some(interference) = configs[0].bus_interference {
            memory.set_bus_interference(interference);
        }
        let cores = programs
            .into_iter()
            .zip(configs)
            .enumerate()
            .map(|(core, (program, config))| Core::new(core, program, config))
            .collect();
        SmpSystem { memory, cores }
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// The shared coherent memory (inspection).
    #[must_use]
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Turns on per-fault lifecycle forensics in the shared hierarchy.
    /// Call before the run; the records come back in
    /// [`SmpRunResult::forensics`].
    pub fn enable_forensics(&mut self) {
        self.memory.enable_forensics();
    }

    /// Carries `overlays`, fault seeds striking the DL1 of core 0 — the
    /// observed core — through this fault-free run (see
    /// `laec_mem::overlay`).  Call before the run.
    pub fn attach_overlays(&mut self, overlays: SeedOverlays) {
        self.memory.attach_overlays(overlays);
    }

    /// Detaches the seed overlays after the run, if any were attached,
    /// settled against the final memory image every core drained into.
    pub fn take_overlays(&mut self) -> Option<SeedOverlays> {
        self.memory.take_overlays()
    }

    /// Runs the system under `stop`, then drains every core (in core-id
    /// order) and packages the results.
    pub fn run(&mut self, stop: StopPolicy) -> SmpRunResult {
        let n = self.cores.len();
        let mut finished = vec![false; n];
        loop {
            let next = (0..n)
                .filter(|&i| !finished[i])
                .min_by_key(|&i| (self.cores[i].local_cycle(), i));
            let Some(core) = next else {
                break; // everyone finished
            };
            if !self.cores[core].step_one(&mut self.memory) {
                finished[core] = true;
            }
            if stop == StopPolicy::ObservedCoreHalts && finished[0] {
                break;
            }
        }
        // Drain in core-id order so the final image is deterministic.
        let cores: Vec<SimResult> = self
            .cores
            .iter_mut()
            .map(|core| core.finalize(&mut self.memory))
            .collect();
        SmpRunResult {
            final_checksum: self.memory.memory_checksum(),
            coherence: self.memory.coherence_stats(),
            forensics: self.memory.take_forensics(),
            cores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laec_workloads::smp::{
        false_sharing, parallel_reduction, parallel_reduction_expected, producer_consumer,
        producer_consumer_expected, RESULT_BASE,
    };

    fn system_for(workload: laec_workloads::SmpWorkload) -> SmpSystem {
        let configs = vec![PipelineConfig::laec(); workload.programs.len()];
        SmpSystem::new(workload.programs, configs)
    }

    #[test]
    fn parallel_reduction_produces_the_serial_sum() {
        for cores in [1, 2, 4] {
            let mut system = system_for(parallel_reduction(cores, 64));
            let result = system.run(StopPolicy::AllHalt);
            assert_eq!(result.cores.len(), cores as usize);
            assert!(result.cores.iter().all(|c| !c.hit_instruction_limit));
            assert_eq!(
                system.memory().peek_memory(RESULT_BASE),
                parallel_reduction_expected(64),
                "{cores}-core reduction total"
            );
        }
    }

    #[test]
    fn producer_consumer_hands_every_item_across() {
        let mut system = system_for(producer_consumer(2, 32, 8));
        let result = system.run(StopPolicy::AllHalt);
        assert!(result.cores.iter().all(|c| !c.hit_instruction_limit));
        assert_eq!(
            system.memory().peek_memory(RESULT_BASE),
            producer_consumer_expected(32)
        );
        // The handoffs migrate Modified lines: interventions must occur.
        assert!(result.coherence.interventions > 0, "{:?}", result.coherence);
    }

    #[test]
    fn false_sharing_counters_are_exact_despite_the_ping_pong() {
        let mut system = system_for(false_sharing(4, 32));
        let result = system.run(StopPolicy::AllHalt);
        for core in 0..4u32 {
            assert_eq!(
                system
                    .memory()
                    .peek_coherent(laec_workloads::smp::SHARED_BASE + 4 * core),
                32,
                "core {core}'s counter"
            );
        }
        assert!(result.coherence.invalidations > 0);
        assert!(result.coherence.upgrades > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed_unused: u64| {
            let _ = seed_unused;
            let mut system = system_for(parallel_reduction(4, 128));
            let result = system.run(StopPolicy::AllHalt);
            (
                result.final_checksum,
                result.coherence,
                result
                    .cores
                    .iter()
                    .map(|c| c.stats.cycles)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(0), run(1), "identical systems run identically");
    }
}
