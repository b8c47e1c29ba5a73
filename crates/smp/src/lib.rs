//! `laec_smp` — the N-core system model.
//!
//! The paper evaluates its ECC latency-hiding schemes on a single NGMP
//! core, representing the other cores' bus traffic with a synthetic
//! interference generator.  This crate replaces that stand-in with the real
//! thing: N cores, each running the existing cycle-accurate
//! [`laec_pipeline::Core`] against a *private, coherent* DL1, all
//! snooping one shared bus in front of the shared write-back L2 — the
//! actual NGMP topology.  Which coherence protocol governs the snoops is an
//! axis: the [`laec_mem::CoherenceProtocol`] decision table (MESI by
//! default; Dragon and MOESI via [`SmpSystem::with_protocol`]).
//!
//! [`SmpSystem`] is N [`laec_pipeline::Core`]s and one N-core
//! [`laec_mem::MemorySystem`] — the same hierarchy, and the same access
//! flows, the uniprocessor runs with one core.  Every core borrows that one
//! hierarchy for each step, so a one-core system is the uniprocessor, under
//! every protocol.  A deterministic lowest-local-clock scheduler
//! (round-robin tie-break) advances the cores, so multi-core runs are
//! exactly reproducible.
//!
//! Coherence metadata (state bits, tags) is *not* covered by the DL1's
//! ECC on the modelled platforms, which makes it a first-class fault
//! surface: `laec_mem::FaultTarget::{State,Tag}` campaigns strike it, and
//! the resulting silent-data-corruption classes (lost writebacks, stale
//! reads) surface in campaign reports.
//!
//! # Example
//!
//! ```
//! use laec_pipeline::PipelineConfig;
//! use laec_smp::{SmpSystem, StopPolicy};
//! use laec_workloads::smp::{parallel_reduction, parallel_reduction_expected, RESULT_BASE};
//!
//! let workload = parallel_reduction(2, 64);
//! let configs = vec![PipelineConfig::laec(); 2];
//! let mut system = SmpSystem::new(workload.programs, configs);
//! let result = system.run(StopPolicy::AllHalt);
//! assert_eq!(result.cores.len(), 2);
//! assert_eq!(
//!     system.memory().peek_memory(RESULT_BASE),
//!     parallel_reduction_expected(64),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod system;

pub use laec_mem::CoherenceStats;
pub use system::{SmpRunResult, SmpSystem, StopPolicy};
