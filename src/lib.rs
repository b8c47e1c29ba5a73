//! Facade crate for the LAEC reproduction.
//!
//! Re-exports the whole workspace under one roof so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`ecc`] — parity / Hamming / Hsiao SEC-DED codes and fault injection,
//! * [`isa`] — the embedded RISC instruction set, assembler and programs,
//! * [`mem`] — the NGMP-like memory hierarchy (DL1, write buffer, bus, L2),
//! * [`pipeline`] — the cycle-accurate in-order pipeline with the No-ECC,
//!   Extra-Cycle, Extra-Stage, Speculate-and-Flush and LAEC schemes,
//! * [`trace`] — access-stream capture & replay (record a workload once,
//!   replay fault campaigns against the memory hierarchy only),
//! * [`workloads`] — EEMBC-Automotive-like workloads, hand-written kernels
//!   and shared-memory multi-core kernels,
//! * [`smp`] — the N-core system model: private MESI-coherent DL1s snooping
//!   a shared bus in front of the shared L2,
//! * [`core`] — experiment harness reproducing every table and figure,
//!   including the trace-backed and multi-core campaign engines,
//! * [`obs`] — deterministic instrumentation: the metrics registry,
//!   phase-timing spans and progress streaming behind
//!   `laec-cli campaign --metrics-out/--progress`,
//! * [`fleet`] — the campaign fleet service: persistent job queue,
//!   spec-addressed result store and work-stealing multi-process sharding
//!   behind `laec-cli serve`/`submit`/`fleet`.
//!
//! # Quickstart
//!
//! ```
//! use laec::pipeline::{EccScheme, PipelineConfig, Simulator};
//! use laec::workloads::kernels;
//!
//! let program = kernels::vector_sum(&[1, 2, 3, 4, 5]);
//! let result = Simulator::run(program, PipelineConfig::for_scheme(EccScheme::Laec));
//! assert_eq!(result.registers[4], 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The one-stop import for driving campaigns through the unified API.
///
/// Brings in the serializable [`CampaignSpec`](laec_core::spec::CampaignSpec)
/// (v2: grid axes + execution mode), the typed
/// [`CampaignBuilder`](laec_core::spec::CampaignBuilder), the
/// [`Campaign`](laec_core::spec::Campaign) dispatcher and everything a spec
/// is made of.
///
/// ```
/// use laec::prelude::*;
///
/// let validated = CampaignBuilder::smoke()
///     .named_workloads(["vector_sum"])
///     .schemes([EccScheme::NoEcc, EccScheme::Laec])
///     .validate()
///     .expect("a valid spec");
/// let outcome = Campaign::new(validated).run(2);
/// assert!(outcome.architecturally_equivalent());
/// ```
pub mod prelude {
    pub use laec_core::campaign::{
        render_campaign, CampaignCell, CampaignReport, PlatformVariant, WorkloadSet,
    };
    pub use laec_core::observe::record_outcome_metrics;
    pub use laec_core::sampling::{
        render_sampled, SampleExecution, SampledReport, Sampler, SamplingPlan,
    };
    pub use laec_core::spec::{
        Campaign, CampaignBuilder, CampaignOutcome, CampaignSpec, ExecutionMode, SpecError,
        ValidatedSpec,
    };
    pub use laec_core::trace_backed::TraceBackedStats;
    pub use laec_mem::FaultTarget;
    pub use laec_obs::{MetricsDump, Obs};
    pub use laec_pipeline::{EccScheme, PipelineConfig, Simulator};
    pub use laec_workloads::GeneratorConfig;
}

pub use laec_core as core;
pub use laec_ecc as ecc;
pub use laec_fleet as fleet;
pub use laec_isa as isa;
pub use laec_mem as mem;
pub use laec_obs as obs;
pub use laec_pipeline as pipeline;
pub use laec_smp as smp;
pub use laec_trace as trace;
pub use laec_workloads as workloads;
