//! Experiment harness for the LAEC reproduction.
//!
//! This crate ties the substrates together — ECC codes ([`laec_ecc`]), the
//! ISA (`laec_isa`), the memory hierarchy ([`laec_mem`]), the pipeline
//! model ([`laec_pipeline`]) and the workloads ([`laec_workloads`]) — and
//! exposes one function per table/figure of the paper's evaluation:
//!
//! * [`experiment::characterization`] — Table II,
//! * [`experiment::figure8`] — Figure 8 (execution-time increase of
//!   Extra-Cycle, Extra-Stage and LAEC versus the no-ECC baseline),
//! * [`experiment::energy_overheads`] — the §IV.A power/energy discussion,
//! * [`experiment::hazard_breakdown`] — the §IV.A look-ahead blocking
//!   analysis (ablation),
//! * [`experiment::wt_vs_wb`] — the §II.A write-through vs write-back
//!   motivation (ablation),
//! * [`experiment::fault_campaign`] — the §I–II safety argument,
//! * [`report::table1_commercial_processors`] — Table I (static data).
//!
//! [`report`] renders each artefact as aligned text; the `laec-bench` crate
//! wraps each experiment in a Criterion benchmark; `EXPERIMENTS.md` records
//! measured-vs-paper numbers.
//!
//! Beyond the per-artefact functions, [`campaign`] generalises the harness
//! into a parallel experiment engine: a workload × scheme × platform ×
//! fault grid executed on a scoped worker pool with deterministic per-job
//! seeding, whose [`campaign::CampaignReport`] renders as text or JSON
//! (byte-identical regardless of worker count).  [`sampling`] replaces the
//! fixed fault-seed axis with a stratified Monte-Carlo estimator — online
//! Wilson confidence intervals, early stopping per stratum, and
//! checkpoint/resume for campaigns that shard across invocations.
//!
//! All campaign execution is unified behind [`spec`]: a serializable,
//! versioned [`spec::CampaignSpec`] (grid axes + [`spec::ExecutionMode`]),
//! a fluent [`spec::CampaignBuilder`] with typed validation
//! ([`spec::SpecError`]), and one dispatch point — [`spec::Campaign::run`]
//! — that matches on the mode: full simulation and trace-backed replay run
//! through the one grid executor in [`campaign`], stratified sampling
//! through [`sampling::Sampler`], and both run every cell through the
//! same cell functions in [`runner`].  The `laec-cli` binary drives all
//! layers from the command line and can dump or load any campaign as a
//! JSON spec file.
//!
//! # Example
//!
//! ```
//! use laec_core::experiment::figure8_over;
//! use laec_workloads::kernel_suite;
//!
//! let kernels: Vec<_> = kernel_suite().into_iter().take(2).collect();
//! let figure = figure8_over(&kernels);
//! assert!(figure.average.laec <= figure.average.extra_stage + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod energy;
pub mod experiment;
pub mod fingerprint;
pub mod forensics;
pub mod observe;
pub mod report;
pub mod runner;
pub mod sampling;
pub mod spec;
pub mod trace_backed;

pub use campaign::{
    render_campaign, CampaignCell, CampaignReport, CampaignSpec, EquivalenceCheck, OverlayStats,
    ParsePlatformError, PlatformVariant, SlowdownMatrix, SlowdownRow, WorkloadSet,
};
pub use fingerprint::hash128;
pub use forensics::{ForensicsCell, ForensicsRecord, ForensicsReport};
pub use observe::{record_forensics_metrics, record_outcome_metrics};
pub use sampling::{
    render_sampled, sampler_fingerprint, stratum_count, CheckpointError, SampleExecution,
    SampledReport, Sampler, SamplerCheckpoint, SamplingPlan, StratumEstimate,
};
pub use spec::{
    Campaign, CampaignBuilder, CampaignOutcome, ExecutionMode, PlanViolation, SpecError,
    ValidatedSpec, SPEC_VERSION,
};
pub use trace_backed::{
    cell_fingerprint, record_cell, replay_cell, replay_cell_events, trace_file_name,
    TraceBackedStats,
};

pub use energy::{EnergyBreakdown, EnergyModel};
pub use experiment::{
    characterization, energy_overheads, fault_campaign, fault_campaign_with_pattern, figure8,
    figure8_over, hazard_breakdown, wt_vs_wb, CharacterizationRow, CharacterizationTable,
    EnergyRow, FaultCampaignRow, Figure8, Figure8Row, HazardBreakdownRow, WtVsWbRow,
};
pub use report::{
    render_energy, render_fault_campaign, render_figure8, render_hazard_breakdown, render_table1,
    render_table2, render_wt_vs_wb, table1_commercial_processors, CommercialProcessor,
};
pub use runner::{
    compare_schemes, run_observed_core, run_scheme, run_with_config, SchemeComparison,
};
