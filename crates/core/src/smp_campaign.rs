//! Campaign cells on the multi-core platforms.
//!
//! [`run_observed_core`] runs one campaign cell on an N-core
//! [`laec_smp::SmpSystem`]: the observed workload on core 0 (which alone
//! carries the cell's fault campaign), read-only background-traffic kernels
//! on the other cores.  The background cores contend for the shared bus and
//! L2 through their own coherent DL1s but never write a byte, so the
//! observed core's architectural results — and therefore the campaign's
//! cross-scheme equivalence checks — are untouched.  The full-simulation
//! engine routes every [`crate::campaign::PlatformVariant::Smp`] cell
//! through here.

use laec_mem::ProtocolKind;
use laec_pipeline::{PipelineConfig, SimResult};
use laec_smp::{SmpSystem, StopPolicy};
use laec_workloads::{background_traffic, Workload};

/// Base address of the first background core's private streaming region —
/// far above every workload data region (inputs/outputs live below 1 MiB).
const BACKGROUND_BASE: u32 = 0x0200_0000;
/// Address distance between consecutive background cores' regions.
const BACKGROUND_STRIDE: u32 = 0x0010_0000;
/// Lines each background core streams over: 4096 × 32 B = 128 KiB per
/// core — far past the 16 KiB DL1, so the stream misses continuously and
/// keeps the shared bus and L2 busy.
const BACKGROUND_LINES: u32 = 4096;

/// Runs one cell's workload on core 0 of a `cores`-core system coherent
/// under `protocol`, with read-only background traffic on the remaining
/// cores, until core 0 halts.  Returns core 0's result with the
/// system-wide final memory checksum.
///
/// # Panics
///
/// Panics if `cores == 0`.
#[must_use]
pub fn run_observed_core(
    workload: &Workload,
    config: PipelineConfig,
    cores: u32,
    protocol: ProtocolKind,
) -> SimResult {
    assert!(cores >= 1, "need at least the observed core");
    let mut programs = vec![workload.program.clone()];
    let mut configs = vec![config.clone()];
    for background in 1..cores {
        programs.push(background_traffic(
            BACKGROUND_BASE + (background - 1) * BACKGROUND_STRIDE,
            BACKGROUND_LINES,
        ));
        // Same pipeline/hierarchy, but no fault campaign and no chronogram:
        // only the observed core is measured or struck.
        configs.push(PipelineConfig {
            fault_campaign: None,
            trace_instructions: 0,
            ..config.clone()
        });
    }
    let mut system = SmpSystem::with_protocol(programs, configs, protocol);
    let run = system.run(StopPolicy::ObservedCoreHalts);
    // laec-lint: allow(panic-in-library) -- `SmpSystem::with_protocol` is
    // handed at least one program (the observed core), so `run.cores` is
    // never empty.
    let mut result = run.cores.into_iter().next().expect("core 0 always exists");
    // The per-core checksum snapshot was taken when core 0 drained; the
    // system-wide value is the authoritative final state.  Background cores
    // are read-only, so the two agree — this keeps it true by construction.
    result.memory_checksum = run.final_checksum;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{execute_full, CampaignSpec, PlatformVariant, WorkloadSet};
    use laec_pipeline::EccScheme;

    #[test]
    fn smp_platform_slows_the_observed_core_down() {
        let workload = laec_workloads::kernel_suite()
            .into_iter()
            .find(|w| w.name == "cache_buster")
            .expect("miss-heavy kernel");
        let config = PipelineConfig::laec();
        let alone = run_observed_core(&workload, config.clone(), 1, ProtocolKind::Mesi);
        let contended = run_observed_core(&workload, config, 4, ProtocolKind::Mesi);
        assert_eq!(
            alone.registers, contended.registers,
            "background traffic never perturbs architecture"
        );
        assert!(
            contended.stats.cycles > alone.stats.cycles,
            "3 streaming cores must cost bus/L2 bandwidth ({} vs {})",
            contended.stats.cycles,
            alone.stats.cycles
        );
        assert!(contended.stats.mem.snoop_lookups > 0);
    }

    #[test]
    fn smp_campaign_reports_are_thread_count_invariant() {
        let mut spec = CampaignSpec::smoke();
        spec.workloads = WorkloadSet::Named(vec!["vector_sum".into()]);
        spec.schemes = vec![EccScheme::NoEcc, EccScheme::Laec];
        spec.platforms = vec![PlatformVariant::smp(2)];
        spec.fault_seeds = vec![7];
        spec.fault_interval = 500;
        let one = execute_full(&spec, 1, &laec_obs::Obs::disabled());
        let four = execute_full(&spec, 4, &laec_obs::Obs::disabled());
        assert_eq!(one.to_json(), four.to_json());
        assert!(one.architecturally_equivalent());
        assert_eq!(one.platforms, vec!["smp2"]);
    }
}
