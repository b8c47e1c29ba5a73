//! The one-core anchor and the coherence-metadata fault classes.
//!
//! 1. A one-core SMP system is the uniprocessor.  `run_observed_core` at one
//!    core steps a real `laec_smp` system, whose scheduler picks the core
//!    before every instruction; `run_with_config` runs the uniprocessor's
//!    direct loop.  Both borrow the same hierarchy type, and must return
//!    the same result — every statistic, register, checksum and error
//!    counter — over the kernel suite × the Figure 8 schemes × {wb, wt},
//!    fault-free and under data, state and tag strikes.  Under strikes the
//!    two also keep the same forensics record set.  State strikes matter
//!    most: on one core a line is `Shared` only because a strike flipped
//!    its state bits, and a store to it must not broadcast an upgrade
//!    nobody can snoop.
//! 2. Metadata strikes (coherence state / tag bits) must surface as their
//!    own silent-data-corruption classes in the report.

use laec::core::campaign::{CampaignSpec, PlatformVariant, WorkloadSet};
use laec::core::{run_observed_core, run_with_config};
use laec::mem::{CellForensics, FaultCampaignConfig, FaultTarget, ProtocolKind};
use laec::pipeline::{EccScheme, PipelineConfig, Simulator};
use laec::smp::{SmpSystem, StopPolicy};
use laec::workloads::{kernel_suite, Workload};
use laec_bench::run_full;

/// Injector seeds and mean strike interval of the faulty anchor cells.
const SEEDS: [u64; 2] = [1, 11];
const INTERVAL: u64 = 200;

/// The forensics record sets of one cell on the uniprocessor and on a
/// one-core system under the N-core scheduler, the one `run_observed_core`
/// drives.
fn forensics_pair(workload: &Workload, config: &PipelineConfig) -> [Option<CellForensics>; 2] {
    let mut uniprocessor = Simulator::new(workload.program.clone(), config.clone());
    uniprocessor.enable_forensics();
    let programs = vec![workload.program.clone()];
    let mut system = SmpSystem::with_protocol(programs, vec![config.clone()], ProtocolKind::Mesi);
    system.enable_forensics();
    [
        uniprocessor.execute().forensics,
        system.run(StopPolicy::ObservedCoreHalts).forensics,
    ]
}

/// Asserts the one-core SMP engine reproduces the uniprocessor on every
/// kernel × Figure 8 scheme × {wb, wt} cell — fault-free when `target` is
/// `None`, otherwise under `target` strikes for each of [`SEEDS`], with
/// the same forensics record set.
fn assert_one_core_anchor(target: Option<FaultTarget>) {
    for workload in kernel_suite() {
        for scheme in EccScheme::figure8_set() {
            for platform in [PlatformVariant::WriteBack, PlatformVariant::WriteThrough] {
                let base = platform.apply_config(PipelineConfig::for_scheme(scheme));
                let cells: Vec<(Option<u64>, PipelineConfig)> = match target {
                    None => vec![(None, base)],
                    Some(target) => SEEDS
                        .iter()
                        .map(|&seed| {
                            let strikes =
                                FaultCampaignConfig::single_bit(seed, INTERVAL).with_target(target);
                            (Some(seed), base.clone().with_fault_campaign(strikes))
                        })
                        .collect(),
                };
                for (seed, config) in cells {
                    let cell = format!("{}/{scheme}/{platform}", workload.name);
                    if seed.is_some() {
                        let [uniprocessor, smp] = forensics_pair(&workload, &config);
                        assert!(uniprocessor.is_some(), "{cell}: forensics enabled");
                        assert_eq!(
                            uniprocessor, smp,
                            "{cell}, {target:?} strikes, seed {seed:?}: \
                             a one-core system must keep the uniprocessor's records"
                        );
                    }
                    let uniprocessor = run_with_config(&workload, config.clone());
                    let smp = run_observed_core(&workload, config, 1, ProtocolKind::Mesi);
                    assert_eq!(
                        format!("{uniprocessor:?}"),
                        format!("{smp:?}"),
                        "{cell}, {target:?} strikes, seed {seed:?}: \
                         a one-core system must be the uniprocessor"
                    );
                }
            }
        }
    }
}

#[test]
fn one_core_smp_matches_the_uniprocessor_engine_byte_for_byte() {
    assert_one_core_anchor(None);
    assert_one_core_anchor(Some(FaultTarget::Data));
}

#[test]
fn one_core_smp_matches_under_metadata_strikes_too() {
    assert_one_core_anchor(Some(FaultTarget::State));
    assert_one_core_anchor(Some(FaultTarget::Tag));
}

#[test]
fn smp_platform_cells_are_deterministic_and_architecturally_equivalent() {
    let mut spec = CampaignSpec::smoke();
    spec.workloads = WorkloadSet::Named(vec!["vector_sum".into(), "fir_filter".into()]);
    spec.schemes = EccScheme::figure8_set().to_vec();
    spec.platforms = vec![PlatformVariant::WriteBack, PlatformVariant::smp(4)];
    let one = run_full(&spec, 1);
    let eight = run_full(&spec, 8);
    assert_eq!(one.to_json(), eight.to_json(), "thread-count invariance");
    assert!(one.architecturally_equivalent());
    // The background cores cost the observed core real bandwidth: every
    // smp4 cell is slower than its wb sibling.
    for cell in one.cells.iter().filter(|c| c.platform == "smp4") {
        let sibling = one
            .cells
            .iter()
            .find(|c| c.platform == "wb" && c.workload == cell.workload && c.scheme == cell.scheme)
            .expect("wb sibling");
        assert!(
            cell.cycles >= sibling.cycles,
            "{}/{}: smp4 {} vs wb {}",
            cell.workload,
            cell.scheme,
            cell.cycles,
            sibling.cycles
        );
        assert_eq!(
            cell.registers_fingerprint, sibling.registers_fingerprint,
            "read-only background traffic must not perturb results"
        );
        assert!(cell.snoop_lookups > 0, "real snooping happened");
    }
}

#[test]
fn metadata_strikes_surface_as_distinct_sdc_classes() {
    let mut spec = CampaignSpec::smoke();
    spec.workloads = WorkloadSet::Named(vec!["cache_buster".into()]);
    // cache_buster writes a large footprint and reads it back later: tag
    // and state strikes on dirty lines reliably lose writebacks and serve
    // stale refetches.  no-ecc shows the strikes are invisible to the data
    // array; laec shows even SECDED cannot see metadata corruption.
    spec.schemes = vec![EccScheme::NoEcc, EccScheme::Laec];
    spec.fault_seeds = vec![1, 2, 3];
    spec.fault_interval = 60;
    for target in [FaultTarget::State, FaultTarget::Tag] {
        spec.fault_target = target;
        let report = run_full(&spec, 2);
        let faulty: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.fault_seed.is_some())
            .collect();
        let injected: u64 = faulty.iter().map(|c| c.meta_faults_injected).sum();
        let lost: u64 = faulty.iter().map(|c| c.lost_writebacks).sum();
        let stale: u64 = faulty.iter().map(|c| c.stale_metadata_reads).sum();
        assert!(injected > 0, "{target:?}: strikes must land");
        assert!(
            lost + stale > 0,
            "{target:?}: metadata corruption must be classified (lost {lost}, stale {stale})"
        );
        assert_eq!(
            faulty.iter().map(|c| c.faults_corrected).sum::<u64>(),
            0,
            "{target:?}: the data array's code never even fires"
        );
        let text = laec::core::render_campaign(&report);
        assert!(text.contains("Metadata strikes:"), "{text}");
        assert!(text.contains("lost writebacks"), "{text}");
    }
}
