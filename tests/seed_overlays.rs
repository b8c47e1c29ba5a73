//! Differential oracle for seed overlays: a fault seed that rode a
//! fault-free run as an overlay and never escaped reports exactly what a
//! simulation of that seed alone reports; a replay of the fault-free
//! recording carrying the same overlays settles every seed as the
//! simulation did; and grids that serve their faulty cells from overlays,
//! simulated or replayed from a trace cache, print the same bytes as a
//! forensic grid, which simulates every seed on its own.
//!
//! The axes cover every Figure 8 scheme plus speculate-and-flush, the
//! write-back, write-through and contended platforms, single-bit strikes
//! (with and without double-bit events) and 2- and 4-bit MBUs, at strike
//! intervals from 7 to 200 commits over three kernels each.  The dense
//! intervals strike words twice before anything reads them, so the
//! coverage check can demand that served seeds went through double
//! strikes and wrote wrong and uncorrectable words back to memory: none of
//! the overlay's paths is vacuous.

use std::path::PathBuf;

use laec::core::campaign::{CampaignSpec, PlatformVariant, WorkloadSet};
use laec::mem::{
    ActivationKind, CellForensics, FaultCampaignConfig, FaultOutcome, FaultPattern, FaultTarget,
    OverlayOutcome, ReplayMemory, SeedOverlays,
};
use laec::prelude::{EccScheme, PipelineConfig, Simulator};
use laec::trace::{replay_events, Trace, TraceContext, TraceDetail, TraceRecorder};
use laec::workloads::{kernel_suite, Workload};
use laec_bench::{run_full, run_full_forensic, run_trace_backed};

/// Kernels of the simulation-level check: `fir_filter` and
/// `matrix_multiply` write back struck lines, wrong words included.
const KERNELS: [&str; 3] = ["vector_sum", "fir_filter", "matrix_multiply"];
/// Kernels of the grid-level check: the three shortest.
const GRID_KERNELS: [&str; 3] = ["vector_sum", "table_lookup", "pointer_chase"];
const INTERVALS: [u64; 4] = [7, 20, 60, 200];
/// Overlays one fault-free run carries.
const SEEDS: u64 = 8;

fn schemes() -> Vec<EccScheme> {
    let mut schemes = EccScheme::figure8_set().to_vec();
    schemes.push(EccScheme::SpeculateFlush { flush_penalty: 5 });
    schemes
}

fn platforms() -> [PlatformVariant; 3] {
    [
        PlatformVariant::WriteBack,
        PlatformVariant::WriteThrough,
        PlatformVariant::ContendedBus(2),
    ]
}

/// Single-bit strikes with and without double-bit events, and both MBUs.
fn patterns() -> [(FaultPattern, f64); 4] {
    [
        (FaultPattern::SingleBit, 0.0),
        (FaultPattern::SingleBit, 0.5),
        (FaultPattern::Adjacent2, 0.0),
        (FaultPattern::Adjacent4, 0.0),
    ]
}

fn kernel(name: &str) -> Workload {
    kernel_suite()
        .into_iter()
        .find(|w| w.name == name)
        .expect("a known kernel")
}

/// Which overlay paths the served seeds exercised, read off the
/// per-fault lifecycles of their reference runs.
#[derive(Debug, Default)]
struct Coverage {
    served: u64,
    escaped: u64,
    /// Two strikes on one word, resolved by one access.
    double_strikes: u64,
    /// A word the decoder flagged uncorrectable, written back to memory.
    uncorrectable_writebacks: u64,
    /// A wrong word written back to memory without an error signal.
    wrong_writebacks: u64,
}

impl Coverage {
    fn observe(&mut self, forensics: &CellForensics) {
        let records = &forensics.records;
        for (i, record) in records.iter().enumerate() {
            if record.activation == Some(ActivationKind::WritebackDrain) {
                match record.outcome {
                    FaultOutcome::Detected => self.uncorrectable_writebacks += 1,
                    FaultOutcome::Sdc => self.wrong_writebacks += 1,
                    _ => {}
                }
            }
            let twin = records[i + 1..].iter().any(|other| {
                other.address == record.address
                    && other.strike_cycle != record.strike_cycle
                    && record.activation.is_some()
                    && other.activation == record.activation
                    && other.activation_cycle == record.activation_cycle
            });
            self.double_strikes += u64::from(twin);
        }
    }
}

/// What became of each overlay a replay of `trace`, the fault-free
/// recording of `workload` under `config`, settles.
fn replayed_outcomes(
    trace: &Trace,
    workload: &Workload,
    config: &PipelineConfig,
    overlays: SeedOverlays,
) -> Vec<OverlayOutcome> {
    let mut target = ReplayMemory::new(config.hierarchy);
    if let Some(interference) = config.bus_interference {
        target = target.with_bus_interference(interference);
    }
    target.attach_overlays(overlays);
    for &(address, value) in workload.program.data() {
        target.preload_word(address, value);
    }
    replay_events(trace.events(), &mut target).expect("a fault-free replay never diverges");
    target.drain_to_memory();
    let overlays = target.take_overlays().expect("the overlays come back");
    overlays.outcomes().collect()
}

/// Runs `workload` once fault-free with one overlay per seed, under a
/// recorder, then every served seed alone, and checks they agree on
/// everything the seed's campaign cell reports.  The replay of the
/// recording, carrying the same overlays, must settle every seed as the
/// simulation did.
fn check_overlays(
    workload: &Workload,
    scheme: EccScheme,
    platform: PlatformVariant,
    campaign: impl Fn(u64) -> FaultCampaignConfig,
    coverage: &mut Coverage,
) {
    let config = platform.apply_config(PipelineConfig::for_scheme(scheme));
    let campaigns: Vec<FaultCampaignConfig> = (1..=SEEDS).map(&campaign).collect();
    let flush_on_error = matches!(scheme, EccScheme::SpeculateFlush { .. });
    let mut simulator = Simulator::new(workload.program.clone(), config.clone());
    simulator.attach_overlays(SeedOverlays::new(&campaigns, flush_on_error));
    simulator.attach_recorder(TraceRecorder::with_detail(
        TraceContext::new(workload.name.clone(), scheme.to_string(), "-", 0),
        TraceDetail::Replay,
    ));
    let fault_free = simulator.execute();
    let overlays = simulator.take_overlays().expect("the overlays come back");
    let outcomes: Vec<OverlayOutcome> = overlays.outcomes().collect();
    assert_eq!(outcomes.len(), campaigns.len());
    let trace = simulator
        .take_recorder()
        .expect("the recorder comes back")
        .finish(fault_free.trace_summary());
    let replayed = SeedOverlays::new(&campaigns, flush_on_error);
    assert_eq!(
        replayed_outcomes(&trace, workload, &config, replayed),
        outcomes,
        "{} under {scheme} on {platform}, {:?} every {} commits: the replay \
         settles the overlays as the simulation did",
        workload.name,
        campaigns[0].pattern,
        campaigns[0].interval
    );
    for (outcome, fault) in outcomes.into_iter().zip(campaigns) {
        let OverlayOutcome::Served(report) = outcome else {
            coverage.escaped += 1;
            continue;
        };
        coverage.served += 1;
        let mut alone = Simulator::new(
            workload.program.clone(),
            PipelineConfig {
                fault_campaign: Some(fault),
                ..config.clone()
            },
        );
        alone.enable_forensics();
        let reference = alone.execute();
        let cell = format!(
            "{} under {scheme} on {platform}, {:?} (double {}) every {} commits, seed {}",
            workload.name, fault.pattern, fault.double_fraction, fault.interval, fault.seed
        );
        assert_eq!(
            report.faults_injected, reference.stats.faults_injected,
            "{cell}: faults injected"
        );
        assert_eq!(
            report.corrected,
            reference.stats.mem.dl1.ecc.corrected(),
            "{cell}: corrected"
        );
        assert_eq!(
            report.uncorrectable,
            reference.stats.mem.dl1.ecc.uncorrectable(),
            "{cell}: uncorrectable"
        );
        assert_eq!(reference.unrecoverable_errors, 0, "{cell}: unrecoverable");
        assert_eq!(
            fault_free
                .memory_checksum
                .wrapping_add(report.checksum_delta),
            reference.memory_checksum,
            "{cell}: final memory checksum"
        );
        // A served seed keeps its fault-free twin's timing and state.
        assert_eq!(
            reference.stats.cycles, fault_free.stats.cycles,
            "{cell}: cycles"
        );
        assert_eq!(
            reference.registers, fault_free.registers,
            "{cell}: registers"
        );
        assert_eq!(
            reference.stats.mem.bus_transactions, fault_free.stats.mem.bus_transactions,
            "{cell}: bus transactions"
        );
        coverage.observe(&reference.forensics.unwrap_or_default());
    }
}

#[test]
fn served_overlays_report_exactly_what_their_seeds_report_alone() {
    let kernels: Vec<Workload> = KERNELS.iter().map(|name| kernel(name)).collect();
    let mut coverage = Coverage::default();
    // Every scheme × platform × pattern × interval; the kernel rotates, so
    // each kernel meets every scheme, platform and pattern.
    let mut rotation = 0;
    for scheme in schemes() {
        for platform in platforms() {
            for (pattern, double_fraction) in patterns() {
                for interval in INTERVALS {
                    let workload = &kernels[rotation % kernels.len()];
                    rotation += 1;
                    let campaign = |seed: u64| FaultCampaignConfig {
                        double_fraction,
                        ..FaultCampaignConfig::with_pattern(seed, interval, pattern)
                    };
                    check_overlays(workload, scheme, platform, campaign, &mut coverage);
                }
            }
        }
    }
    assert!(
        coverage.served > 0 && coverage.escaped > 0,
        "seeds both stay in and escape their overlays: {coverage:?}"
    );
    assert!(coverage.double_strikes > 0, "{coverage:?}");
    assert!(coverage.uncorrectable_writebacks > 0, "{coverage:?}");
    assert!(coverage.wrong_writebacks > 0, "{coverage:?}");
}

/// Grids whose faulty cells ride overlays — simulated, and replayed from
/// a warm trace cache — print what a forensic grid prints, which
/// simulates every seed on its own.  The state and tag targets carry no
/// overlays and simulate every seed on every engine.
#[test]
fn full_grids_print_what_per_seed_replay_prints() {
    let cache = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("seed-overlays-cache");
    for target in [FaultTarget::Data, FaultTarget::State, FaultTarget::Tag] {
        for interval in INTERVALS {
            let mut spec = CampaignSpec::smoke();
            spec.workloads =
                WorkloadSet::Named(GRID_KERNELS.iter().map(|k| k.to_string()).collect());
            spec.schemes = schemes();
            spec.platforms = platforms().to_vec();
            spec.fault_seeds = vec![1, 2];
            spec.fault_interval = interval;
            spec.fault_target = target;
            let cell = format!("{target} strikes every {interval} commits");
            let full = run_full(&spec, 2).to_json();
            let (per_seed, _) = run_full_forensic(&spec, 2);
            assert_eq!(full, per_seed.to_json(), "{cell}: overlays");
            if target == FaultTarget::Data {
                let _ = std::fs::remove_dir_all(&cache);
                let _ = run_trace_backed(&spec, 2, Some(&cache));
                let warm = run_trace_backed(&spec, 2, Some(&cache));
                assert_eq!(warm.stats.recorded, 0, "{cell}: a warm cache");
                assert_eq!(full, warm.report.to_json(), "{cell}: replayed overlays");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cache);
}
