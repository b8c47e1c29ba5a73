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
//!
//! On N-core systems the overlays strike core 0.  Campaign-shaped systems
//! (core 0 runs a kernel, the other cores stream background traffic) under
//! MESI, Dragon and MOESI must serve seeds exactly as their own runs
//! report them, and so must the write-sharing kernels, where core 1's
//! accesses to struck lines make seeds escape as `remote`.

use std::path::PathBuf;

use laec::core::campaign::{CampaignSpec, PlatformVariant, WorkloadSet};
use laec::isa::Program;
use laec::mem::{
    ActivationKind, CellForensics, EscapeReason, FaultCampaignConfig, FaultOutcome, FaultPattern,
    FaultTarget, OverlayOutcome, ProtocolKind, ReplayMemory, SeedOverlays,
};
use laec::prelude::{EccScheme, PipelineConfig, Simulator};
use laec::smp::{SmpRunResult, SmpSystem, StopPolicy};
use laec::trace::{replay_events, Trace, TraceContext, TraceDetail, TraceRecorder};
use laec::workloads::{
    background_traffic, false_sharing, kernel_suite, parallel_reduction, producer_consumer,
    SmpWorkload, Workload,
};
use laec_bench::{run_full, run_full_forensic, run_trace_backed};

/// Kernels of the simulation-level check: `fir_filter` and
/// `matrix_multiply` write back struck lines, wrong words included.
const KERNELS: [&str; 3] = ["vector_sum", "fir_filter", "matrix_multiply"];
/// Kernels of the grid-level check: the three shortest.
const GRID_KERNELS: [&str; 3] = ["vector_sum", "table_lookup", "pointer_chase"];
const INTERVALS: [u64; 4] = [7, 20, 60, 200];
/// Overlays one fault-free run carries.
const SEEDS: u64 = 8;
/// Strike intervals of the write-sharing check.
const SHARING_INTERVALS: [u64; 3] = [7, 20, 60];
/// The background cores' streaming regions, laid out as a campaign cell
/// lays them out: far above every workload's data.
const BACKGROUND_BASE: u32 = 0x0200_0000;
const BACKGROUND_STRIDE: u32 = 0x0010_0000;
const BACKGROUND_LINES: u32 = 4096;

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
    /// Seeds that escaped because another core touched a struck line.
    remote: u64,
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

/// One N-core system whose core 0 alone is struck: its programs, the
/// cores' fault-free configuration, its protocol and when it stops.
struct SmpCell {
    label: String,
    programs: Vec<Program>,
    config: PipelineConfig,
    protocol: ProtocolKind,
    stop: StopPolicy,
}

impl SmpCell {
    /// A campaign cell: `workload` on core 0 and read-only background
    /// traffic on the other `cores - 1`, until core 0 halts.
    fn campaign(
        workload: &Workload,
        cores: u32,
        scheme: EccScheme,
        protocol: ProtocolKind,
    ) -> Self {
        let background = (1..cores).map(|core| {
            background_traffic(
                BACKGROUND_BASE + (core - 1) * BACKGROUND_STRIDE,
                BACKGROUND_LINES,
            )
        });
        SmpCell {
            label: format!(
                "{} on smp{cores} under {protocol} with {scheme}",
                workload.name
            ),
            programs: std::iter::once(workload.program.clone())
                .chain(background)
                .collect(),
            config: PipelineConfig::for_scheme(scheme),
            protocol,
            stop: StopPolicy::ObservedCoreHalts,
        }
    }

    /// Core 0 reads the line at 0x1000 over and over; core 1 reads it
    /// once, then streams over five other lines of its DL1 set, so it
    /// evicts its copy early and never touches the line again.  Runs until
    /// core 0 halts.
    fn evictor(scheme: EccScheme, protocol: ProtocolKind) -> Self {
        let reader = "
                addi r1, r0, 0x1000
                addi r2, r0, 300
            loop:
                ld   r3, [r1 + 0]
                ld   r4, [r1 + 12]
                ld   r5, [r1 + 28]
                subi r2, r2, 1
                bne  r2, r0, loop
                halt
            ";
        let evictor = "
                addi r1, r0, 0x1000
                ld   r2, [r1 + 0]
            stream:
                addi r1, r0, 0x2000
                ld   r2, [r1 + 0]
                addi r1, r0, 0x3000
                ld   r2, [r1 + 0]
                addi r1, r0, 0x4000
                ld   r2, [r1 + 0]
                addi r1, r0, 0x5000
                ld   r2, [r1 + 0]
                addi r1, r0, 0x6000
                ld   r2, [r1 + 0]
                jmp  stream
            ";
        let assemble = |source: &str| Program::assemble(source).expect("the program assembles");
        SmpCell {
            label: format!("a line core 1 evicts, under {protocol} with {scheme}"),
            programs: vec![assemble(reader), assemble(evictor)],
            config: PipelineConfig::for_scheme(scheme),
            protocol,
            stop: StopPolicy::ObservedCoreHalts,
        }
    }

    /// A write-sharing kernel, every core under `scheme`, until all halt.
    fn sharing(workload: &SmpWorkload, scheme: EccScheme, protocol: ProtocolKind) -> Self {
        SmpCell {
            label: format!(
                "{} on {} cores under {protocol} with {scheme}",
                workload.name,
                workload.cores()
            ),
            programs: workload.programs.clone(),
            config: PipelineConfig::for_scheme(scheme),
            protocol,
            stop: StopPolicy::AllHalt,
        }
    }

    /// Runs the cell with core 0 injected with `fault`, or fault-free
    /// carrying `overlays` on core 0, and hands the overlays back.
    fn run(
        &self,
        fault: Option<FaultCampaignConfig>,
        overlays: Option<SeedOverlays>,
    ) -> (SmpRunResult, Option<SeedOverlays>) {
        let struck = PipelineConfig {
            fault_campaign: fault,
            ..self.config.clone()
        };
        let others = (1..self.programs.len()).map(|_| self.config.clone());
        let configs = std::iter::once(struck).chain(others).collect();
        let mut system = SmpSystem::with_protocol(self.programs.clone(), configs, self.protocol);
        if let Some(overlays) = overlays {
            system.attach_overlays(overlays);
        }
        let run = system.run(self.stop);
        (run, system.take_overlays())
    }
}

/// Runs `cell` once fault-free with one overlay per campaign on core 0,
/// then every served seed alone, and checks they agree on the seed's fault
/// counters, the final memory image, every core's cycles and registers and
/// core 0's bus traffic.
fn check_smp_overlays(cell: &SmpCell, campaigns: &[FaultCampaignConfig], coverage: &mut Coverage) {
    let flush_on_error = matches!(cell.config.scheme, EccScheme::SpeculateFlush { .. });
    let overlays = SeedOverlays::new(campaigns, flush_on_error);
    let (fault_free, overlays) = cell.run(None, Some(overlays));
    let overlays = overlays.expect("the overlays come back");
    let outcomes: Vec<OverlayOutcome> = overlays.outcomes().collect();
    assert_eq!(outcomes.len(), campaigns.len());
    for (outcome, &fault) in outcomes.into_iter().zip(campaigns) {
        let report = match outcome {
            OverlayOutcome::Served(report) => report,
            OverlayOutcome::Escaped(reason) => {
                coverage.escaped += 1;
                coverage.remote += u64::from(reason == EscapeReason::Remote);
                continue;
            }
        };
        coverage.served += 1;
        let (reference, _) = cell.run(Some(fault), None);
        let label = format!(
            "{}, every {} commits, seed {}",
            cell.label, fault.interval, fault.seed
        );
        let (struck, twin) = (&reference.cores[0], &fault_free.cores[0]);
        assert_eq!(
            report.faults_injected, struck.stats.faults_injected,
            "{label}: faults injected"
        );
        assert_eq!(
            report.corrected,
            struck.stats.mem.dl1.ecc.corrected(),
            "{label}: corrected"
        );
        assert_eq!(
            report.uncorrectable,
            struck.stats.mem.dl1.ecc.uncorrectable(),
            "{label}: uncorrectable"
        );
        assert_eq!(
            fault_free
                .final_checksum
                .wrapping_add(report.checksum_delta),
            reference.final_checksum,
            "{label}: final memory checksum"
        );
        for (core, (alone, shared)) in reference.cores.iter().zip(&fault_free.cores).enumerate() {
            assert_eq!(
                alone.stats.cycles, shared.stats.cycles,
                "{label}: core {core}'s cycles"
            );
            assert_eq!(
                alone.registers, shared.registers,
                "{label}: core {core}'s registers"
            );
        }
        assert_eq!(
            struck.stats.mem.bus_transactions, twin.stats.mem.bus_transactions,
            "{label}: core 0's bus transactions"
        );
    }
}

fn single_bit_campaigns(interval: u64) -> Vec<FaultCampaignConfig> {
    (1..=SEEDS)
        .map(|seed| FaultCampaignConfig::single_bit(seed, interval))
        .collect()
}

#[test]
fn served_overlays_on_n_core_cells_report_what_their_seeds_report_alone() {
    let kernels: Vec<Workload> = KERNELS.iter().map(|name| kernel(name)).collect();
    let schemes = schemes();
    let mut coverage = Coverage::default();
    // smp2 and smp4 under every protocol at every interval; the kernel and
    // the scheme rotate.
    let mut rotation = 0;
    for cores in [2, 4] {
        for protocol in ProtocolKind::ALL {
            for interval in INTERVALS {
                let workload = &kernels[rotation % kernels.len()];
                let scheme = schemes[rotation % schemes.len()];
                rotation += 1;
                let cell = SmpCell::campaign(workload, cores, scheme, protocol);
                check_smp_overlays(&cell, &single_bit_campaigns(interval), &mut coverage);
            }
        }
    }
    assert!(
        coverage.served > 0 && coverage.escaped > 0,
        "seeds both stay in and escape their overlays: {coverage:?}"
    );
    assert_eq!(
        coverage.remote, 0,
        "background traffic never touches a struck line: {coverage:?}"
    );
}

/// The write-sharing kernels, and a line core 1 shares with core 0 and
/// then evicts without touching it again.
#[test]
fn write_sharing_kernels_escape_remote_accesses_and_serve_the_rest_exactly() {
    let sharing = [
        parallel_reduction(2, 64),
        producer_consumer(2, 32, 8),
        false_sharing(2, 32),
    ];
    let schemes = schemes();
    let mut rotation = 0;
    let mut next_scheme = || {
        rotation += 1;
        schemes[rotation % schemes.len()]
    };
    let mut coverage = Coverage::default();
    for protocol in ProtocolKind::ALL {
        for interval in SHARING_INTERVALS {
            let campaigns = single_bit_campaigns(interval);
            for workload in &sharing {
                let cell = SmpCell::sharing(workload, next_scheme(), protocol);
                check_smp_overlays(&cell, &campaigns, &mut coverage);
            }
            let cell = SmpCell::evictor(next_scheme(), protocol);
            check_smp_overlays(&cell, &campaigns, &mut coverage);
        }
    }
    assert!(coverage.served > 0, "{coverage:?}");
    assert!(
        coverage.remote > 0,
        "core 1 touches struck lines, and those seeds escape: {coverage:?}"
    );
}

/// Grids whose faulty cells ride overlays — simulated, and replayed from
/// a warm trace cache — print what a forensic grid prints, which
/// simulates every seed on its own.  The state and tag targets carry no
/// overlays and simulate every seed on every engine.  `smpN` grids carry
/// overlays on core 0 in full simulation.
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
    for (cores, protocol) in [
        (2, ProtocolKind::Dragon),
        (4, ProtocolKind::Mesi),
        (4, ProtocolKind::Moesi),
    ] {
        for interval in INTERVALS {
            let mut spec = CampaignSpec::smoke();
            spec.workloads =
                WorkloadSet::Named(GRID_KERNELS.iter().map(|k| k.to_string()).collect());
            spec.schemes = schemes();
            spec.platforms = vec![PlatformVariant::smp(cores)];
            spec.protocol = protocol;
            spec.fault_seeds = vec![1, 2];
            spec.fault_interval = interval;
            let (per_seed, _) = run_full_forensic(&spec, 2);
            assert_eq!(
                run_full(&spec, 2).to_json(),
                per_seed.to_json(),
                "smp{cores} under {protocol}, strikes every {interval} commits: overlays"
            );
        }
    }
}
