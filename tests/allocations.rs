//! Heap-allocation gate for the simulation loop.
//!
//! A counting global allocator sees every allocation this test binary
//! makes, and the bytes it holds live, so the binary holds exactly one
//! `#[test]`: no other test runs beside it and adds to the counts.
//! Allocation counts do not depend on the host, so the gate holds them
//! exactly, which it could not do for wall time.  It checks three things:
//!
//! 1. **Steady state.**  A DL1-resident load/store loop runs for `N` and
//!    for `4N` iterations under each Figure 8 scheme on `wb` and `wt`,
//!    fault-free and with data strikes at interval 200, and so does the
//!    replay of each run's recording.  So does the fault-free loop carrying
//!    four seed overlays of single-bit strikes at interval 200, with and
//!    without double-bit events, simulated and replayed from its
//!    recording.  So does a two-core system whose
//!    cores both run the loop on the same lines — every iteration
//!    write-shares and snoops — under MESI, Dragon and MOESI, with and
//!    without strikes on core 0, and fault-free carrying four seed
//!    overlays on core 0, which core 1's accesses make escape as `remote`.
//!    The longer run must allocate exactly as
//!    often as the shorter one: everything the loop needs is allocated
//!    while it warms up.
//! 2. **Ceilings.**  The golden spec `specs/ci_smoke.json`, run through
//!    `Campaign::run(1)` in full simulation and trace-backed on a warm trace
//!    cache, stays under the committed allocations per simulated
//!    instruction and per replayed event.  What remains at those rates is
//!    per-cell set-up (hierarchies, the lazily allocated codeword buffer of
//!    each cache line slot, seed overlays, decoded recordings).
//! 3. **Heap peak.**  A trace-backed grid holds one recording per worker:
//!    on one thread, one workload's grid under the four Figure 8 schemes,
//!    recorded into a fresh trace cache, peaks within one recording's bytes
//!    of the same grid under one scheme.
//!
//! An allocation is one `alloc`, `alloc_zeroed` or `realloc` call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use laec::core::campaign::{CampaignSpec as GridSpec, WorkloadSet};
use laec::core::record_cell;
use laec::isa::Program;
use laec::mem::{
    EscapeReason, FaultCampaignConfig, OverlayOutcome, ProtocolKind, ReplayMemory, SeedOverlays,
};
use laec::prelude::{Campaign, CampaignSpec, EccScheme, ExecutionMode, PipelineConfig};
use laec::prelude::{PlatformVariant, Simulator};
use laec::smp::{SmpSystem, StopPolicy};
use laec::trace::{replay_events, Trace, TraceContext, TraceDetail, TraceRecorder};

/// Allocations per simulated instruction of the golden spec in full
/// simulation, counting the instructions of every reported cell.
/// Measured: 1096 allocations over 174078 instructions (0.0063), the same
/// in debug and release builds; 1903 (0.0109) when every faulty cell was
/// simulated on its own, before seed overlays served most of them from
/// their fault-free twin's run.  The ceiling leaves 5 % over the latter.
const FULL_PER_INSTRUCTION: f64 = 0.0115;

/// Allocations of the golden spec's trace-backed run on a warm trace cache
/// per event of its fault-free recordings times its fault seeds, what
/// replaying each faulty cell on its own would replay.  Measured: 1181
/// allocations over 30360 events (0.0389), the same in debug and release
/// builds, with each triple's recording read, decoded and replayed once,
/// carrying its seeds as overlays.  2121 (0.0699) when every faulty cell
/// replayed its triple's recording; the ceiling leaves 5 % over that.
const TRACE_BACKED_PER_REPLAYED_EVENT: f64 = 0.0735;

/// [`System`], counting allocation calls and the bytes held live.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since [`peak_heap_during`] last reset it.
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe the calls.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by `System` (through this wrapper)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: the caller's obligations for `ptr`, `layout` and
        // `new_size` pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `work` and returns its value and the allocations it made.
fn allocations_during<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = work();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Runs `work` and returns its value and the most heap it held live at
/// once, above what was live when it started.
fn peak_heap_during<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let value = work();
    (value, PEAK.load(Ordering::Relaxed) - base)
}

/// A loop over two DL1-resident lines: three loads and two stores per
/// iteration, with a loop counter that no loaded value feeds, so strikes
/// on the data never change the control flow.
fn resident_loop(iterations: u32) -> Program {
    Program::assemble(&format!(
        "
            addi r1, r0, 0x1000
            addi r2, r0, {iterations}
        loop:
            ld   r3, [r1 + 0]
            ld   r4, [r1 + 4]
            add  r5, r3, r4
            st   r5, [r1 + 8]
            ld   r6, [r1 + 32]
            addi r6, r6, 1
            st   r6, [r1 + 36]
            subi r2, r2, 1
            bne  r2, r0, loop
            halt
        "
    ))
    .expect("the loop assembles")
}

/// The recording of one fault-free simulation of the loop.
fn loop_recording(iterations: u32, config: &PipelineConfig) -> Trace {
    let fault_free = PipelineConfig {
        fault_campaign: None,
        ..config.clone()
    };
    let mut simulator = Simulator::new(resident_loop(iterations), fault_free);
    simulator.attach_recorder(TraceRecorder::with_detail(
        TraceContext::new("resident_loop", config.scheme.to_string(), "-", 0),
        TraceDetail::Replay,
    ));
    let result = simulator.execute();
    simulator
        .take_recorder()
        .expect("the recorder is still attached")
        .finish(result.trace_summary())
}

/// Allocations of one full simulation of the loop, and of a replay of its
/// recording (the program, the recording and its decoded events are built
/// outside the counted spans).
fn loop_allocations(iterations: u32, config: &PipelineConfig) -> (u64, u64) {
    let (program, run_config) = (resident_loop(iterations), config.clone());
    let (_, simulated) = allocations_during(|| Simulator::run(program, run_config));

    let trace = loop_recording(iterations, config);
    let (_, replayed) = allocations_during(|| {
        let mut target = ReplayMemory::new(config.hierarchy);
        if let Some(fault) = config.fault_campaign {
            target = target.with_fault_campaign(fault);
        }
        let outcome = replay_events(trace.events(), &mut target);
        (outcome, target.drain_to_memory())
    });
    (simulated, replayed)
}

/// Allocations of one fault-free simulation of the loop carrying one seed
/// overlay per campaign in `overlays`, and of a replay of its recording
/// carrying them (the program, the recording and the overlays are built
/// outside the counted spans).
fn overlay_loop_allocations(
    iterations: u32,
    config: &PipelineConfig,
    overlays: &[FaultCampaignConfig],
) -> (u64, u64) {
    let flush_on_error = matches!(config.scheme, EccScheme::SpeculateFlush { .. });
    let mut simulator = Simulator::new(resident_loop(iterations), config.clone());
    let carried = SeedOverlays::new(overlays, flush_on_error);
    let (_, simulated) = allocations_during(|| {
        simulator.attach_overlays(carried);
        let result = simulator.execute();
        (result, simulator.take_overlays())
    });

    let trace = loop_recording(iterations, config);
    let carried = SeedOverlays::new(overlays, flush_on_error);
    let (_, replayed) = allocations_during(|| {
        let mut target = ReplayMemory::new(config.hierarchy);
        target.attach_overlays(carried);
        let outcome = replay_events(trace.events(), &mut target);
        (outcome, target.drain_to_memory(), target.take_overlays())
    });
    (simulated, replayed)
}

/// Allocations of one two-core run in which both cores run the loop on
/// the same lines; only core 0 carries `config`'s strikes, and the seed
/// overlays of `overlays`, if any (built outside the counted span).  Also
/// returns how many of the overlays escaped as `remote`.
fn shared_loop_allocations(
    iterations: u32,
    config: &PipelineConfig,
    protocol: ProtocolKind,
    overlays: &[FaultCampaignConfig],
) -> (u64, usize) {
    let programs = vec![resident_loop(iterations), resident_loop(iterations)];
    let unstruck = PipelineConfig {
        fault_campaign: None,
        ..config.clone()
    };
    let configs = vec![config.clone(), unstruck];
    let flush_on_error = matches!(config.scheme, EccScheme::SpeculateFlush { .. });
    let carried = (!overlays.is_empty()).then(|| SeedOverlays::new(overlays, flush_on_error));
    let ((_, carried), allocations) = allocations_during(|| {
        let mut system = SmpSystem::with_protocol(programs, configs, protocol);
        if let Some(carried) = carried {
            system.attach_overlays(carried);
        }
        (system.run(StopPolicy::AllHalt), system.take_overlays())
    });
    let remote = carried
        .iter()
        .flat_map(SeedOverlays::outcomes)
        .filter(|outcome| *outcome == OverlayOutcome::Escaped(EscapeReason::Remote))
        .count();
    (allocations, remote)
}

fn check_steady_state() {
    const N: u32 = 1000;
    // One uncounted run first, so one-time lazy set-up in the standard
    // library and the test harness happens outside every comparison.
    loop_allocations(N, &PipelineConfig::laec());
    for scheme in EccScheme::figure8_set() {
        for platform in [PlatformVariant::WriteBack, PlatformVariant::WriteThrough] {
            for fault in [None, Some(FaultCampaignConfig::single_bit(0x5EED, 200))] {
                let mut config = platform.apply_config(PipelineConfig::for_scheme(scheme));
                config.fault_campaign = fault;
                let short = loop_allocations(N, &config);
                let long = loop_allocations(4 * N, &config);
                let cell = format!("{scheme} on {platform}, strikes {}", fault.is_some());
                assert_eq!(
                    short.0, long.0,
                    "{cell}: full simulation allocates per iteration"
                );
                assert_eq!(short.1, long.1, "{cell}: replay allocates per iteration");
            }
            for double_fraction in [0.0, 0.5] {
                let config = platform.apply_config(PipelineConfig::for_scheme(scheme));
                let overlays: Vec<FaultCampaignConfig> = (1..=4)
                    .map(|seed| FaultCampaignConfig {
                        double_fraction,
                        ..FaultCampaignConfig::single_bit(0x5EED + seed, 200)
                    })
                    .collect();
                let short = overlay_loop_allocations(N, &config, &overlays);
                let long = overlay_loop_allocations(4 * N, &config, &overlays);
                let cell = format!("{scheme} on {platform}, 4 overlays (double {double_fraction})");
                assert_eq!(
                    short.0, long.0,
                    "{cell}: the simulated overlay path allocates per iteration"
                );
                assert_eq!(
                    short.1, long.1,
                    "{cell}: the replayed overlay path allocates per iteration"
                );
            }
        }
    }
    check_shared_steady_state();
}

fn check_shared_steady_state() {
    const N: u32 = 500;
    for protocol in ProtocolKind::ALL {
        for scheme in EccScheme::figure8_set() {
            for platform in [PlatformVariant::WriteBack, PlatformVariant::WriteThrough] {
                for fault in [None, Some(FaultCampaignConfig::single_bit(0x5EED, 200))] {
                    let mut config = platform.apply_config(PipelineConfig::for_scheme(scheme));
                    config.fault_campaign = fault;
                    let short = shared_loop_allocations(N, &config, protocol, &[]);
                    let long = shared_loop_allocations(4 * N, &config, protocol, &[]);
                    assert_eq!(
                        short.0,
                        long.0,
                        "two {protocol} cores, {scheme} on {platform}, strikes {}: \
                         the shared step path allocates per iteration",
                        fault.is_some()
                    );
                }
                let config = platform.apply_config(PipelineConfig::for_scheme(scheme));
                let overlays: Vec<FaultCampaignConfig> = (1..=4)
                    .map(|seed| FaultCampaignConfig::single_bit(0x5EED + seed, 200))
                    .collect();
                let short = shared_loop_allocations(N, &config, protocol, &overlays);
                let long = shared_loop_allocations(4 * N, &config, protocol, &overlays);
                let cell = format!("two {protocol} cores, {scheme} on {platform}, 4 overlays");
                assert_eq!(
                    short.0, long.0,
                    "{cell}: the overlay path on core 0 allocates per iteration"
                );
                assert!(long.1 > 0, "{cell}: core 1's accesses escape a seed");
            }
        }
    }
}

fn check_ceilings() {
    let spec = CampaignSpec::from_json(include_str!("../specs/ci_smoke.json"))
        .expect("the golden spec parses");
    let grid = spec.grid();

    let full = Campaign::new(spec.validate().expect("the golden spec validates"));
    let (outcome, allocations) = allocations_during(|| full.run(1));
    let report = outcome.grid().expect("a grid report");
    let instructions: u64 = report.cells.iter().map(|cell| cell.instructions).sum();
    let per_instruction = allocations as f64 / instructions as f64;
    assert!(
        per_instruction <= FULL_PER_INSTRUCTION,
        "full simulation: {allocations} allocations over {instructions} simulated \
         instructions = {per_instruction:.4} each, above the ceiling {FULL_PER_INSTRUCTION}"
    );

    // The ceiling's unit: each faulty cell replaying the whole recording
    // of its fault-free twin.
    let mut replayed_events = 0u64;
    for workload in &grid.materialize_workloads() {
        for &platform in &grid.platforms {
            for &scheme in &grid.schemes {
                let (_, trace) =
                    record_cell(&grid, workload, scheme, platform, TraceDetail::Replay);
                replayed_events += trace.events().len() as u64 * grid.fault_seeds.len() as u64;
            }
        }
    }
    // The counted run replays a warm trace cache, warmed outside it: each
    // triple decodes its recording and replays it once, carrying the
    // triple's fault seeds as overlays.
    let cache = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("allocations-ceilings");
    let _ = std::fs::remove_dir_all(&cache);
    let mode = ExecutionMode::TraceBacked {
        cache_dir: Some(cache.clone()),
    };
    let traced = CampaignSpec::from_grid(&grid, mode);
    let traced = Campaign::new(traced.validate().expect("the traced spec validates"));
    let cold = traced.run(1);
    assert_eq!(
        cold.grid(),
        Some(report),
        "recording leaves the report unchanged"
    );
    let (outcome, allocations) = allocations_during(|| traced.run(1));
    let _ = std::fs::remove_dir_all(&cache);
    assert_eq!(
        outcome.grid(),
        Some(report),
        "the trace-backed run reproduces the full report"
    );
    let stats = outcome.trace_stats().expect("trace-backed counters");
    let triples = (grid.workload_count() * grid.platforms.len() * grid.schemes.len()) as u64;
    assert_eq!(
        (stats.cache_loads, stats.recorded),
        (triples, 0),
        "every triple replays its cached recording: {stats}"
    );
    let per_event = allocations as f64 / replayed_events as f64;
    assert!(
        per_event <= TRACE_BACKED_PER_REPLAYED_EVENT,
        "trace-backed: {allocations} allocations over {replayed_events} replayed events \
         = {per_event:.4} each, above the ceiling {TRACE_BACKED_PER_REPLAYED_EVENT}"
    );
}

fn check_heap_peak() {
    let mut grid = GridSpec::paper_grid();
    grid.workloads = WorkloadSet::Named(vec!["a2time".into()]);
    grid.fault_seeds = vec![1, 2];
    grid.fault_interval = 200;
    let workload = &grid.materialize_workloads()[0];
    let (_, trace) = record_cell(
        &grid,
        workload,
        EccScheme::Laec,
        PlatformVariant::WriteBack,
        TraceDetail::Replay,
    );
    let recording = std::mem::size_of_val(trace.events()) as u64;
    drop(trace);
    // A grid records only into a trace cache: each run gets a fresh one.
    let cache = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("allocations-heap-peak");
    let peak = |schemes: &[EccScheme]| {
        let _ = std::fs::remove_dir_all(&cache);
        let mut grid = grid.clone();
        grid.schemes = schemes.to_vec();
        let mode = ExecutionMode::TraceBacked {
            cache_dir: Some(cache.clone()),
        };
        let traced = CampaignSpec::from_grid(&grid, mode);
        let traced = Campaign::new(traced.validate().expect("the traced spec validates"));
        let (outcome, peak) = peak_heap_during(|| traced.run(1));
        let stats = outcome.trace_stats().expect("trace-backed counters");
        assert_eq!(stats.recorded, schemes.len() as u64, "a cold cache records");
        peak
    };
    let one = peak(&[EccScheme::Laec]);
    let four = peak(&EccScheme::figure8_set());
    let _ = std::fs::remove_dir_all(&cache);
    assert!(
        four.abs_diff(one) < recording,
        "a trace-backed grid peaks at {four} B under four schemes and {one} B under one: \
         it keeps more than one {recording}-B recording alive at a time"
    );
}

#[test]
fn simulation_loop_allocates_only_while_warming_up() {
    check_steady_state();
    check_ceilings();
    check_heap_peak();
}
