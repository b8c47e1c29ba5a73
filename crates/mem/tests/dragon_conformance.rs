//! Dragon protocol conformance: the exhaustive state-transition table of
//! the update-based protocol.
//!
//! Dragon never invalidates on a write: stores to shared (`Sc`/`Sm`) lines
//! broadcast the written bytes (`BusUpd`) into the surviving remote copies,
//! which therefore stay coherent *by content*.  A dirty copy snooped by a
//! remote read supplies the line cache-to-cache and keeps the writeback
//! obligation (`Sm`); a remote copy absorbing a `BusUpd` hands that
//! obligation to the writer.
//!
//! | from | local rd | local wr          | remote rd    | remote wr (upd) | evict        |
//! |------|----------|-------------------|--------------|-----------------|--------------|
//! | I    | E (or Sc)| M (or Sm, BusUpd) | —            | —               | —            |
//! | Sc   | Sc       | Sm (BusUpd)       | Sc           | Sc (absorbs)    | I (silent)   |
//! | E    | E        | M (silent)        | Sc           | —               | I (silent)   |
//! | Sm   | Sm       | Sm (BusUpd)       | Sm (supplies)| Sc (absorbs)    | I (writeback)|
//! | M    | M        | M                 | Sm (supplies)| —               | I (writeback)|
//!
//! Plus the deliberate false-sharing kernel: under Dragon the line never
//! ping-pongs — zero invalidations, only update traffic.

use laec_mem::{HierarchyConfig, LineState, MemorySystem, ProtocolKind};
use laec_pipeline::PipelineConfig;
use laec_smp::{SmpSystem, StopPolicy};
use laec_workloads::smp::{false_sharing, SHARED_BASE};

const A: u32 = 0x1_0000;

fn two_cores() -> MemorySystem {
    MemorySystem::with_cores(HierarchyConfig::ngmp_write_back(), 2, ProtocolKind::Dragon)
}

/// Drives core 0's copy of `A` into the requested start state.
fn reach(memory: &mut MemorySystem, state: LineState) {
    memory.preload_word(A, 0xC0DE);
    match state {
        LineState::Invalid => {}
        LineState::Exclusive => {
            memory.load(0, A, 0);
        }
        LineState::SharedClean => {
            memory.load(1, A, 0);
            memory.load(0, A, 10);
        }
        LineState::Modified => {
            memory.store(0, A, 0xBEEF, 0xF, 0);
        }
        LineState::SharedModified => {
            memory.load(1, A, 0);
            memory.load(0, A, 10);
            memory.store(0, A, 0xBEEF, 0xF, 20);
        }
        other => unreachable!("{other:?} is not a Dragon state"),
    }
    assert_eq!(
        memory.dl1(0).coherence_state(A),
        state,
        "setup failed for {state:?}"
    );
}

/// Evicts the line holding `address` from `core`'s DL1 by filling its set
/// with conflicting lines.
fn evict(memory: &mut MemorySystem, core: usize, address: u32, now: u64) {
    let dl1 = memory.config().dl1;
    let stride = dl1.sets() * dl1.line_bytes;
    for i in 1..=dl1.ways {
        memory.load(core, address.wrapping_add(i * stride), now + u64::from(i));
    }
}

#[test]
fn from_invalid_local_read_fills_exclusive_without_sharers() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::Invalid);
    let response = memory.load(0, A, 0);
    assert!(!response.dl1_hit);
    assert_eq!(response.value, 0xC0DE);
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::Exclusive);
}

#[test]
fn from_invalid_local_read_joins_existing_copies_as_shared_clean() {
    let mut memory = two_cores();
    memory.preload_word(A, 0xC0DE);
    memory.load(1, A, 0); // remote copy: E in core 1
    let response = memory.load(0, A, 10);
    assert_eq!(response.value, 0xC0DE);
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::SharedClean);
    assert_eq!(memory.dl1(1).coherence_state(A), LineState::SharedClean);
    assert_eq!(memory.coherence_stats().invalidations, 0);
}

#[test]
fn from_invalid_local_read_of_a_dirty_line_is_supplied_cache_to_cache() {
    let mut memory = two_cores();
    memory.preload_word(A, 0xC0DE);
    memory.store(1, A, 0xFACE, 0xF, 0); // M in core 1, memory stale
    assert_eq!(memory.dl1(1).coherence_state(A), LineState::Modified);
    let response = memory.load(0, A, 10);
    assert_eq!(response.value, 0xFACE, "the dirty owner supplied the line");
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::SharedClean);
    assert_eq!(
        memory.dl1(1).coherence_state(A),
        LineState::SharedModified,
        "the supplier keeps the writeback obligation"
    );
    assert_eq!(memory.coherence_stats().interventions, 1);
    assert_eq!(
        memory.peek_memory(A),
        0xC0DE,
        "no writeback happened: memory stays stale until the owner evicts"
    );
}

#[test]
fn writes_to_shared_lines_update_remote_copies_instead_of_invalidating() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::SharedClean);
    let response = memory.store(0, A, 9, 0xF, 20);
    assert!(response.dl1_hit);
    assert!(response.extra_cycles > 0, "a BusUpd broadcast is not free");
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::SharedModified);
    assert_eq!(
        memory.dl1(1).coherence_state(A),
        LineState::SharedClean,
        "copy survives"
    );
    let remote = memory.load(1, A, 30);
    assert!(remote.dl1_hit, "the remote copy was never invalidated");
    assert_eq!(remote.value, 9, "the update merged the written bytes");
    let stats = memory.coherence_stats();
    assert_eq!(stats.bus_updates, 1);
    assert_eq!(stats.invalidations, 0);
    assert_eq!(stats.upgrades, 0);
}

#[test]
fn from_shared_modified_further_writes_keep_broadcasting() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::SharedModified);
    let before = memory.coherence_stats().bus_updates;
    memory.store(0, A, 0xAAAA, 0xF, 30);
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::SharedModified);
    assert_eq!(memory.coherence_stats().bus_updates, before + 1);
    assert_eq!(memory.load(1, A, 40).value, 0xAAAA);
}

#[test]
fn an_absorbed_update_transfers_the_writeback_obligation() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::SharedModified); // core 0 Sm, core 1 Sc
    memory.store(1, A, 0x5555, 0xF, 30);
    assert_eq!(
        memory.dl1(0).coherence_state(A),
        LineState::SharedClean,
        "the old owner downgrades: the writer now owes the writeback"
    );
    assert_eq!(memory.dl1(1).coherence_state(A), LineState::SharedModified);
    assert_eq!(memory.peek_coherent(A), 0x5555);
    assert_eq!(memory.coherence_stats().invalidations, 0);
}

#[test]
fn from_exclusive_local_write_goes_modified_silently() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::Exclusive);
    let bus_before = memory.core_stats(0).bus_transactions;
    let response = memory.store(0, A, 3, 0xF, 20);
    assert!(response.dl1_hit);
    assert_eq!(response.extra_cycles, 0, "E→M needs no bus transaction");
    assert_eq!(memory.core_stats(0).bus_transactions, bus_before);
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::Modified);
}

#[test]
fn a_write_miss_with_sharers_fetches_then_broadcasts() {
    let mut memory = two_cores();
    memory.preload_word(A, 0xC0DE);
    memory.load(1, A, 0); // remote copy
    let response = memory.store(0, A, 7, 0xF, 10);
    assert!(!response.dl1_hit);
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::SharedModified);
    assert_eq!(
        memory.dl1(1).coherence_state(A),
        LineState::SharedClean,
        "still resident"
    );
    assert_eq!(memory.load(1, A, 20).value, 7);
    let stats = memory.coherence_stats();
    assert_eq!(stats.bus_updates, 1);
    assert_eq!(stats.invalidations, 0, "Dragon write misses do not RdX");
}

#[test]
fn dirty_shared_eviction_writes_back() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::SharedModified);
    evict(&mut memory, 1, A, 50); // drop the clean remote copy (silent)
    evict(&mut memory, 0, A, 100); // the Sm owner must write back
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::Invalid);
    assert_eq!(memory.load(1, A, 200).value, 0xBEEF, "dirty data survived");
}

#[test]
fn false_sharing_produces_update_traffic_and_zero_invalidations() {
    let run = |cores: u32| {
        let workload = false_sharing(cores, 64);
        let configs = vec![PipelineConfig::laec(); workload.programs.len()];
        let mut system = SmpSystem::with_protocol(workload.programs, configs, ProtocolKind::Dragon);
        let result = system.run(StopPolicy::AllHalt);
        // Correctness first: every counter is exact despite the contention.
        for core in 0..cores {
            assert_eq!(
                system.memory().peek_coherent(SHARED_BASE + 4 * core),
                64,
                "core {core} counter at {cores} cores"
            );
        }
        result.coherence
    };
    let two = run(2);
    let four = run(4);
    for (cores, stats) in [(2, two), (4, four)] {
        assert_eq!(
            stats.invalidations, 0,
            "{cores} cores: an update protocol never invalidates"
        );
        assert_eq!(stats.upgrades, 0, "{cores} cores: and never upgrades");
        assert!(stats.bus_updates > 0, "{cores} cores: writes broadcast");
    }
    assert!(
        four.bus_updates > two.bus_updates,
        "more cores, more copies to keep fresh: {} vs {}",
        four.bus_updates,
        two.bus_updates
    );
}

#[test]
fn dragon_runs_are_deterministic() {
    let run = || {
        let workload = laec_workloads::smp::parallel_reduction(4, 128);
        let configs = vec![PipelineConfig::laec(); workload.programs.len()];
        let mut system = SmpSystem::with_protocol(workload.programs, configs, ProtocolKind::Dragon);
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
    assert_eq!(run(), run(), "identical systems run identically");
}
