//! MESI protocol conformance: the exhaustive state-transition table.
//!
//! For every start state {M, E, S, I} of a line in core 0's DL1, exercise
//! every input — local read, local write, remote read, remote write,
//! eviction — on a two-core system and assert the next state (and the side
//! effects the protocol mandates: upgrades, invalidations, interventions,
//! writebacks) against the protocol specification:
//!
//! | from | local rd | local wr      | remote rd       | remote wr | evict        |
//! |------|----------|---------------|-----------------|-----------|--------------|
//! | I    | E (or S) | M (RdX)       | —               | —         | —            |
//! | S    | S        | M (BusUpgr)   | S               | I         | I (silent)   |
//! | E    | E        | M (silent)    | S               | I         | I (silent)   |
//! | M    | M        | M             | S (supplies)    | I (sup.)  | I (writeback)|
//!
//! Plus the deliberate false-sharing kernel: invalidation counts must grow
//! with the core count even though every final counter value is exact.

use laec_mem::{HierarchyConfig, MemorySystem, MesiState, ProtocolKind};
use laec_pipeline::PipelineConfig;
use laec_smp::{SmpSystem, StopPolicy};
use laec_workloads::smp::{false_sharing, SHARED_BASE};

const A: u32 = 0x1_0000;

fn two_cores() -> MemorySystem {
    MemorySystem::with_cores(HierarchyConfig::ngmp_write_back(), 2, ProtocolKind::Mesi)
}

/// Drives core 0's copy of `A` into the requested start state.
fn reach(memory: &mut MemorySystem, state: MesiState) {
    memory.preload_word(A, 0xC0DE);
    match state {
        MesiState::Invalid => {}
        MesiState::Exclusive => {
            memory.load(0, A, 0);
        }
        MesiState::Shared => {
            memory.load(0, A, 0);
            memory.load(1, A, 10);
        }
        MesiState::Modified => {
            memory.store(0, A, 0xBEEF, 0xF, 0);
        }
        other => unreachable!("{other:?} is not a MESI state"),
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
    reach(&mut memory, MesiState::Invalid);
    let response = memory.load(0, A, 0);
    assert!(!response.dl1_hit);
    assert_eq!(response.value, 0xC0DE);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Exclusive);
}

#[test]
fn from_invalid_local_read_fills_shared_when_a_remote_copy_exists() {
    let mut memory = two_cores();
    memory.preload_word(A, 0xC0DE);
    memory.load(1, A, 0); // remote copy: E in core 1
    let response = memory.load(0, A, 10);
    assert_eq!(response.value, 0xC0DE);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Shared);
    assert_eq!(
        memory.dl1(1).coherence_state(A),
        MesiState::Shared,
        "remote E downgraded"
    );
}

#[test]
fn from_invalid_local_read_of_a_remote_modified_line_takes_the_intervention() {
    let mut memory = two_cores();
    memory.store(1, A, 0xFACE, 0xF, 0); // M in core 1, memory stale
    assert_eq!(memory.dl1(1).coherence_state(A), MesiState::Modified);
    let response = memory.load(0, A, 10);
    assert_eq!(response.value, 0xFACE, "the dirty owner supplied the line");
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Shared);
    assert_eq!(memory.dl1(1).coherence_state(A), MesiState::Shared);
    assert_eq!(memory.coherence_stats().interventions, 1);
}

#[test]
fn from_invalid_local_write_allocates_modified_and_invalidates_remotes() {
    let mut memory = two_cores();
    memory.preload_word(A, 0xC0DE);
    memory.load(1, A, 0); // remote copy
    memory.store(0, A, 7, 0xF, 10);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Modified);
    assert_eq!(
        memory.dl1(1).coherence_state(A),
        MesiState::Invalid,
        "RdX invalidates"
    );
    assert_eq!(memory.coherence_stats().invalidations, 1);
}

#[test]
fn from_shared_local_read_stays_shared() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Shared);
    assert!(memory.load(0, A, 20).dl1_hit);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Shared);
}

#[test]
fn from_shared_local_write_upgrades_to_modified() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Shared);
    let before = memory.coherence_stats();
    let response = memory.store(0, A, 9, 0xF, 20);
    assert!(response.dl1_hit);
    assert!(
        response.extra_cycles > 0,
        "a BusUpgr broadcast is not free ({} cycles)",
        response.extra_cycles
    );
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Modified);
    assert_eq!(memory.dl1(1).coherence_state(A), MesiState::Invalid);
    let after = memory.coherence_stats();
    assert_eq!(after.upgrades, before.upgrades + 1);
    assert_eq!(after.invalidations, before.invalidations + 1);
}

#[test]
fn from_shared_remote_read_stays_shared() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Shared);
    memory.load(1, A, 20);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Shared);
    assert_eq!(memory.dl1(1).coherence_state(A), MesiState::Shared);
}

#[test]
fn from_shared_remote_write_invalidates() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Shared);
    memory.store(1, A, 5, 0xF, 20);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Invalid);
    assert_eq!(memory.dl1(1).coherence_state(A), MesiState::Modified);
}

#[test]
fn from_shared_eviction_is_silent() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Shared);
    evict(&mut memory, 0, A, 100);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Invalid);
    // The other copy is untouched and the data intact.
    assert_eq!(memory.dl1(1).coherence_state(A), MesiState::Shared);
    assert_eq!(memory.load(1, A, 200).value, 0xC0DE);
}

#[test]
fn from_exclusive_local_read_stays_exclusive() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Exclusive);
    assert!(memory.load(0, A, 20).dl1_hit);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Exclusive);
}

#[test]
fn from_exclusive_local_write_goes_modified_silently() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Exclusive);
    let bus_before = memory.core_stats(0).bus_transactions;
    let response = memory.store(0, A, 3, 0xF, 20);
    assert!(response.dl1_hit);
    assert_eq!(response.extra_cycles, 0, "E→M needs no bus transaction");
    assert_eq!(memory.core_stats(0).bus_transactions, bus_before);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Modified);
}

#[test]
fn from_exclusive_remote_read_downgrades_to_shared() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Exclusive);
    memory.load(1, A, 20);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Shared);
    assert_eq!(memory.dl1(1).coherence_state(A), MesiState::Shared);
}

#[test]
fn from_exclusive_remote_write_invalidates() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Exclusive);
    memory.store(1, A, 5, 0xF, 20);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Invalid);
    assert_eq!(memory.dl1(1).coherence_state(A), MesiState::Modified);
}

#[test]
fn from_exclusive_eviction_is_silent() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Exclusive);
    evict(&mut memory, 0, A, 100);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Invalid);
    assert_eq!(memory.load(1, A, 200).value, 0xC0DE, "clean data survives");
}

#[test]
fn from_modified_local_accesses_stay_modified() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Modified);
    assert!(memory.load(0, A, 20).dl1_hit);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Modified);
    memory.store(0, A, 0xAAAA, 0xF, 30);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Modified);
}

#[test]
fn from_modified_remote_read_supplies_and_shares() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Modified);
    let response = memory.load(1, A, 20);
    assert_eq!(response.value, 0xBEEF, "intervention forwards dirty data");
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Shared);
    assert_eq!(memory.dl1(1).coherence_state(A), MesiState::Shared);
    assert_eq!(memory.coherence_stats().interventions, 1);
}

#[test]
fn from_modified_remote_write_supplies_and_invalidates() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Modified);
    memory.store(1, A, 0x5555, 0xF, 20);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Invalid);
    assert_eq!(memory.dl1(1).coherence_state(A), MesiState::Modified);
    assert_eq!(memory.coherence_stats().interventions, 1);
    assert_eq!(memory.coherence_stats().invalidations, 1);
    // The newest value is the remote writer's.
    assert_eq!(memory.peek_coherent(A), 0x5555);
}

#[test]
fn from_modified_eviction_writes_back() {
    let mut memory = two_cores();
    reach(&mut memory, MesiState::Modified);
    evict(&mut memory, 0, A, 100);
    assert_eq!(memory.dl1(0).coherence_state(A), MesiState::Invalid);
    // The dirty value survived below (L2) and a fresh load sees it.
    assert_eq!(memory.load(1, A, 200).value, 0xBEEF);
}

#[test]
fn false_sharing_invalidations_grow_with_core_count() {
    let invalidations = |cores: u32| {
        let workload = false_sharing(cores, 64);
        let configs = vec![PipelineConfig::laec(); workload.programs.len()];
        let mut system = SmpSystem::new(workload.programs, configs);
        let result = system.run(StopPolicy::AllHalt);
        // Correctness first: the counters are exact despite the ping-pong.
        for core in 0..cores {
            assert_eq!(
                system.memory().peek_coherent(SHARED_BASE + 4 * core),
                64,
                "core {core} counter at {cores} cores"
            );
        }
        result.coherence.invalidations
    };
    let one = invalidations(1);
    let two = invalidations(2);
    let four = invalidations(4);
    assert_eq!(one, 0, "a single core has nobody to invalidate");
    assert!(two > 0, "two cores on one line must fight over it");
    assert!(
        four > 2 * two,
        "more cores, more ping-pong: {four} vs {two}"
    );
}
