//! MOESI protocol conformance: the exhaustive state-transition table of
//! the Owned extension.
//!
//! MOESI adds one state to MESI: a dirty line snooped by a remote read
//! moves to `Owned` instead of writing back — the owner keeps supplying
//! the data cache-to-cache and keeps the writeback obligation, so L2 and
//! memory stay stale until the owner evicts.  Writes still invalidate,
//! exactly like MESI.
//!
//! | from | local rd | local wr        | remote rd    | remote wr | evict        |
//! |------|----------|-----------------|--------------|-----------|--------------|
//! | I    | E (or S) | M (RdX)         | —            | —         | —            |
//! | S    | S        | M (BusUpgr)     | S            | I         | I (silent)   |
//! | E    | E        | M (silent)      | S            | I         | I (silent)   |
//! | O    | O        | M (BusUpgr)     | O (supplies) | I (sup.)  | I (writeback)|
//! | M    | M        | M               | O (supplies) | I (sup.)  | I (writeback)|
//!
//! Plus the deliberate false-sharing kernel: MOESI is still an invalidation
//! protocol, so the line ping-pongs just as it does under MESI.

use laec_mem::{HierarchyConfig, LineState, MemorySystem, ProtocolKind};
use laec_pipeline::PipelineConfig;
use laec_smp::{SmpSystem, StopPolicy};
use laec_workloads::smp::{false_sharing, SHARED_BASE};

const A: u32 = 0x1_0000;

fn two_cores() -> MemorySystem {
    MemorySystem::with_cores(HierarchyConfig::ngmp_write_back(), 2, ProtocolKind::Moesi)
}

/// Drives core 0's copy of `A` into the requested start state.
fn reach(memory: &mut MemorySystem, state: LineState) {
    memory.preload_word(A, 0xC0DE);
    match state {
        LineState::Invalid => {}
        LineState::Exclusive => {
            memory.load(0, A, 0);
        }
        LineState::Shared => {
            memory.load(0, A, 0);
            memory.load(1, A, 10);
        }
        LineState::Modified => {
            memory.store(0, A, 0xBEEF, 0xF, 0);
        }
        LineState::Owned => {
            memory.store(0, A, 0xBEEF, 0xF, 0);
            memory.load(1, A, 10);
        }
        other => unreachable!("{other:?} is not a MOESI state"),
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
fn read_fills_match_mesi() {
    let mut memory = two_cores();
    memory.preload_word(A, 0xC0DE);
    memory.load(0, A, 0);
    assert_eq!(
        memory.dl1(0).coherence_state(A),
        LineState::Exclusive,
        "alone: E"
    );
    memory.load(1, A, 10);
    assert_eq!(
        memory.dl1(0).coherence_state(A),
        LineState::Shared,
        "snooped: S"
    );
    assert_eq!(
        memory.dl1(1).coherence_state(A),
        LineState::Shared,
        "joiner: S"
    );
}

#[test]
fn from_modified_remote_read_moves_to_owned_and_supplies() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::Modified);
    let response = memory.load(1, A, 20);
    assert_eq!(response.value, 0xBEEF, "the owner forwarded dirty data");
    assert_eq!(
        memory.dl1(0).coherence_state(A),
        LineState::Owned,
        "no writeback: O"
    );
    assert_eq!(memory.dl1(1).coherence_state(A), LineState::Shared);
    assert_eq!(memory.coherence_stats().interventions, 1);
    assert_eq!(
        memory.peek_memory(A),
        0xC0DE,
        "memory stays stale while an owner exists"
    );
}

#[test]
fn from_owned_local_read_stays_owned() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::Owned);
    assert!(memory.load(0, A, 20).dl1_hit);
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::Owned);
}

#[test]
fn the_owner_keeps_supplying_readers_cache_to_cache() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::Owned);
    evict(&mut memory, 1, A, 50); // the reader loses its copy...
    let response = memory.load(1, A, 60); // ...and comes back for it
    assert_eq!(response.value, 0xBEEF);
    assert_eq!(
        memory.dl1(0).coherence_state(A),
        LineState::Owned,
        "still the owner"
    );
    assert_eq!(memory.coherence_stats().interventions, 2);
    assert_eq!(memory.peek_memory(A), 0xC0DE, "memory still never touched");
}

#[test]
fn from_owned_local_write_upgrades_to_modified_and_invalidates() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::Owned);
    let before = memory.coherence_stats();
    let response = memory.store(0, A, 0x7777, 0xF, 20);
    assert!(response.dl1_hit);
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::Modified);
    assert_eq!(
        memory.dl1(1).coherence_state(A),
        LineState::Invalid,
        "BusUpgr kills copies"
    );
    let after = memory.coherence_stats();
    assert_eq!(after.upgrades, before.upgrades + 1);
    assert_eq!(after.invalidations, before.invalidations + 1);
    assert_eq!(memory.peek_coherent(A), 0x7777);
}

#[test]
fn from_owned_remote_write_invalidates_the_owner() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::Owned); // core 0 O, core 1 S
    memory.store(1, A, 0x5555, 0xF, 20);
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::Invalid);
    assert_eq!(memory.dl1(1).coherence_state(A), LineState::Modified);
    // Safe to drop the owner's dirty copy: the writer's own S copy already
    // held the owner-supplied data before it overwrote it.
    assert_eq!(memory.peek_coherent(A), 0x5555);
}

#[test]
fn from_owned_eviction_writes_back() {
    let mut memory = two_cores();
    reach(&mut memory, LineState::Owned);
    evict(&mut memory, 1, A, 50); // the clean S copy leaves silently
    evict(&mut memory, 0, A, 100); // the owner must write back
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::Invalid);
    assert_eq!(memory.load(1, A, 200).value, 0xBEEF, "dirty data survived");
}

#[test]
fn a_write_miss_takes_the_dirty_line_cache_to_cache() {
    let mut memory = two_cores();
    memory.preload_word(A, 0xC0DE);
    memory.store(1, A, 0xFACE, 0xF, 0); // M in core 1
    memory.store(0, A, 0x1111, 0xF, 10); // RdX: supplied + invalidated
    assert_eq!(memory.dl1(0).coherence_state(A), LineState::Modified);
    assert_eq!(memory.dl1(1).coherence_state(A), LineState::Invalid);
    assert_eq!(memory.coherence_stats().interventions, 1);
    assert_eq!(memory.coherence_stats().invalidations, 1);
    assert_eq!(memory.peek_coherent(A), 0x1111);
    assert_eq!(
        memory.peek_memory(A),
        0xC0DE,
        "the line never touched memory"
    );
}

#[test]
fn false_sharing_still_ping_pongs_under_moesi() {
    let run = |cores: u32| {
        let workload = false_sharing(cores, 64);
        let configs = vec![PipelineConfig::laec(); workload.programs.len()];
        let mut system = SmpSystem::with_protocol(workload.programs, configs, ProtocolKind::Moesi);
        let result = system.run(StopPolicy::AllHalt);
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
    assert!(two.invalidations > 0, "MOESI still invalidates on write");
    assert!(
        four.invalidations > 2 * two.invalidations,
        "more cores, more ping-pong: {} vs {}",
        four.invalidations,
        two.invalidations
    );
    assert_eq!(two.bus_updates, 0, "no update traffic in MOESI");
    assert_eq!(four.bus_updates, 0);
}

#[test]
fn moesi_runs_are_deterministic() {
    let run = || {
        let workload = laec_workloads::smp::parallel_reduction(4, 128);
        let configs = vec![PipelineConfig::laec(); workload.programs.len()];
        let mut system = SmpSystem::with_protocol(workload.programs, configs, ProtocolKind::Moesi);
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
