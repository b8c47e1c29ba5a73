//! Exact equivalence of bulk and serial fault-injection opportunity
//! accounting.
//!
//! `FaultCampaign::maybe_inject_many(n)` must inject at *exactly* the same
//! opportunities — same count, same RNG stream, same struck words, same
//! internal countdown afterwards — as `n` repeated `maybe_inject` calls.
//! Trace-backed replay burns through run-length-encoded commit runs with
//! the bulk path while full simulation takes the serial path; any
//! off-by-one between them would silently break the byte-identical
//! guarantee of trace-backed campaigns and of the sampled campaign engine
//! built on top of them.
//!
//! The boundary cases called out here: `interval == 1` (every opportunity
//! injects) and chunks that end exactly at an injection boundary
//! (`remaining == until_next` entering the bulk call).

use laec_mem::{FaultCampaign, FaultCampaignConfig, HierarchyConfig, MemorySystem};

/// A memory system with a populated DL1 so every strike finds a target.
fn populated_system() -> MemorySystem {
    let mut system = MemorySystem::new(HierarchyConfig::ngmp_write_back());
    for i in 0..32u32 {
        system.preload_word(0x6000 + 4 * i, i.wrapping_mul(0x0101_0101));
    }
    for i in 0..32u32 {
        system.load(0, 0x6000 + 4 * i, u64::from(i));
    }
    system
}

/// Drives one serial and one bulk campaign over the same opportunity
/// stream (`chunks` for the bulk side, their sum serially) and asserts the
/// two systems and campaigns are indistinguishable — including *after* the
/// stream, by continuing both serially for `tail` further opportunities.
fn assert_bulk_matches_serial(interval: u64, chunks: &[u64], tail: u64) {
    let mut serial_system = populated_system();
    let mut bulk_system = populated_system();
    let config = FaultCampaignConfig::single_bit(0xD15EA5E, interval);
    let mut serial = FaultCampaign::new(config);
    let mut bulk = FaultCampaign::new(config);

    let total: u64 = chunks.iter().sum();
    let mut serial_injected = 0;
    for _ in 0..total {
        if serial.maybe_inject(&mut serial_system, 0).is_some() {
            serial_injected += 1;
        }
    }
    let mut bulk_injected = 0;
    for &chunk in chunks {
        bulk_injected += bulk.maybe_inject_many(chunk, &mut bulk_system, 0);
    }

    assert_eq!(
        serial_injected, bulk_injected,
        "interval {interval}, chunks {chunks:?}: injection counts diverged"
    );
    assert_eq!(
        serial.report(),
        bulk.report(),
        "interval {interval}, chunks {chunks:?}: campaign reports diverged"
    );

    // The countdown state after the stream must agree too: continue both
    // campaigns serially and require identical injection patterns.
    for opportunity in 0..tail {
        assert_eq!(
            serial.maybe_inject(&mut serial_system, 0).is_some(),
            bulk.maybe_inject(&mut bulk_system, 0).is_some(),
            "interval {interval}, chunks {chunks:?}: countdown diverged at \
             tail opportunity {opportunity}"
        );
    }

    // Same struck words in the same order ⇒ identical ECC outcomes when
    // everything is read back, and identical ECC statistics.
    for i in 0..32u32 {
        let address = 0x6000 + 4 * i;
        let now = 10_000 + u64::from(i);
        assert_eq!(
            serial_system.load(0, address, now).outcome,
            bulk_system.load(0, address, now).outcome,
            "interval {interval}, chunks {chunks:?}: word {address:#x} differs"
        );
    }
    assert_eq!(
        serial_system.core_stats(0).dl1.ecc,
        bulk_system.core_stats(0).dl1.ecc
    );
    assert_eq!(
        serial_system.core_unrecoverable_errors(0),
        bulk_system.core_unrecoverable_errors(0)
    );
}

#[test]
fn interval_one_injects_on_every_opportunity_in_both_paths() {
    // interval == 1: every opportunity is an injection boundary.
    assert_bulk_matches_serial(1, &[1, 1, 1, 5, 0, 3], 7);
    let mut system = populated_system();
    let mut campaign = FaultCampaign::new(FaultCampaignConfig::single_bit(9, 1));
    assert_eq!(campaign.maybe_inject_many(13, &mut system, 0), 13);
    assert_eq!(campaign.report().injected, 13);
}

#[test]
fn chunks_ending_exactly_on_an_injection_boundary() {
    // Entering maybe_inject_many with remaining == until_next: the chunk's
    // last opportunity *is* the injection.  Fresh campaign: until_next ==
    // interval, so a first chunk of exactly `interval` hits the boundary;
    // subsequent multiples of the interval keep landing on it.
    for interval in [2u64, 3, 7, 10] {
        assert_bulk_matches_serial(interval, &[interval], 3 * interval);
        assert_bulk_matches_serial(interval, &[interval, interval, interval], 2 * interval);
        // Partial chunk first, then one sized exactly to the remaining
        // countdown (remaining == until_next mid-stream).
        assert_bulk_matches_serial(interval, &[interval - 1, 1, interval], 2 * interval);
    }
}

#[test]
fn odd_shaped_chunk_streams_match_serial_exactly() {
    for interval in [1u64, 2, 5, 7, 16] {
        assert_bulk_matches_serial(
            interval,
            &[3, 0, 11, 7, 1, 29, 2, 47, 0, 6],
            2 * interval + 3,
        );
        assert_bulk_matches_serial(interval, &[0, 0, 1, 0, 2, 100], interval + 1);
    }
}

#[test]
fn zero_opportunities_are_a_no_op_in_both_paths() {
    let mut system = populated_system();
    let mut campaign = FaultCampaign::new(FaultCampaignConfig::single_bit(5, 4));
    assert_eq!(campaign.maybe_inject_many(0, &mut system, 0), 0);
    assert_eq!(campaign.report().injected, 0);
    assert_eq!(campaign.report().skipped_empty, 0);
    // The countdown must be untouched: three more opportunities reach the
    // interval-4 boundary exactly on the fourth.
    assert!(campaign.maybe_inject(&mut system, 0).is_none());
    assert!(campaign.maybe_inject(&mut system, 0).is_none());
    assert!(campaign.maybe_inject(&mut system, 0).is_none());
    assert!(campaign.maybe_inject(&mut system, 0).is_some());
}

#[test]
fn disabled_campaign_bulk_path_is_inert() {
    let mut system = populated_system();
    let mut campaign = FaultCampaign::new(FaultCampaignConfig {
        interval: 0,
        ..FaultCampaignConfig::default()
    });
    assert_eq!(campaign.maybe_inject_many(1_000, &mut system, 0), 0);
    assert_eq!(campaign.report().injected, 0);
}
