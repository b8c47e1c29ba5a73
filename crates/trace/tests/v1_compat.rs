//! Backward compatibility with format-v1 (single-core) recordings.
//!
//! `tests/fixtures/v1_vector_sum.laectrc` is a real recording produced by
//! the v1 writer (`laec-cli trace record --workloads vector_sum --smoke`)
//! before the core-id field existed.  The v2 reader must decode it
//! unchanged, with every event attributed to core 0.

use laec_trace::{Trace, TraceEvent, FORMAT_VERSION};

const FIXTURE: &[u8] = include_bytes!("fixtures/v1_vector_sum.laectrc");

#[test]
fn v1_fixture_decodes_with_all_events_on_core_zero() {
    let trace = Trace::decode(FIXTURE).expect("v1 container decodes");
    assert_eq!(trace.header.version, 1, "the fixture predates the bump");
    assert!(FORMAT_VERSION > trace.header.version);
    assert_eq!(trace.header.workload, "vector_sum");
    assert_eq!(trace.header.scheme, "laec");
    assert_eq!(trace.header.platform, "wb");
    // Frozen numbers of the recorded run (would change only if old bytes
    // were reinterpreted differently — exactly what this test guards).
    assert_eq!(trace.header.summary.cycles, 5518);
    assert_eq!(trace.header.summary.instructions, 2568);
    assert_eq!(trace.header.event_count, 1027);

    let events = trace.events();
    assert_eq!(events.len(), 1027);
    assert!(
        events.iter().all(|event| event.core() == 0),
        "v1 predates core ids: everything belongs to core 0"
    );
    let (mut commits, mut reads, mut writes) = (0u64, 0u64, 0u64);
    for event in events {
        match event {
            TraceEvent::Commit { count, .. } => commits += count,
            TraceEvent::MemRead { .. } => reads += 1,
            TraceEvent::MemWrite { .. } => writes += 1,
            other => panic!("replay-detail v1 stream holds no {other:?}"),
        }
    }
    assert_eq!(commits, trace.header.summary.instructions);
    assert_eq!(reads, trace.header.summary.loads);
    assert_eq!(writes, trace.header.summary.stores);
}

#[test]
fn single_core_v2_event_bytes_match_the_v1_layout() {
    // A v2 stream that never leaves core 0 emits no core-switch markers, so
    // its event bytes are identical to what the v1 writer produced — only
    // the header's version number differs.  Re-encode the fixture's events
    // with the current writer and compare the event payload byte-for-byte.
    let v1 = Trace::decode(FIXTURE).expect("fixture decodes");
    let events = v1.events();
    let mut recorder = laec_trace::TraceRecorder::new(laec_trace::TraceContext::new(
        v1.header.workload.clone(),
        v1.header.scheme.clone(),
        v1.header.platform.clone(),
        v1.header.context_fingerprint,
    ));
    for event in events {
        match *event {
            TraceEvent::Commit { count, .. } => {
                for _ in 0..count {
                    recorder.record_commit();
                }
            }
            TraceEvent::MemRead {
                address,
                cycle,
                value,
                hit,
                extra_cycles,
                ..
            } => recorder.record_mem_read(address, cycle, value, hit, extra_cycles),
            TraceEvent::MemWrite {
                address,
                cycle,
                value,
                byte_mask,
                ..
            } => recorder.record_mem_write(address, cycle, value, byte_mask),
            _ => unreachable!("replay-detail stream"),
        }
    }
    let v2 = recorder.finish(v1.header.summary);
    assert_eq!(v2.header.version, FORMAT_VERSION);
    assert_eq!(v2.event_bytes_len(), v1.event_bytes_len());
    assert_eq!(v2.events(), events);
    // Re-encoding the decoded fixture reproduces it byte for byte: the
    // container is written only from decoded events, so this is the round
    // trip every persisted trace takes.
    assert_eq!(v1.encode(), FIXTURE);
}

#[test]
fn multi_core_streams_round_trip_core_ids() {
    use laec_trace::{TraceContext, TraceRecorder, TraceSummary};
    // Two cores' emissions interleave into one owner's stream; the core id
    // stamped on each event survives the binary container.
    let mut recorder = TraceRecorder::new(TraceContext::new("w", "s", "p", 0));
    recorder.set_core(0);
    recorder.record_mem_read(0x100, 1, 7, true, 0);
    recorder.record_commit();
    recorder.set_core(1);
    recorder.record_mem_read(0x100, 2, 7, true, 0);
    recorder.record_commit();
    recorder.record_commit();
    recorder.set_core(0);
    recorder.record_commit();
    let recorded = recorder.finish(TraceSummary::default());
    let trace = Trace::decode(&recorded.encode()).expect("decodes");
    assert_eq!(trace, recorded);
    assert_eq!(
        trace.events(),
        [
            TraceEvent::MemRead {
                address: 0x100,
                cycle: 1,
                value: 7,
                hit: true,
                extra_cycles: 0,
                core: 0,
            },
            // Core 0's single pending commit is sealed when core 1 commits:
            // commit runs never span cores.
            TraceEvent::Commit { count: 1, core: 0 },
            TraceEvent::MemRead {
                address: 0x100,
                cycle: 2,
                value: 7,
                hit: true,
                extra_cycles: 0,
                core: 1,
            },
            TraceEvent::Commit { count: 2, core: 1 },
            TraceEvent::Commit { count: 1, core: 0 },
        ]
    );
}
