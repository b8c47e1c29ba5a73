//! Robustness of the one trace decoder against damaged containers.
//!
//! `Trace::decode` is the only reader of persisted recordings (the trace
//! cache and `laec-cli trace record` files).  Every truncation point and
//! every single-byte flip (the byte inverted) of three containers must
//! decode to a trace or fail with a typed `TraceError`, never panic:
//!
//! 1. the committed format-v1 fixture;
//! 2. a fresh v2 recording at full detail (fetches, stalls, line fills
//!    and writebacks);
//! 3. a two-core v2 stream, whose encoding carries core-switch markers.
//!
//! The event section is covered by a checksum, so a flip there is also
//! tried re-sealed with a matching checksum: that variant reaches the
//! event decoder itself.

use std::panic::catch_unwind;

use laec::isa::Program;
use laec::pipeline::{PipelineConfig, Simulator};
use laec::trace::{Trace, TraceContext, TraceEvent, TraceRecorder, TraceSummary};

const V1_FIXTURE: &[u8] = include_bytes!("../crates/trace/tests/fixtures/v1_vector_sum.laectrc");

/// FNV-1a, the container's event-section checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Decodes `bytes`, turning a panic into a test failure that names the
/// mutation.
fn decode_without_panic(bytes: &[u8], mutation: &str) -> Result<Trace, String> {
    catch_unwind(|| Trace::decode(bytes))
        .unwrap_or_else(|_| panic!("{mutation}: the decoder panicked"))
        .map_err(|error| error.to_string())
}

/// Tries every truncation and every byte flip of `container`.
fn check_mutations(name: &str, container: &[u8]) {
    let trace = Trace::decode(container).expect("the intact container decodes");
    assert_eq!(trace.encode(), container, "{name}: re-encoding is exact");
    let checksum_at = container.len() - 8;
    let events_at = checksum_at - trace.event_bytes_len();

    for cut in 0..container.len() {
        let mutation = format!("{name}: truncated to {cut} bytes");
        assert!(
            decode_without_panic(&container[..cut], &mutation).is_err(),
            "{mutation}: decoded"
        );
    }
    let mut flipped = container.to_vec();
    for at in 0..container.len() {
        flipped[at] ^= 0xFF;
        let _ = decode_without_panic(&flipped, &format!("{name}: byte {at} flipped"));
        if (events_at..checksum_at).contains(&at) {
            let checksum = fnv1a(&flipped[events_at..checksum_at]).to_le_bytes();
            flipped[checksum_at..].copy_from_slice(&checksum);
            let _ =
                decode_without_panic(&flipped, &format!("{name}: byte {at} flipped, re-sealed"));
            flipped[checksum_at..].copy_from_slice(&container[checksum_at..]);
        }
        flipped[at] ^= 0xFF;
    }
}

#[test]
fn v1_fixture_survives_every_truncation_and_byte_flip() {
    assert_eq!(V1_FIXTURE.len(), 4572);
    check_mutations("v1 fixture", V1_FIXTURE);
}

#[test]
fn full_detail_recording_survives_every_truncation_and_byte_flip() {
    // A walk over fresh lines with a load-use stall and a store per line:
    // fills on every access, writebacks when the drain flushes.
    let program = Program::assemble(
        "
            addi r1, r0, 0x1000
            addi r2, r0, 6
        loop:
            ld   r3, [r1 + 0]
            add  r4, r3, r3
            st   r4, [r1 + 4]
            addi r1, r1, 64
            subi r2, r2, 1
            bne  r2, r0, loop
            halt
        ",
    )
    .expect("the walk assembles");
    let mut simulator = Simulator::new(program, PipelineConfig::laec());
    simulator.attach_recorder(TraceRecorder::full(TraceContext::new(
        "walk", "laec", "wb", 0,
    )));
    let result = simulator.execute();
    let trace = simulator
        .take_recorder()
        .expect("the recorder is still attached")
        .finish(result.trace_summary());
    for kind in ["Fetch", "Stall", "LineFill", "Writeback"] {
        assert!(
            trace
                .events()
                .iter()
                .any(|event| format!("{event:?}").starts_with(kind)),
            "the recording holds no {kind} event"
        );
    }
    check_mutations("full-detail recording", &trace.encode());
}

#[test]
fn two_core_stream_survives_every_truncation_and_byte_flip() {
    let mut recorder = TraceRecorder::new(TraceContext::new("pair", "laec", "smp2", 0));
    for round in 0..24u32 {
        let core = u8::from(round % 3 == 0);
        recorder.set_core(core);
        recorder.record_mem_read(0x2000 + 4 * round, u64::from(3 * round), round, true, 0);
        recorder.record_commit();
        recorder.record_mem_write(0x2400 + 8 * round, u64::from(3 * round + 1), !round, 0xF);
        recorder.record_commit();
    }
    let trace = recorder.finish(TraceSummary::default());
    assert!(
        trace
            .events()
            .iter()
            .any(|event| matches!(event, TraceEvent::Commit { core: 1, .. })),
        "both cores recorded"
    );
    check_mutations("two-core stream", &trace.encode());
}
