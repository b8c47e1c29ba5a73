//! Robustness of the decoders of persisted bytes other than traces
//! (`tests/trace_container.rs` covers those).  Every truncation point and
//! every single-byte flip (the byte inverted) of each input must decode
//! or fail with an `Err`, never panic:
//!
//! 1. sampler checkpoints — the committed `sampler_v2.ckpt` fixture and a
//!    fresh checkpoint with several strata.  The payload is covered by a
//!    checksum, so every flip is also tried re-sealed with a matching one:
//!    that variant reaches the field decoder itself.  A re-sealed
//!    container that claims 2^60 strata must fail as truncated;
//! 2. the golden campaign spec `specs/ci_smoke.json`;
//! 3. the fleet's task and job records and its queue and claim file names.
//!
//! Text decoders take `&str`, so a mutation that leaves invalid UTF-8 is
//! rejected before it reaches them and is skipped here.

use std::panic::{catch_unwind, AssertUnwindSafe};

use laec::core::campaign::{CampaignSpec as GridSpec, WorkloadSet};
use laec::core::sampling::{CheckpointError, SampleExecution, Sampler, SamplerCheckpoint};
use laec::core::spec::CampaignSpec;
use laec::core::SamplingPlan;
use laec::fleet::task::{claim_name, parse_claim_name, task_stem};
use laec::fleet::{FleetPaths, JobRecord, JobState, Task, TaskKind};
use laec::pipeline::EccScheme;
use laec::prelude::PlatformVariant;
use laec::trace::varint;

const V2_CHECKPOINT: &[u8] = include_bytes!("../crates/core/tests/fixtures/sampler_v2.ckpt");
const CI_SMOKE_SPEC: &[u8] = include_bytes!("../specs/ci_smoke.json");

/// FNV-1a, the checkpoint's trailing checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Runs `decode`, turning a panic into a test failure that names the
/// mutation.
fn without_panic<T>(mutation: &str, decode: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(decode))
        .unwrap_or_else(|_| panic!("{mutation}: the decoder panicked"))
}

/// Feeds `decode` every truncation and every single-byte inversion of
/// `input`.  Truncations must fail when `prefixes_fail`.
fn check_mutations(name: &str, input: &[u8], prefixes_fail: bool, decode: impl Fn(&[u8]) -> bool) {
    assert!(decode(input), "{name}: the intact input decodes");
    for cut in 0..input.len() {
        let mutation = format!("{name}: truncated to {cut} bytes");
        let decoded = without_panic(&mutation, || decode(&input[..cut]));
        assert!(!(prefixes_fail && decoded), "{mutation}: decoded");
    }
    let mut flipped = input.to_vec();
    for at in 0..input.len() {
        flipped[at] ^= 0xFF;
        without_panic(&format!("{name}: byte {at} flipped"), || decode(&flipped));
        flipped[at] ^= 0xFF;
    }
}

/// [`check_mutations`] for a text decoder: mutations that are not UTF-8
/// count as rejected.
fn check_text_mutations(name: &str, input: &str, decode: impl Fn(&str) -> bool) {
    check_mutations(name, input.as_bytes(), false, |bytes| {
        std::str::from_utf8(bytes).is_ok_and(&decode)
    });
}

/// Re-seals `body` with its checksum.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut container = body.to_vec();
    container.extend_from_slice(&fnv1a(body).to_le_bytes());
    container
}

/// Checks a checkpoint container: every truncation and flip as it stands,
/// and every flip of the payload again re-sealed.
fn check_checkpoint(name: &str, container: &[u8]) {
    let decode = |bytes: &[u8]| SamplerCheckpoint::decode(bytes).is_ok();
    check_mutations(name, container, true, decode);
    let body = &container[..container.len() - 8];
    let mut flipped = body.to_vec();
    for at in 0..body.len() {
        flipped[at] ^= 0xFF;
        let resealed = sealed(&flipped);
        let mutation = format!("{name}: byte {at} flipped, re-sealed");
        without_panic(&mutation, || SamplerCheckpoint::decode(&resealed).is_ok());
        flipped[at] ^= 0xFF;
    }
}

/// A checkpoint of one round over four strata, each with samples taken.
fn fresh_checkpoint() -> Vec<u8> {
    let mut spec = GridSpec::smoke();
    spec.workloads = WorkloadSet::Named(vec!["vector_sum".into()]);
    spec.schemes = vec![EccScheme::NoEcc, EccScheme::Laec];
    spec.platforms = vec![PlatformVariant::WriteBack, PlatformVariant::WriteThrough];
    spec.fault_interval = 50;
    let mut plan = SamplingPlan::new(8);
    plan.min_samples = 4;
    plan.batch = 4;
    let mut sampler = Sampler::new(&spec, &plan, &SampleExecution::FullSim, 1);
    let _ = sampler.run_rounds(1, Some(1));
    let checkpoint = sampler.checkpoint();
    assert_eq!(checkpoint.strata_len(), 4);
    checkpoint.encode()
}

#[test]
fn checkpoints_survive_every_truncation_and_byte_flip() {
    check_checkpoint("sampler_v2.ckpt", V2_CHECKPOINT);
    check_checkpoint("four-stratum checkpoint", &fresh_checkpoint());
}

#[test]
fn a_checkpoint_claiming_2_pow_60_strata_is_truncated() {
    // Magic, version and fingerprint of the fixture, then the huge count.
    let header = &V2_CHECKPOINT[..8 + 1 + 16];
    let mut body = header.to_vec();
    varint::write_u64(&mut body, 1 << 60);
    assert_eq!(
        SamplerCheckpoint::decode(&sealed(&body)),
        Err(CheckpointError::Truncated)
    );
}

#[test]
fn the_golden_spec_survives_every_truncation_and_byte_flip() {
    let text = std::str::from_utf8(CI_SMOKE_SPEC).expect("the golden spec is UTF-8");
    check_text_mutations("ci_smoke.json", text, |text| {
        CampaignSpec::from_json(text).is_ok()
    });
}

#[test]
fn fleet_records_and_names_survive_every_truncation_and_byte_flip() {
    let task = Task {
        job: 7,
        shard: 2,
        kind: TaskKind::Strata { lo: 3, hi: 9 },
        spec_rel: "active/j5-0000000007.json".to_string(),
    };
    check_text_mutations("task", &task.to_json(), |text| {
        Task::from_json(text).is_ok()
    });
    let mut record = JobRecord::new(7, 5, "0123456789abcdef0123456789abcdef".to_string());
    record.state = JobState::Failed;
    record.shards = 3;
    record.error = Some("worker exited".to_string());
    check_text_mutations("job record", &record.to_json(), |text| {
        JobRecord::from_json(text).is_ok()
    });
    check_text_mutations("queue name", &FleetPaths::queue_name(5, 7), |name| {
        FleetPaths::parse_queue_name(name).is_some()
    });
    let claim = claim_name(&task_stem(7, 2), "w1", 4242);
    check_text_mutations("claim name", &claim, |name| {
        parse_claim_name(name).is_some()
    });
}
