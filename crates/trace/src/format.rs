//! The versioned binary trace container.
//!
//! Layout (all integers little-endian or LEB128 varints):
//!
//! ```text
//! magic               8 bytes  b"LAECTRC\0"
//! version             varint   FORMAT_VERSION
//! detail              1 byte   0 = replay-only events, 1 = full detail
//! workload            varint length + UTF-8 bytes
//! scheme              varint length + UTF-8 bytes
//! platform            varint length + UTF-8 bytes
//! context_fingerprint 8 bytes  hash of the recording configuration
//! summary             varints + fixed u64s (see TraceSummary)
//! event_count         varint
//! event_bytes_len     varint
//! events              delta/varint-encoded event stream
//! checksum            8 bytes  FNV-1a over the event bytes
//! ```
//!
//! Events are delta-encoded against a tiny codec state (previous address,
//! cycle and pc) shared by writer and reader; addresses and cycles are
//! zigzag deltas, everything else plain varints.  A typical campaign trace
//! costs 3–6 bytes per memory access and ~1.1 bytes per access-free
//! instruction run.

use serde::Serialize;

use crate::event::{MemLevel, StallKind, TraceEvent};
use crate::record::TraceDetail;
use crate::varint;

/// Current format version; readers reject anything newer.
///
/// * v1 — single-core recordings: no core-id markers in the stream.
/// * v2 — events carry a core id, run-length-encoded as an `OP_CORE`
///   switch marker emitted only when the id changes.  v1 containers decode
///   unchanged with every event on core 0 (a v2 stream with no markers is
///   byte-identical to the v1 encoding of the same single-core events).
pub const FORMAT_VERSION: u64 = 2;

const MAGIC: &[u8; 8] = b"LAECTRC\0";

const OP_COMMIT: u8 = 0;
const OP_READ: u8 = 1;
const OP_WRITE: u8 = 2;
const OP_FETCH: u8 = 3;
const OP_STALL: u8 = 4;
const OP_FILL: u8 = 5;
const OP_WRITEBACK: u8 = 6;
/// v2 core-switch marker: all following events belong to the given core.
/// Not an event itself (not counted in `event_count`); never present in v1
/// streams, which is exactly what keeps them decodable.
const OP_CORE: u8 = 7;

/// Why a trace could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The container does not start with the trace magic.
    BadMagic,
    /// The container was written by a newer format version.
    UnsupportedVersion(u64),
    /// The container ended before the structure it promised.
    Truncated,
    /// A structurally invalid field (bad opcode, bad UTF-8, …).
    Corrupt(&'static str),
    /// The event-stream checksum did not match (bit rot / partial write).
    ChecksumMismatch,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a LAEC trace (bad magic)"),
            TraceError::UnsupportedVersion(version) => {
                write!(f, "unsupported trace format version {version}")
            }
            TraceError::Truncated => write!(f, "truncated trace"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::ChecksumMismatch => write!(f, "trace event checksum mismatch"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Summary statistics of the recorded (fault-free) run, carried in the
/// header so replays can reproduce the pipeline-side counters of a campaign
/// cell without re-simulating the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TraceSummary {
    /// Total cycles of the recorded run.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Retired loads.
    pub loads: u64,
    /// Loads that hit in the DL1.
    pub load_hits: u64,
    /// Retired stores.
    pub stores: u64,
    /// Loads executed with the LAEC look-ahead.
    pub lookahead_loads: u64,
    /// `true` if the recording stopped at the instruction cap.
    pub hit_instruction_limit: bool,
    /// FNV-1a fingerprint of the final architectural register file.
    pub registers_fingerprint: u64,
    /// Checksum of the final (drained) memory image.
    pub memory_checksum: u64,
}

/// The decoded header of a trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceHeader {
    /// Format version the trace was written with.
    pub version: u64,
    /// Which events the recording kept.
    pub detail: TraceDetail,
    /// Workload name the stream was recorded from.
    pub workload: String,
    /// Scheme label (`EccScheme`'s `Display` form).
    pub scheme: String,
    /// Platform label (`PlatformVariant`'s `Display` form).
    pub platform: String,
    /// Hash of everything that shaped the stream (spec seed, generator
    /// shape, scheme, hierarchy configuration); replaying under a different
    /// configuration is rejected up front.
    pub context_fingerprint: u64,
    /// Fault-free run summary.
    pub summary: TraceSummary,
    /// Number of events in the stream.
    pub event_count: u64,
}

/// A complete trace: the decoded header plus its decoded events.
///
/// This is the one in-memory form.  A recording is built event by event
/// ([`crate::TraceRecorder`]) and replayed from [`Trace::events`]; the
/// binary container exists only on disk, written by [`Trace::encode`] and
/// read back by [`Trace::decode`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The decoded header.
    pub header: TraceHeader,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Assembles a trace from its parts (used by the recorder).  The
    /// header's `event_count` is set from `events`.
    #[must_use]
    pub(crate) fn from_parts(mut header: TraceHeader, events: Vec<TraceEvent>) -> Self {
        header.event_count = events.len() as u64;
        Trace { header, events }
    }

    /// The events, in recorded order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The events as a `Result`, for callers that handle a decoding error
    /// at this point (perfbench's `trace.decode` span).  A `Trace` is always
    /// fully decoded — [`Trace::decode`] validates every event up front —
    /// so this is `Ok(self.events())`.
    ///
    /// # Errors
    ///
    /// None: the `Result` is always `Ok`.
    pub fn decode_events(&self) -> Result<&[TraceEvent], TraceError> {
        Ok(&self.events)
    }

    /// Size of the encoded event stream in bytes, as [`Trace::encode`]
    /// would write it.  Runs the encoder without keeping its output.
    #[must_use]
    pub fn event_bytes_len(&self) -> usize {
        let mut codec = Codec::new();
        let mut scratch = Vec::with_capacity(MAX_EVENT_BYTES);
        self.events
            .iter()
            .map(|event| {
                scratch.clear();
                codec.encode(&mut scratch, event);
                scratch.len()
            })
            .sum()
    }

    /// Serialises the trace into its binary container — the only place
    /// events are varint-encoded (trace cache writes, `trace record`).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let event_bytes_len = self.event_bytes_len();
        let mut out = Vec::with_capacity(event_bytes_len + 128);
        write_header(
            &mut out,
            &self.header,
            self.events.len() as u64,
            event_bytes_len,
        );
        let start = out.len();
        let mut codec = Codec::new();
        for event in &self.events {
            codec.encode(&mut out, event);
        }
        let checksum = fnv1a(&out[start..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses a binary container and decodes every event in it.
    ///
    /// Nothing is sized from a count the input claims: strings and the
    /// event section are checked against the bytes actually present, and
    /// the event buffer's capacity is bounded by the event section's
    /// length.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the container is not a trace, was
    /// written by a newer version, is truncated, fails its checksum, or
    /// holds an event stream that does not decode to exactly the events
    /// its header announces.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut cursor = MAGIC.len();
        let version = read_varint(bytes, &mut cursor)?;
        if version > FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let detail = match read_byte(bytes, &mut cursor)? {
            0 => TraceDetail::Replay,
            1 => TraceDetail::Full,
            _ => return Err(TraceError::Corrupt("unknown detail level")),
        };
        let workload = read_string(bytes, &mut cursor)?;
        let scheme = read_string(bytes, &mut cursor)?;
        let platform = read_string(bytes, &mut cursor)?;
        let context_fingerprint = read_u64_le(bytes, &mut cursor)?;
        let summary = TraceSummary {
            cycles: read_varint(bytes, &mut cursor)?,
            instructions: read_varint(bytes, &mut cursor)?,
            loads: read_varint(bytes, &mut cursor)?,
            load_hits: read_varint(bytes, &mut cursor)?,
            stores: read_varint(bytes, &mut cursor)?,
            lookahead_loads: read_varint(bytes, &mut cursor)?,
            hit_instruction_limit: read_byte(bytes, &mut cursor)? != 0,
            registers_fingerprint: read_u64_le(bytes, &mut cursor)?,
            memory_checksum: read_u64_le(bytes, &mut cursor)?,
        };
        let event_count = read_varint(bytes, &mut cursor)?;
        let event_bytes = read_slice(bytes, &mut cursor)?;
        let checksum = read_u64_le(bytes, &mut cursor)?;
        if checksum != fnv1a(event_bytes) {
            return Err(TraceError::ChecksumMismatch);
        }
        Ok(Trace {
            header: TraceHeader {
                version,
                detail,
                workload,
                scheme,
                platform,
                context_fingerprint,
                summary,
                event_count,
            },
            events: decode_event_stream(event_bytes, event_count)?,
        })
    }
}

/// Upper bound on one event's encoding: a core-switch marker, an opcode, a
/// flag byte and four varints of at most ten bytes each.
const MAX_EVENT_BYTES: usize = 2 + 1 + 1 + 4 * 10;

/// Lower bound on one event's encoding: an opcode and at least one byte of
/// payload.
const MIN_EVENT_BYTES: usize = 2;

/// Writes the container up to and including the event-section length.
fn write_header(out: &mut Vec<u8>, header: &TraceHeader, event_count: u64, event_bytes_len: usize) {
    out.extend_from_slice(MAGIC);
    varint::write_u64(out, header.version);
    out.push(match header.detail {
        TraceDetail::Replay => 0,
        TraceDetail::Full => 1,
    });
    write_string(out, &header.workload);
    write_string(out, &header.scheme);
    write_string(out, &header.platform);
    out.extend_from_slice(&header.context_fingerprint.to_le_bytes());
    let summary = &header.summary;
    varint::write_u64(out, summary.cycles);
    varint::write_u64(out, summary.instructions);
    varint::write_u64(out, summary.loads);
    varint::write_u64(out, summary.load_hits);
    varint::write_u64(out, summary.stores);
    varint::write_u64(out, summary.lookahead_loads);
    out.push(u8::from(summary.hit_instruction_limit));
    out.extend_from_slice(&summary.registers_fingerprint.to_le_bytes());
    out.extend_from_slice(&summary.memory_checksum.to_le_bytes());
    varint::write_u64(out, event_count);
    varint::write_u64(out, event_bytes_len as u64);
}

/// Decodes exactly `count` events that must fill `bytes` exactly.
fn decode_event_stream(bytes: &[u8], count: u64) -> Result<Vec<TraceEvent>, TraceError> {
    // The header's count is untrusted: the bytes actually present bound
    // how many events can follow, and so the initial capacity.
    let bound = bytes.len() / MIN_EVENT_BYTES;
    let mut events = Vec::with_capacity(usize::try_from(count).map_or(bound, |c| c.min(bound)));
    let mut codec = Codec::new();
    let mut cursor = 0;
    // Every event consumes at least one byte, so a count larger than the
    // stream ends in `Truncated` after at most `bytes.len()` iterations.
    for _ in 0..count {
        events.push(codec.decode(bytes, &mut cursor)?);
    }
    if cursor != bytes.len() {
        return Err(TraceError::Corrupt("bytes after the last event"));
    }
    Ok(events)
}

/// Shared delta state between the event encoder and decoder.
#[derive(Debug, Clone, Default)]
pub(crate) struct Codec {
    prev_address: u32,
    prev_cycle: u64,
    prev_pc: u32,
    prev_core: u8,
}

impl Codec {
    pub(crate) fn new() -> Self {
        Codec::default()
    }

    pub(crate) fn encode(&mut self, out: &mut Vec<u8>, event: &TraceEvent) {
        let core = event.core();
        if core != self.prev_core {
            out.push(OP_CORE);
            out.push(core);
            self.prev_core = core;
        }
        match *event {
            TraceEvent::Commit { count, .. } => {
                out.push(OP_COMMIT);
                varint::write_u64(out, count);
            }
            TraceEvent::MemRead {
                address,
                cycle,
                value,
                hit,
                extra_cycles,
                ..
            } => {
                out.push(OP_READ);
                out.push(u8::from(hit));
                self.write_address(out, address);
                self.write_cycle(out, cycle);
                varint::write_u64(out, u64::from(value));
                varint::write_u64(out, u64::from(extra_cycles));
            }
            TraceEvent::MemWrite {
                address,
                cycle,
                value,
                byte_mask,
                ..
            } => {
                out.push(OP_WRITE);
                out.push(byte_mask);
                self.write_address(out, address);
                self.write_cycle(out, cycle);
                varint::write_u64(out, u64::from(value));
            }
            TraceEvent::Fetch { pc, cycle, .. } => {
                out.push(OP_FETCH);
                varint::write_i64(out, i64::from(pc) - i64::from(self.prev_pc));
                self.prev_pc = pc;
                self.write_cycle(out, cycle);
            }
            TraceEvent::Stall {
                kind,
                cycle,
                cycles,
                ..
            } => {
                out.push(OP_STALL);
                out.push(kind.to_wire());
                self.write_cycle(out, cycle);
                varint::write_u64(out, cycles);
            }
            TraceEvent::LineFill { level, address, .. } => {
                out.push(OP_FILL);
                out.push(level.to_wire());
                self.write_address(out, address);
            }
            TraceEvent::Writeback { level, address, .. } => {
                out.push(OP_WRITEBACK);
                out.push(level.to_wire());
                self.write_address(out, address);
            }
        }
    }

    pub(crate) fn decode(
        &mut self,
        bytes: &[u8],
        cursor: &mut usize,
    ) -> Result<TraceEvent, TraceError> {
        let mut opcode = read_byte(bytes, cursor)?;
        // Core-switch markers (v2) prefix the event they apply to; v1
        // streams never contain them, leaving every event on core 0.
        while opcode == OP_CORE {
            self.prev_core = read_byte(bytes, cursor)?;
            opcode = read_byte(bytes, cursor)?;
        }
        let core = self.prev_core;
        match opcode {
            OP_COMMIT => Ok(TraceEvent::Commit {
                count: read_varint(bytes, cursor)?,
                core,
            }),
            OP_READ => {
                let hit = read_byte(bytes, cursor)? != 0;
                let address = self.read_address(bytes, cursor)?;
                let cycle = self.read_cycle(bytes, cursor)?;
                let value = read_u32(bytes, cursor)?;
                let extra_cycles = read_u32(bytes, cursor)?;
                Ok(TraceEvent::MemRead {
                    address,
                    cycle,
                    value,
                    hit,
                    extra_cycles,
                    core,
                })
            }
            OP_WRITE => {
                let byte_mask = read_byte(bytes, cursor)?;
                let address = self.read_address(bytes, cursor)?;
                let cycle = self.read_cycle(bytes, cursor)?;
                let value = read_u32(bytes, cursor)?;
                Ok(TraceEvent::MemWrite {
                    address,
                    cycle,
                    value,
                    byte_mask,
                    core,
                })
            }
            OP_FETCH => {
                let delta = read_idelta(bytes, cursor)?;
                let pc = apply_delta32(self.prev_pc, delta)?;
                self.prev_pc = pc;
                let cycle = self.read_cycle(bytes, cursor)?;
                Ok(TraceEvent::Fetch { pc, cycle, core })
            }
            OP_STALL => {
                let kind = StallKind::from_wire(read_byte(bytes, cursor)?)
                    .ok_or(TraceError::Corrupt("unknown stall kind"))?;
                let cycle = self.read_cycle(bytes, cursor)?;
                let cycles = read_varint(bytes, cursor)?;
                Ok(TraceEvent::Stall {
                    kind,
                    cycle,
                    cycles,
                    core,
                })
            }
            OP_FILL | OP_WRITEBACK => {
                let level = MemLevel::from_wire(read_byte(bytes, cursor)?)
                    .ok_or(TraceError::Corrupt("unknown memory level"))?;
                let address = self.read_address(bytes, cursor)?;
                if opcode == OP_FILL {
                    Ok(TraceEvent::LineFill {
                        level,
                        address,
                        core,
                    })
                } else {
                    Ok(TraceEvent::Writeback {
                        level,
                        address,
                        core,
                    })
                }
            }
            _ => Err(TraceError::Corrupt("unknown event opcode")),
        }
    }

    fn write_address(&mut self, out: &mut Vec<u8>, address: u32) {
        varint::write_i64(out, i64::from(address) - i64::from(self.prev_address));
        self.prev_address = address;
    }

    fn read_address(&mut self, bytes: &[u8], cursor: &mut usize) -> Result<u32, TraceError> {
        let delta = read_idelta(bytes, cursor)?;
        let address = apply_delta32(self.prev_address, delta)?;
        self.prev_address = address;
        Ok(address)
    }

    fn write_cycle(&mut self, out: &mut Vec<u8>, cycle: u64) {
        // Cycle stamps are near-monotonic but fetch/memory interleaving can
        // step backwards, hence signed deltas.
        let delta = i64::try_from(cycle)
            .unwrap_or(i64::MAX)
            .wrapping_sub(i64::try_from(self.prev_cycle).unwrap_or(i64::MAX));
        varint::write_i64(out, delta);
        self.prev_cycle = cycle;
    }

    fn read_cycle(&mut self, bytes: &[u8], cursor: &mut usize) -> Result<u64, TraceError> {
        let delta = read_idelta(bytes, cursor)?;
        let base = i64::try_from(self.prev_cycle).map_err(|_| TraceError::Corrupt("cycle"))?;
        let cycle =
            u64::try_from(base.wrapping_add(delta)).map_err(|_| TraceError::Corrupt("cycle"))?;
        self.prev_cycle = cycle;
        Ok(cycle)
    }
}

fn write_string(out: &mut Vec<u8>, text: &str) {
    varint::write_u64(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

fn read_string(bytes: &[u8], cursor: &mut usize) -> Result<String, TraceError> {
    let text = std::str::from_utf8(read_slice(bytes, cursor)?)
        .map_err(|_| TraceError::Corrupt("non-UTF-8 label"))?;
    Ok(text.to_string())
}

/// Reads a varint length and the bytes it announces, checked against the
/// bytes present.
fn read_slice<'a>(bytes: &'a [u8], cursor: &mut usize) -> Result<&'a [u8], TraceError> {
    let length = usize::try_from(read_varint(bytes, cursor)?).map_err(|_| TraceError::Truncated)?;
    let end = cursor
        .checked_add(length)
        .filter(|&end| end <= bytes.len())
        .ok_or(TraceError::Truncated)?;
    let slice = &bytes[*cursor..end];
    *cursor = end;
    Ok(slice)
}

fn read_byte(bytes: &[u8], cursor: &mut usize) -> Result<u8, TraceError> {
    let byte = *bytes.get(*cursor).ok_or(TraceError::Truncated)?;
    *cursor += 1;
    Ok(byte)
}

fn read_varint(bytes: &[u8], cursor: &mut usize) -> Result<u64, TraceError> {
    varint::read_u64(bytes, cursor).ok_or(TraceError::Truncated)
}

fn read_idelta(bytes: &[u8], cursor: &mut usize) -> Result<i64, TraceError> {
    varint::read_i64(bytes, cursor).ok_or(TraceError::Truncated)
}

fn read_u32(bytes: &[u8], cursor: &mut usize) -> Result<u32, TraceError> {
    u32::try_from(read_varint(bytes, cursor)?).map_err(|_| TraceError::Corrupt("32-bit field"))
}

fn read_u64_le(bytes: &[u8], cursor: &mut usize) -> Result<u64, TraceError> {
    let Some(end) = cursor.checked_add(8) else {
        return Err(TraceError::Truncated);
    };
    if end > bytes.len() {
        return Err(TraceError::Truncated);
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[*cursor..end]);
    *cursor = end;
    Ok(u64::from_le_bytes(raw))
}

fn apply_delta32(base: u32, delta: i64) -> Result<u32, TraceError> {
    i64::from(base)
        .checked_add(delta)
        .and_then(|value| u32::try_from(value).ok())
        .ok_or(TraceError::Corrupt("32-bit delta"))
}

/// FNV-1a over a byte slice (the trace integrity checksum).
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{TraceContext, TraceRecorder};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Fetch {
                pc: 0,
                cycle: 1,
                core: 0,
            },
            TraceEvent::MemRead {
                address: 0x1000,
                cycle: 5,
                value: 0xDEAD_BEEF,
                hit: false,
                extra_cycles: 14,
                core: 0,
            },
            TraceEvent::LineFill {
                level: MemLevel::Dl1,
                address: 0x1000,
                core: 0,
            },
            TraceEvent::Commit { count: 3, core: 0 },
            TraceEvent::MemWrite {
                address: 0x0FF8,
                cycle: 9,
                value: 7,
                byte_mask: 0b0011,
                core: 0,
            },
            TraceEvent::Stall {
                kind: StallKind::WriteBufferFull,
                cycle: 11,
                cycles: 4,
                core: 0,
            },
            TraceEvent::Writeback {
                level: MemLevel::L2,
                address: 0x2000,
                core: 0,
            },
            TraceEvent::Commit { count: 1, core: 0 },
        ]
    }

    fn sample_header() -> TraceHeader {
        TraceHeader {
            version: FORMAT_VERSION,
            detail: TraceDetail::Full,
            workload: "unit".to_string(),
            scheme: "laec".to_string(),
            platform: "wb".to_string(),
            context_fingerprint: 0x1234_5678_9ABC_DEF0,
            summary: TraceSummary {
                cycles: 100,
                instructions: 5,
                loads: 1,
                load_hits: 0,
                stores: 1,
                lookahead_loads: 0,
                hit_instruction_limit: false,
                registers_fingerprint: 42,
                memory_checksum: 43,
            },
            event_count: 0,
        }
    }

    fn sample_trace() -> Trace {
        Trace::from_parts(sample_header(), sample_events())
    }

    /// A container around raw event bytes, sealed with a matching checksum.
    fn container(event_count: u64, event_bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(&mut out, &sample_header(), event_count, event_bytes.len());
        out.extend_from_slice(event_bytes);
        out.extend_from_slice(&fnv1a(event_bytes).to_le_bytes());
        out
    }

    #[test]
    fn container_round_trips_byte_for_byte() {
        let trace = sample_trace();
        let encoded = trace.encode();
        let decoded = Trace::decode(&encoded).expect("valid container");
        assert_eq!(decoded, trace);
        assert_eq!(decoded.encode(), encoded);
        assert_eq!(decoded.events(), sample_events());
        assert_eq!(decoded.header.event_count, 8);
    }

    #[test]
    fn recorder_stream_round_trips() {
        let mut recorder = TraceRecorder::full(TraceContext::new("w", "s", "p", 9));
        recorder.record_fetch(0, 1);
        recorder.record_mem_read(0x40, 4, 11, true, 0);
        recorder.record_commit();
        recorder.record_commit();
        recorder.record_mem_write(0x44, 6, 12, 0xF);
        recorder.record_commit();
        let trace = recorder.finish(TraceSummary::default());
        assert_eq!(
            trace.events(),
            [
                TraceEvent::Fetch {
                    pc: 0,
                    cycle: 1,
                    core: 0
                },
                TraceEvent::MemRead {
                    address: 0x40,
                    cycle: 4,
                    value: 11,
                    hit: true,
                    extra_cycles: 0,
                    core: 0,
                },
                TraceEvent::Commit { count: 2, core: 0 },
                TraceEvent::MemWrite {
                    address: 0x44,
                    cycle: 6,
                    value: 12,
                    byte_mask: 0xF,
                    core: 0,
                },
                TraceEvent::Commit { count: 1, core: 0 },
            ]
        );
        let round = Trace::decode(&trace.encode()).unwrap();
        assert_eq!(round, trace);
    }

    #[test]
    fn corruption_is_detected() {
        let trace = sample_trace();
        let mut encoded = trace.encode();
        assert_eq!(Trace::decode(&encoded[..4]), Err(TraceError::BadMagic));
        assert_eq!(
            Trace::decode(&encoded[..encoded.len() - 9]),
            Err(TraceError::Truncated)
        );
        // Flip one event byte: the checksum catches it.
        let event_offset = encoded.len() - 9 - trace.event_bytes_len() / 2;
        encoded[event_offset] ^= 0x40;
        assert_eq!(Trace::decode(&encoded), Err(TraceError::ChecksumMismatch));
    }

    #[test]
    fn newer_versions_are_rejected() {
        let mut trace = sample_trace();
        trace.header.version = FORMAT_VERSION + 1;
        assert_eq!(
            Trace::decode(&trace.encode()),
            Err(TraceError::UnsupportedVersion(FORMAT_VERSION + 1))
        );
    }

    #[test]
    fn event_iter_reports_corrupt_opcode_once() {
        // A sealed container whose stream starts with an unknown opcode:
        // decoding stops at the first bad event with one typed error.
        assert_eq!(
            Trace::decode(&container(3, &[0xFF, 0xFF, 0xFF])),
            Err(TraceError::Corrupt("unknown event opcode"))
        );
        // Event counts that disagree with the stream are typed errors too.
        let commit = [OP_COMMIT, 1];
        assert!(Trace::decode(&container(1, &commit)).is_ok());
        assert_eq!(
            Trace::decode(&container(2, &commit)),
            Err(TraceError::Truncated)
        );
        assert_eq!(
            Trace::decode(&container(0, &commit)),
            Err(TraceError::Corrupt("bytes after the last event"))
        );
        // A count no stream could hold is never used to size a buffer.
        assert_eq!(
            Trace::decode(&container(1 << 60, &[OP_COMMIT, 1].repeat(5))),
            Err(TraceError::Truncated)
        );
    }

    #[test]
    fn compactness_is_in_the_expected_range() {
        // 1000 sequential hit loads with small strides must stay well under
        // 8 bytes per event.
        let mut recorder = TraceRecorder::new(TraceContext::new("w", "s", "p", 0));
        for i in 0..1000u32 {
            recorder.record_mem_read(0x1000 + 4 * i, u64::from(6 * i), i, true, 0);
            recorder.record_commit();
            recorder.record_commit();
        }
        let trace = recorder.finish(TraceSummary::default());
        assert!(
            trace.event_bytes_len() < 1000 * 10,
            "{} bytes for 1000 loads + commit runs",
            trace.event_bytes_len()
        );
    }
}
