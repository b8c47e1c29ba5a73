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

/// A complete trace: decoded header plus the still-encoded event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The decoded header.
    pub header: TraceHeader,
    event_bytes: Vec<u8>,
}

impl Trace {
    /// Assembles a trace from its parts (used by the recorder).
    #[must_use]
    pub fn from_parts(header: TraceHeader, event_bytes: Vec<u8>) -> Self {
        Trace {
            header,
            event_bytes,
        }
    }

    /// Size of the encoded event stream in bytes.
    #[must_use]
    pub fn event_bytes_len(&self) -> usize {
        self.event_bytes.len()
    }

    /// Iterates over the decoded events.
    #[must_use]
    pub fn events(&self) -> EventIter<'_> {
        EventIter {
            bytes: &self.event_bytes,
            cursor: 0,
            remaining: self.header.event_count,
            codec: Codec::new(),
            failed: false,
        }
    }

    /// Decodes the whole event stream up front.
    ///
    /// Replaying one recording under many fault seeds re-reads the stream
    /// once per seed; decoding it once and replaying the decoded form (see
    /// [`crate::replay::replay_events`]) removes the repeated varint work.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] in the stream.
    pub fn decode_events(&self) -> Result<Vec<TraceEvent>, TraceError> {
        self.events().collect()
    }

    /// Serialises the trace into its binary container.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.event_bytes.len() + 128);
        out.extend_from_slice(MAGIC);
        varint::write_u64(&mut out, self.header.version);
        out.push(match self.header.detail {
            TraceDetail::Replay => 0,
            TraceDetail::Full => 1,
        });
        write_string(&mut out, &self.header.workload);
        write_string(&mut out, &self.header.scheme);
        write_string(&mut out, &self.header.platform);
        out.extend_from_slice(&self.header.context_fingerprint.to_le_bytes());
        let summary = &self.header.summary;
        varint::write_u64(&mut out, summary.cycles);
        varint::write_u64(&mut out, summary.instructions);
        varint::write_u64(&mut out, summary.loads);
        varint::write_u64(&mut out, summary.load_hits);
        varint::write_u64(&mut out, summary.stores);
        varint::write_u64(&mut out, summary.lookahead_loads);
        out.push(u8::from(summary.hit_instruction_limit));
        out.extend_from_slice(&summary.registers_fingerprint.to_le_bytes());
        out.extend_from_slice(&summary.memory_checksum.to_le_bytes());
        varint::write_u64(&mut out, self.header.event_count);
        varint::write_u64(&mut out, self.event_bytes.len() as u64);
        out.extend_from_slice(&self.event_bytes);
        out.extend_from_slice(&fnv1a(&self.event_bytes).to_le_bytes());
        out
    }

    /// Parses a binary container.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the container is not a trace, was
    /// written by a newer version, is truncated, or fails its checksum.
    /// Individual *events* are validated lazily by [`Trace::events`].
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
        let event_bytes_len = read_varint(bytes, &mut cursor)? as usize;
        let Some(end) = cursor.checked_add(event_bytes_len) else {
            return Err(TraceError::Truncated);
        };
        if end > bytes.len() {
            return Err(TraceError::Truncated);
        }
        let event_bytes = bytes[cursor..end].to_vec();
        cursor = end;
        let checksum = read_u64_le(bytes, &mut cursor)?;
        if checksum != fnv1a(&event_bytes) {
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
            event_bytes,
        })
    }
}

/// Iterator over the decoded events of a [`Trace`].
#[derive(Debug)]
pub struct EventIter<'a> {
    bytes: &'a [u8],
    cursor: usize,
    remaining: u64,
    codec: Codec,
    failed: bool,
}

impl Iterator for EventIter<'_> {
    type Item = Result<TraceEvent, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.codec.decode(self.bytes, &mut self.cursor) {
            Ok(event) => Some(Ok(event)),
            Err(error) => {
                self.failed = true;
                Some(Err(error))
            }
        }
    }
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
    let length = read_varint(bytes, cursor)? as usize;
    let Some(end) = cursor.checked_add(length) else {
        return Err(TraceError::Truncated);
    };
    if end > bytes.len() {
        return Err(TraceError::Truncated);
    }
    let text = std::str::from_utf8(&bytes[*cursor..end])
        .map_err(|_| TraceError::Corrupt("non-UTF-8 label"))?;
    *cursor = end;
    Ok(text.to_string())
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
    u32::try_from(i64::from(base) + delta).map_err(|_| TraceError::Corrupt("32-bit delta"))
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
    use crate::record::{TraceContext, TraceRecorder, TraceSink};

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

    fn sample_trace() -> Trace {
        let mut codec = Codec::new();
        let mut bytes = Vec::new();
        let events = sample_events();
        for event in &events {
            codec.encode(&mut bytes, event);
        }
        Trace::from_parts(
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
                event_count: events.len() as u64,
            },
            bytes,
        )
    }

    #[test]
    fn container_round_trips_byte_for_byte() {
        let trace = sample_trace();
        let encoded = trace.encode();
        let decoded = Trace::decode(&encoded).expect("valid container");
        assert_eq!(decoded, trace);
        assert_eq!(decoded.encode(), encoded);
        let events: Vec<TraceEvent> = decoded.events().map(|e| e.expect("valid event")).collect();
        assert_eq!(events, sample_events());
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
        let events: Vec<TraceEvent> = trace.events().map(Result::unwrap).collect();
        assert_eq!(
            events,
            vec![
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
        let trace = Trace::from_parts(
            TraceHeader {
                version: FORMAT_VERSION,
                detail: TraceDetail::Replay,
                workload: String::new(),
                scheme: String::new(),
                platform: String::new(),
                context_fingerprint: 0,
                summary: TraceSummary::default(),
                event_count: 3,
            },
            vec![0xFF, 0xFF, 0xFF],
        );
        let results: Vec<_> = trace.events().collect();
        assert_eq!(
            results,
            vec![Err(TraceError::Corrupt("unknown event opcode"))]
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
