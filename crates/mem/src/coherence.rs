//! Coherence line states, the snoop interface, and the
//! [`CoherenceProtocol`] decision table with its three implementations
//! (MESI, Dragon, MOESI).
//!
//! Every cache line carries a [`LineState`] instead of separate valid/dirty
//! bits: `Invalid` is the old "not valid", `Modified` is the old "valid +
//! dirty", and the clean-valid state splits into `Exclusive` (no other cache
//! holds the line — a later write needs no bus transaction) and `Shared`
//! (other caches may hold it).  On top of that MESI lattice sit the states
//! the other two protocols need: Dragon's `SharedClean`/`SharedModified`
//! (update-based sharing — writes broadcast the written word instead of
//! invalidating) and MOESI's `Owned` (dirty sharing — the owner supplies
//! readers cache-to-cache without writing the line back).  A uniprocessor
//! hierarchy only ever sees `Invalid`/`Exclusive`/`Modified` — the old
//! valid/dirty lattice — under *every* protocol, so single-core behaviour
//! is bit-identical regardless of the protocol axis.
//!
//! The state is *metadata*: it is stored next to the tag, and — unlike the
//! data words — it is not covered by the DL1's ECC/parity code on the
//! platforms the paper models.  That makes it a fault-injection surface of
//! its own: a flipped state bit can silently drop a dirty line's writeback
//! obligation (`Modified`/`SharedModified`/`Owned` read as clean) and a
//! flipped tag bit makes the line answer for the wrong address.  See
//! [`FaultTarget`](crate::fault::FaultTarget).

use std::fmt;
use std::str::FromStr;

use crate::cache::LineWords;

/// A cache line's coherence state: the MESI lattice plus Dragon's two
/// shared states and MOESI's `Owned`, encoded in the (unprotected)
/// metadata bits next to the tag.
///
/// The low two bits keep the historical MESI encoding (I=00, S=01, E=10,
/// M=11) so MESI-only configurations store — and fault campaigns strike —
/// exactly the bits they did before the protocol axis existed; the third
/// bit distinguishes the Dragon/MOESI extension states.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Not present.
    #[default]
    Invalid,
    /// Present in this cache and possibly others; clean (MESI/MOESI).
    Shared,
    /// Present only in this cache; clean (memory below is up to date).
    Exclusive,
    /// Present only in this cache; dirty (this is the only current copy).
    Modified,
    /// Dragon: present in several caches, clean here; writes broadcast
    /// bus updates instead of invalidating.
    SharedClean,
    /// Dragon: present in several caches, dirty here — this copy owns the
    /// writeback obligation for the (update-synchronised) line.
    SharedModified,
    /// MOESI: present in several caches, dirty here — the owner supplies
    /// readers cache-to-cache and writes back on eviction; memory below
    /// stays stale meanwhile.
    Owned,
}

/// Historical alias from the MESI-only era; [`LineState`] is the same type.
pub type MesiState = LineState;

impl LineState {
    /// `true` for any resident state.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != LineState::Invalid
    }

    /// `true` when this copy owns the line's writeback obligation (it must
    /// be written back on eviction): `Modified`, Dragon's `SharedModified`,
    /// or MOESI's `Owned`.
    #[must_use]
    pub fn is_dirty(self) -> bool {
        matches!(
            self,
            LineState::Modified | LineState::SharedModified | LineState::Owned
        )
    }

    /// The hardware encoding of the state.  The low two bits are the
    /// historical MESI encoding (I=00, S=01, E=10, M=11); bit 2 marks the
    /// Dragon/MOESI extension states (Sc=100, Sm=101, O=110).
    #[must_use]
    pub fn to_bits(self) -> u8 {
        match self {
            LineState::Invalid => 0b000,
            LineState::Shared => 0b001,
            LineState::Exclusive => 0b010,
            LineState::Modified => 0b011,
            LineState::SharedClean => 0b100,
            LineState::SharedModified => 0b101,
            LineState::Owned => 0b110,
        }
    }

    /// Decodes the three-bit encoding (the inverse of
    /// [`LineState::to_bits`]).  The one unused encoding (0b111) decodes to
    /// `Invalid`: hardware state machines treat undefined encodings as "no
    /// line", which is exactly how a fault campaign's stray flip should
    /// land.
    #[must_use]
    pub fn from_bits(bits: u8) -> Self {
        match bits & 0b111 {
            0b001 => LineState::Shared,
            0b010 => LineState::Exclusive,
            0b011 => LineState::Modified,
            0b100 => LineState::SharedClean,
            0b101 => LineState::SharedModified,
            0b110 => LineState::Owned,
            _ => LineState::Invalid,
        }
    }

    /// Stable label used in reports and tests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LineState::Invalid => "I",
            LineState::Shared => "S",
            LineState::Exclusive => "E",
            LineState::Modified => "M",
            LineState::SharedClean => "Sc",
            LineState::SharedModified => "Sm",
            LineState::Owned => "O",
        }
    }
}

/// What a remote bus transaction observed in (and did to) one snooped cache.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnoopResult {
    /// `true` if the snooped cache held the line.
    pub had_line: bool,
    /// `true` if the snooped copy was dirty (`M`/`Sm`/`O`) — the snooped
    /// cache supplied the line (cache-to-cache intervention) in `supplied`.
    pub was_modified: bool,
    /// `true` if the snoop invalidated the copy (remote write intent).
    pub invalidated: bool,
    /// The line's decoded words, supplied only when the copy was dirty
    /// (the requester and the level below would otherwise read stale data).
    pub supplied: Option<LineWords>,
    /// `true` if any supplied word carried an uncorrectable ECC error: the
    /// intervention forwards data that cannot be trusted.
    pub uncorrectable: bool,
}

/// The bus action a local write hit must take before modifying the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalWriteAction {
    /// No bus action: the copy is already exclusive (`E`/`M`) or absent
    /// (the miss path arbitrates for the bus anyway).
    Silent,
    /// Broadcast a write intent (BusUpgr) that invalidates every remote
    /// copy, then write locally (→ `Modified`).  MESI and MOESI.
    Invalidate,
    /// Broadcast the written word (BusUpd) into every remote copy, then
    /// write locally (→ `SharedModified` while sharers remain, `Modified`
    /// once the broadcast finds none).  Dragon.
    Update,
}

/// The protocol decision table: local access × line state × snooped
/// operation → next state + bus action.
///
/// Implementations are stateless lookup tables; the substrate (per-core
/// caches, the shared bus/L2, the snoop loops) lives in
/// [`crate::MemorySystem`] and consults the table at each decision point.  Everything else — residency,
/// LRU, ECC, writebacks, the fault-injection oracle — is shared by all
/// protocols through the dirty/valid lattice of [`LineState`].
///
/// # Adding a fourth protocol
///
/// A new protocol is one more implementation of this trait (plus a
/// [`ProtocolKind`] variant to name it on the CLI/spec axis).  For example,
/// plain MSI — MESI without the exclusive-clean optimisation — fits in a
/// few lines:
///
/// ```
/// use laec_mem::{CoherenceProtocol, LineState, LocalWriteAction};
///
/// #[derive(Debug)]
/// struct Msi;
///
/// impl CoherenceProtocol for Msi {
///     fn name(&self) -> &'static str {
///         "msi"
///     }
///     fn state_bits(&self) -> u32 {
///         2 // I, S, M only
///     }
///     fn read_fill_state(&self, _sharers: bool) -> LineState {
///         LineState::Shared // no E state: every read fill is Shared
///     }
///     fn snooped_read_next(&self, _state: LineState) -> LineState {
///         LineState::Shared
///     }
///     fn local_write_action(&self, state: LineState) -> LocalWriteAction {
///         match state {
///             // Without E, even a sole clean copy must broadcast.
///             LineState::Shared => LocalWriteAction::Invalidate,
///             _ => LocalWriteAction::Silent,
///         }
///     }
///     fn supplies_through_l2(&self) -> bool {
///         true // like MESI: a dirty supplier refreshes the L2
///     }
///     fn uses_update_bus(&self) -> bool {
///         false
///     }
/// }
///
/// assert_eq!(Msi.read_fill_state(false), LineState::Shared);
/// ```
pub trait CoherenceProtocol: fmt::Debug + Sync {
    /// The protocol's canonical lower-case name (CLI/spec label).
    fn name(&self) -> &'static str;

    /// How many metadata bits a line's state occupies (2 for MESI, 3 for
    /// the protocols using extension states).  `FaultTarget::State`
    /// campaigns flip a uniformly random bit out of exactly this many, so
    /// the strike surface grows with the protocol's state lattice.
    fn state_bits(&self) -> u32;

    /// The state a read miss fills with, given whether the snoop found
    /// remote copies.
    fn read_fill_state(&self, sharers: bool) -> LineState;

    /// The state a resident copy transitions to when it observes a remote
    /// *read* of its line (`state` is valid, never `Invalid`).
    fn snooped_read_next(&self, state: LineState) -> LineState;

    /// The bus action a local write hitting a line in `state` must take.
    fn local_write_action(&self, state: LineState) -> LocalWriteAction;

    /// `true` if a dirty snooped copy refreshes the shared L2 on the same
    /// transaction it supplies (MESI: the owner is downgraded to a clean
    /// state, so the L2 must pick up the dirty data).  `false` when the
    /// supplied line travels cache-to-cache only and the supplier keeps the
    /// writeback obligation (Dragon's `Sm`, MOESI's `O`) — memory below
    /// stays stale until the owner evicts.
    fn supplies_through_l2(&self) -> bool;

    /// `true` for update-based protocols (Dragon): writes to shared lines
    /// broadcast the written word instead of invalidating, and write
    /// misses fetch the line with a plain read before updating.
    fn uses_update_bus(&self) -> bool;
}

/// MESI — the invalidate-based baseline, byte-identical to the behaviour
/// the system had before the protocol axis existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mesi;

impl CoherenceProtocol for Mesi {
    fn name(&self) -> &'static str {
        "mesi"
    }

    fn state_bits(&self) -> u32 {
        2
    }

    fn read_fill_state(&self, sharers: bool) -> LineState {
        if sharers {
            LineState::Shared
        } else {
            LineState::Exclusive
        }
    }

    fn snooped_read_next(&self, _state: LineState) -> LineState {
        // M supplies (and the L2 is refreshed), E/S stay clean: everyone
        // lands in Shared.
        LineState::Shared
    }

    fn local_write_action(&self, state: LineState) -> LocalWriteAction {
        match state {
            LineState::Shared => LocalWriteAction::Invalidate,
            _ => LocalWriteAction::Silent,
        }
    }

    fn supplies_through_l2(&self) -> bool {
        true
    }

    fn uses_update_bus(&self) -> bool {
        false
    }
}

/// Dragon — the update-based protocol: writes to shared lines broadcast
/// the written word (`BusUpd`) into the remote copies instead of
/// invalidating them, so a falsely-shared line never ping-pongs.  The
/// dirty sharer (`SharedModified`) owns the writeback obligation; all
/// copies of a shared line hold identical data because every write is
/// broadcast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dragon;

impl CoherenceProtocol for Dragon {
    fn name(&self) -> &'static str {
        "dragon"
    }

    fn state_bits(&self) -> u32 {
        3
    }

    fn read_fill_state(&self, sharers: bool) -> LineState {
        if sharers {
            LineState::SharedClean
        } else {
            LineState::Exclusive
        }
    }

    fn snooped_read_next(&self, state: LineState) -> LineState {
        match state {
            // A dirty copy supplies and keeps the writeback obligation.
            LineState::Modified | LineState::SharedModified => LineState::SharedModified,
            _ => LineState::SharedClean,
        }
    }

    fn local_write_action(&self, state: LineState) -> LocalWriteAction {
        match state {
            LineState::SharedClean | LineState::SharedModified => LocalWriteAction::Update,
            _ => LocalWriteAction::Silent,
        }
    }

    fn supplies_through_l2(&self) -> bool {
        false
    }

    fn uses_update_bus(&self) -> bool {
        true
    }
}

/// MOESI — MESI plus the `Owned` state: a dirty copy that observes a
/// remote read supplies the line cache-to-cache and keeps the (dirty)
/// writeback obligation instead of refreshing the L2 — dirty sharing
/// without a writeback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Moesi;

impl CoherenceProtocol for Moesi {
    fn name(&self) -> &'static str {
        "moesi"
    }

    fn state_bits(&self) -> u32 {
        3
    }

    fn read_fill_state(&self, sharers: bool) -> LineState {
        if sharers {
            LineState::Shared
        } else {
            LineState::Exclusive
        }
    }

    fn snooped_read_next(&self, state: LineState) -> LineState {
        match state {
            // The dirty copy becomes (or stays) the owner.
            LineState::Modified | LineState::Owned => LineState::Owned,
            _ => LineState::Shared,
        }
    }

    fn local_write_action(&self, state: LineState) -> LocalWriteAction {
        match state {
            // An owner's write must still invalidate the clean sharers.
            LineState::Shared | LineState::Owned => LocalWriteAction::Invalidate,
            _ => LocalWriteAction::Silent,
        }
    }

    fn supplies_through_l2(&self) -> bool {
        false
    }

    fn uses_update_bus(&self) -> bool {
        false
    }
}

/// The protocol axis: which [`CoherenceProtocol`] table a system consults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Invalidate-based MESI (the default, and the paper's baseline).
    #[default]
    Mesi,
    /// Update-based Dragon (`Sc`/`Sm` states, bus-update traffic).
    Dragon,
    /// MESI plus the `Owned` state (dirty sharing without writeback).
    Moesi,
}

impl ProtocolKind {
    /// Every kind, for exhaustive round-trip tests and axis enumeration.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::Mesi,
        ProtocolKind::Dragon,
        ProtocolKind::Moesi,
    ];

    /// The protocol's decision table.
    #[must_use]
    pub fn table(self) -> &'static dyn CoherenceProtocol {
        match self {
            ProtocolKind::Mesi => &Mesi,
            ProtocolKind::Dragon => &Dragon,
            ProtocolKind::Moesi => &Moesi,
        }
    }
}

impl fmt::Display for ProtocolKind {
    /// The canonical label (`mesi`, `dragon`, `moesi`); round-trips through
    /// the [`FromStr`] impl.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.table().name())
    }
}

/// The error of [`ProtocolKind`]'s `FromStr`: the offending label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProtocolError {
    /// The label that named no protocol.
    pub label: String,
}

impl fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown coherence protocol `{}` (valid: mesi, dragon, moesi)",
            self.label
        )
    }
}

impl std::error::Error for ParseProtocolError {}

impl FromStr for ProtocolKind {
    type Err = ParseProtocolError;

    /// Parses a canonical protocol label (`mesi`, `dragon`, `moesi`).
    fn from_str(label: &str) -> Result<Self, Self::Err> {
        match label {
            "mesi" => Ok(ProtocolKind::Mesi),
            "dragon" => Ok(ProtocolKind::Dragon),
            "moesi" => Ok(ProtocolKind::Moesi),
            _ => Err(ParseProtocolError {
                label: label.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_STATES: [LineState; 7] = [
        LineState::Invalid,
        LineState::Shared,
        LineState::Exclusive,
        LineState::Modified,
        LineState::SharedClean,
        LineState::SharedModified,
        LineState::Owned,
    ];

    #[test]
    fn bit_encoding_round_trips() {
        for state in ALL_STATES {
            assert_eq!(LineState::from_bits(state.to_bits()), state);
        }
        // The one unused encoding decodes as "no line".
        assert_eq!(LineState::from_bits(0b111), LineState::Invalid);
        // Wrap-around: only the low three bits are stored.
        assert_eq!(LineState::from_bits(0b1011), LineState::Modified);
    }

    #[test]
    fn mesi_states_keep_their_historical_two_bit_encoding() {
        assert_eq!(LineState::Invalid.to_bits(), 0b00);
        assert_eq!(LineState::Shared.to_bits(), 0b01);
        assert_eq!(LineState::Exclusive.to_bits(), 0b10);
        assert_eq!(LineState::Modified.to_bits(), 0b11);
    }

    #[test]
    fn dirty_and_valid_follow_the_lattice() {
        assert!(!LineState::Invalid.is_valid());
        assert!(LineState::Shared.is_valid() && !LineState::Shared.is_dirty());
        assert!(LineState::Exclusive.is_valid() && !LineState::Exclusive.is_dirty());
        assert!(LineState::Modified.is_dirty());
        assert!(LineState::SharedClean.is_valid() && !LineState::SharedClean.is_dirty());
        assert!(LineState::SharedModified.is_dirty());
        assert!(LineState::Owned.is_dirty());
        assert_eq!(LineState::Modified.label(), "M");
        assert_eq!(LineState::SharedModified.label(), "Sm");
        assert_eq!(LineState::Owned.label(), "O");
    }

    #[test]
    fn protocol_labels_round_trip_exhaustively() {
        for kind in ProtocolKind::ALL {
            let label = kind.to_string();
            assert_eq!(label.parse::<ProtocolKind>(), Ok(kind), "{label}");
            assert_eq!(kind.table().name(), label);
        }
    }

    #[test]
    fn unknown_protocol_label_is_a_typed_error_naming_the_valid_set() {
        let err = "mosi".parse::<ProtocolKind>().unwrap_err();
        assert_eq!(err.label, "mosi");
        let text = err.to_string();
        assert!(text.contains("`mosi`"), "{text}");
        for valid in ["mesi", "dragon", "moesi"] {
            assert!(text.contains(valid), "{text} should name {valid}");
        }
        assert!("MESI".parse::<ProtocolKind>().is_err(), "labels are exact");
    }

    #[test]
    fn mesi_table_is_the_invalidate_baseline() {
        let table = ProtocolKind::Mesi.table();
        assert_eq!(table.state_bits(), 2);
        assert!(!table.uses_update_bus());
        assert!(table.supplies_through_l2());
        assert_eq!(table.read_fill_state(false), LineState::Exclusive);
        assert_eq!(table.read_fill_state(true), LineState::Shared);
        for state in ALL_STATES {
            let action = table.local_write_action(state);
            if state == LineState::Shared {
                assert_eq!(action, LocalWriteAction::Invalidate);
            } else {
                assert_eq!(action, LocalWriteAction::Silent, "{state:?}");
            }
            if state.is_valid() {
                assert_eq!(table.snooped_read_next(state), LineState::Shared);
            }
        }
    }

    #[test]
    fn dragon_table_updates_instead_of_invalidating() {
        let table = ProtocolKind::Dragon.table();
        assert_eq!(table.state_bits(), 3);
        assert!(table.uses_update_bus());
        assert!(!table.supplies_through_l2());
        assert_eq!(table.read_fill_state(true), LineState::SharedClean);
        assert_eq!(table.read_fill_state(false), LineState::Exclusive);
        assert_eq!(
            table.local_write_action(LineState::SharedClean),
            LocalWriteAction::Update
        );
        assert_eq!(
            table.local_write_action(LineState::SharedModified),
            LocalWriteAction::Update
        );
        // A dirty copy keeps its writeback obligation when snooped.
        assert_eq!(
            table.snooped_read_next(LineState::Modified),
            LineState::SharedModified
        );
        assert_eq!(
            table.snooped_read_next(LineState::Exclusive),
            LineState::SharedClean
        );
        // No state ever takes the invalidate action under Dragon.
        for state in ALL_STATES {
            assert_ne!(
                table.local_write_action(state),
                LocalWriteAction::Invalidate
            );
        }
    }

    #[test]
    fn moesi_table_keeps_dirty_ownership_on_remote_reads() {
        let table = ProtocolKind::Moesi.table();
        assert_eq!(table.state_bits(), 3);
        assert!(!table.uses_update_bus());
        assert!(!table.supplies_through_l2());
        assert_eq!(
            table.snooped_read_next(LineState::Modified),
            LineState::Owned
        );
        assert_eq!(table.snooped_read_next(LineState::Owned), LineState::Owned);
        assert_eq!(
            table.snooped_read_next(LineState::Shared),
            LineState::Shared
        );
        assert_eq!(
            table.local_write_action(LineState::Owned),
            LocalWriteAction::Invalidate
        );
        assert_eq!(
            table.local_write_action(LineState::Shared),
            LocalWriteAction::Invalidate
        );
        assert_eq!(
            table.local_write_action(LineState::Exclusive),
            LocalWriteAction::Silent
        );
    }

    #[test]
    fn uniprocessor_lattice_is_protocol_invariant() {
        // With no sharers ever found, every protocol fills Exclusive, writes
        // silently from E/M, and never takes a bus action — the I/E/M
        // lattice the uniprocessor engine relies on.
        for kind in ProtocolKind::ALL {
            let table = kind.table();
            assert_eq!(table.read_fill_state(false), LineState::Exclusive);
            assert_eq!(
                table.local_write_action(LineState::Exclusive),
                LocalWriteAction::Silent
            );
            assert_eq!(
                table.local_write_action(LineState::Modified),
                LocalWriteAction::Silent
            );
            assert_eq!(
                table.local_write_action(LineState::Invalid),
                LocalWriteAction::Silent
            );
        }
    }
}
