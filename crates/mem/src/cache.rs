//! Set-associative cache with per-word ECC protection.
//!
//! The cache stores real data: every 32-bit word is kept as a
//! [`Codeword`] (data + check bits of the configured
//! code), exactly like the data array + ECC array pair of a hardware cache.
//! Reads run the decoder, record the outcome, and scrub correctable errors in
//! place.  The timing of *when* the check happens (same cycle, extra cycle,
//! extra stage, or LAEC's anticipated check) is the pipeline's business; the
//! cache only answers hit/miss and value/outcome questions.

use std::fmt;
use std::ops::Deref;

use laec_ecc::{Codeword, Decoded, EccCode, ErrorInjector, FlipPlan, Outcome};

use crate::coherence::{LineState, ProtocolKind, SnoopResult};
use crate::config::{CacheConfig, WritePolicy};
use crate::fault::FaultTarget;
use crate::forensics::{ActivationKind, CacheEvent, FaultOutcome};
use crate::stats::CacheStats;

/// One cache line: tag, coherence state and the protected words.
#[derive(Debug, Clone)]
struct Line {
    /// Coherence state; `Invalid` ⇔ the old "not valid", `Modified` ⇔ the
    /// old "valid + dirty".  Uniprocessor fills produce `Exclusive`.
    state: LineState,
    tag: u32,
    /// Boxed rather than a `Vec`: the length never changes after the first
    /// fill, and the 8 bytes saved per line add up over an L2's filled sets.
    words: Box<[Codeword]>,
    /// Bit *i* set ⇔ `words[i]` was produced by `Codeword::encode` and has
    /// not been fault-flipped since.  A pristine codeword provably decodes
    /// to `(data, Clean)` for any valid code, so reads, evictions and
    /// flushes can skip the syndrome computation — the dominant cost of the
    /// simulated hierarchy.  Fault injection clears the bit; scrubs and
    /// writes (which re-encode) set it again.
    pristine: u64,
    last_used: u64,
}

impl Line {
    /// An invalid line.  The word storage stays unallocated until the
    /// line's first fill: a set's first fill appends all its ways, and most
    /// of them may never be filled in a short run.
    fn empty() -> Self {
        Line {
            state: LineState::Invalid,
            tag: 0,
            words: Box::default(),
            pristine: 0,
            last_used: 0,
        }
    }

    /// Decodes word `word`, taking the pristine fast path when possible.
    fn decode_word(&self, word: usize, code: &(dyn EccCode + Send + Sync)) -> Decoded {
        decode_stored(self.words[word], self.pristine & (1u64 << word) != 0, code)
    }

    /// Decodes every word of the line, also reporting whether any of them
    /// held an uncorrectable error.
    fn decode_all(&self, code: &(dyn EccCode + Send + Sync)) -> (LineWords, bool) {
        let mut words = LineWords::new();
        let mut uncorrectable = false;
        for word in 0..self.words.len() {
            let decoded = self.decode_word(word, code);
            uncorrectable |= !decoded.outcome.is_usable();
            words.push(decoded.data as u32);
        }
        (words, uncorrectable)
    }
}

/// Decodes one stored word: a `pristine` codeword (encoded and not struck
/// since) provably decodes to `(data, Clean)`, so it skips the syndrome
/// computation; any other runs the decoder.  The data needs no masking:
/// stored words are 32-bit values or decoder outputs, and every
/// [`laec_ecc::CodeKind`] covers at least 32 data bits.  The cache and the
/// seed overlays ([`crate::overlay`]) decode every stored word through this
/// one function.
pub(crate) fn decode_stored(
    codeword: Codeword,
    pristine: bool,
    code: &(dyn EccCode + Send + Sync),
) -> Decoded {
    if pristine {
        let decoded = Decoded {
            data: codeword.data(),
            outcome: Outcome::Clean,
        };
        debug_assert_eq!(decoded, codeword.decode(code));
        decoded
    } else {
        codeword.decode(code)
    }
}

/// Most 32-bit words one cache line holds: [`CacheConfig::validate`] caps
/// lines at [`CacheConfig::MAX_LINE_BYTES`].
pub const MAX_LINE_WORDS: usize = CacheConfig::MAX_LINE_BYTES as usize / 4;

/// Words a [`LineWords`] holds inline: a whole line of the 32-byte
/// geometry every shipped [`CacheConfig`] uses.
const INLINE_WORDS: usize = 8;

/// One cache line's words.  Fills, victims, flushes and cache-to-cache
/// supplies carry lines in this buffer, and a miss moves several of them,
/// so it is small: a line of up to eight words (32 bytes) stays inline and
/// a miss moves data without touching the heap; a longer line (up to
/// [`MAX_LINE_WORDS`]) moves to the heap.  It dereferences to the `[u32]`
/// of its words.
///
/// ```
/// use laec_mem::LineWords;
///
/// let line: LineWords = [1, 2, 3].into_iter().collect();
/// assert_eq!(line.len(), 3);
/// assert_eq!(line[1], 2);
/// assert_eq!(line.as_slice(), [1, 2, 3]);
/// let long: LineWords = (0..64).collect();
/// assert_eq!(long.len(), 64);
/// assert_eq!(long[63], 63);
/// ```
#[derive(Clone)]
pub struct LineWords {
    /// The words while there are at most [`INLINE_WORDS`] of them.
    inline: [u32; INLINE_WORDS],
    len: usize,
    /// Every word once there are more.
    spilled: Vec<u32>,
}

impl LineWords {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        LineWords {
            inline: [0; INLINE_WORDS],
            len: 0,
            spilled: Vec::new(),
        }
    }

    /// Appends `word`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer already holds [`MAX_LINE_WORDS`] words.
    pub fn push(&mut self, word: u32) {
        assert!(
            self.len < MAX_LINE_WORDS,
            "a line holds at most {MAX_LINE_WORDS} words"
        );
        if self.len < INLINE_WORDS {
            self.inline[self.len] = word;
        } else {
            if self.len == INLINE_WORDS {
                self.spilled.reserve_exact(MAX_LINE_WORDS);
                self.spilled.extend_from_slice(&self.inline);
            }
            self.spilled.push(word);
        }
        self.len += 1;
    }

    /// The words pushed so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        if self.len <= INLINE_WORDS {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

impl Default for LineWords {
    fn default() -> Self {
        LineWords::new()
    }
}

impl Deref for LineWords {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl PartialEq for LineWords {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for LineWords {}

impl fmt::Debug for LineWords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<u32> for LineWords {
    /// # Panics
    ///
    /// Panics if `iter` yields more than [`MAX_LINE_WORDS`] words.
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut line = LineWords::new();
        for word in iter {
            line.push(word);
        }
        line
    }
}

/// Result of a cache word read that hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadHit {
    /// The (corrected, when possible) word value.
    pub value: u32,
    /// ECC decode outcome for this word.
    pub outcome: Outcome,
    /// `true` if the line holding the word is dirty.
    pub dirty: bool,
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned base address of the evicted line.
    pub base_address: u32,
    /// The line's words (after ECC correction where possible).
    pub words: LineWords,
    /// `true` if the line was dirty and must be written back.
    pub dirty: bool,
    /// `true` if any word of the line held an uncorrectable error (the
    /// written-back data cannot be trusted).
    pub uncorrectable: bool,
}

/// The true (pre-corruption) metadata of a line struck by a metadata fault
/// — a ground-truth oracle used only to *classify* the consequences, never
/// to influence behaviour (behaviour always follows the stored, possibly
/// corrupted bits, exactly like hardware would).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MetaCorruption {
    /// The struck line's slot.
    index: usize,
    /// The tag the line carried before any tag-bit strike.
    true_tag: u32,
    /// `true` if the line architecturally held dirty data when struck.
    truly_dirty: bool,
}

/// A set-associative, LRU-replacement cache with ECC-protected words.
///
/// ```
/// use laec_mem::{Cache, CacheConfig};
///
/// let mut cache = Cache::new(CacheConfig::dl1_write_back());
/// assert!(cache.read_word(0x1000).is_none(), "cold cache misses");
/// cache.fill(0x1000, &[1, 2, 3, 4, 5, 6, 7, 8]);
/// let hit = cache.read_word(0x1004).expect("now resident");
/// assert_eq!(hit.value, 2);
/// ```
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// The lines of every set filled so far: one block of `ways` lines per
    /// set, appended on the set's first fill, in one vector.  Campaigns
    /// build a fresh hierarchy per grid cell, and most of an L2's 8 192
    /// lines stay untouched in a cell, so an untouched set costs one entry
    /// of `blocks` to build, drain and drop.  The vector reserves room for
    /// every set up front without writing it, so it never moves: growing
    /// it would briefly hold the old and the new buffer, more than the
    /// whole cache.  A line is named by its position here, its *slot*.
    lines: Vec<Line>,
    /// Per set, the slot of its block's first line, or [`UNFILLED`].
    blocks: Vec<u32>,
    /// Per block, in `lines` order, the set it holds.
    block_sets: Vec<u32>,
    /// Precomputed address-decomposition geometry.  `CacheConfig::sets()`
    /// re-validates the whole configuration on every call, which is far too
    /// expensive for the per-access hot path.
    offset_bits: u32,
    index_bits: u32,
    set_mask: u32,
    way_count: usize,
    /// The protecting code: one instance per [`laec_ecc::CodeKind`],
    /// shared by every cache.
    code: &'static (dyn EccCode + Send + Sync),
    /// Which coherence decision table governs this cache's snoop responses
    /// and the width of its state metadata.  Defaults to MESI; a
    /// uniprocessor never takes a protocol-dependent transition, so the
    /// field only matters once a coherence controller drives the cache.
    protocol: ProtocolKind,
    stats: CacheStats,
    access_counter: u64,
    /// Ground-truth records for lines whose metadata (coherence state or tag
    /// bits) was fault-flipped; empty on fault-free runs, so every check is
    /// a single `is_empty` branch.
    corrupted: Vec<MetaCorruption>,
    /// Metadata faults injected (state or tag bits).
    meta_faults_injected: u64,
    /// Dirty data dropped without a writeback because corrupted metadata
    /// hid the dirtiness or re-addressed the line (silent data loss).
    lost_writebacks: u64,
    /// Reads served wrong data because of corrupted metadata: an aliased
    /// tag-hit, or a refetch of stale lower-level data while the newest copy
    /// was hidden by the corruption (silent data corruption).
    stale_reads: u64,
    /// Forensics journal: strike and consequence events in program order,
    /// drained by the owning `MemorySystem` after every access.  Only
    /// populated when `journal_enabled` (set by forensics); every push site
    /// is behind that flag so disabled runs pay a single branch.
    journal: Vec<CacheEvent>,
    journal_enabled: bool,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        // laec-lint: allow(panic-in-library) -- documented panic: geometry
        // errors are construction-time configuration bugs, rejected before
        // any simulation state exists.
        config.validate().expect("invalid cache geometry");
        let sets = config.sets();
        Cache {
            config,
            lines: Vec::with_capacity(sets as usize * config.ways as usize),
            blocks: vec![UNFILLED; sets as usize],
            block_sets: Vec::with_capacity(sets as usize),
            offset_bits: config.line_bytes.trailing_zeros(),
            index_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
            way_count: config.ways as usize,
            code: config.protection.shared(),
            protocol: ProtocolKind::Mesi,
            stats: CacheStats::new(),
            access_counter: 0,
            corrupted: Vec::new(),
            meta_faults_injected: 0,
            lost_writebacks: 0,
            stale_reads: 0,
            journal: Vec::new(),
            journal_enabled: false,
        }
    }

    /// Turns on the forensics event journal (irreversible for the cache's
    /// lifetime; campaigns construct a fresh hierarchy per cell).
    pub(crate) fn enable_journal(&mut self) {
        self.journal_enabled = true;
    }

    /// Takes the journalled events accumulated since the last drain.
    pub(crate) fn drain_journal(&mut self) -> Vec<CacheEvent> {
        std::mem::take(&mut self.journal)
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The code protecting every stored word.
    pub(crate) fn code(&self) -> &'static (dyn EccCode + Send + Sync) {
        self.code
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// The coherence protocol governing this cache's snoop responses.
    #[must_use]
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Selects the coherence protocol (the SMP controller sets this on
    /// every DL1 it builds; the default is [`ProtocolKind::Mesi`]).
    pub fn set_protocol(&mut self, protocol: ProtocolKind) {
        self.protocol = protocol;
    }

    fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Line-aligned base address of the line containing `address`.
    #[must_use]
    pub fn line_base(&self, address: u32) -> u32 {
        address & !(self.config.line_bytes - 1)
    }

    fn set_index(&self, address: u32) -> usize {
        ((address >> self.offset_bits) & self.set_mask) as usize
    }

    fn tag(&self, address: u32) -> u32 {
        address >> (self.offset_bits + self.index_bits)
    }

    fn word_index(&self, address: u32) -> usize {
        ((address & (self.config.line_bytes - 1)) >> 2) as usize
    }

    fn ways(&self) -> usize {
        self.way_count
    }

    /// The slots of one set's lines: empty until the set's first fill.
    fn set_slots(&self, set: usize) -> std::ops::Range<usize> {
        match self.blocks[set] {
            UNFILLED => 0..0,
            first => first as usize..first as usize + self.ways(),
        }
    }

    /// The set whose block holds `slot`.
    fn set_of(&self, slot: usize) -> usize {
        self.block_sets[slot / self.ways()] as usize
    }

    /// The slot of the valid line holding `address`, if it is resident.
    fn find(&self, address: u32) -> Option<usize> {
        let slots = self.set_slots(self.set_index(address));
        let tag = self.tag(address);
        let way = self.lines[slots.clone()]
            .iter()
            .position(|line| line.state.is_valid() && line.tag == tag)?;
        Some(slots.start + way)
    }

    /// `true` if the word at `address` is resident, without disturbing LRU or
    /// statistics.
    #[must_use]
    pub fn probe(&self, address: u32) -> bool {
        self.find(address).is_some()
    }

    /// Reads the (decoded) word at `address` without updating LRU state,
    /// statistics or scrubbing — a debug/result-checking view.
    #[must_use]
    pub fn peek_word(&self, address: u32) -> Option<u32> {
        self.probe_decoded(address).map(|(value, _)| value)
    }

    /// Decoded value and ECC outcome of the word at `address`, without
    /// disturbing LRU state, statistics or scrubbing.  The forensics layer
    /// uses this to observe a struck word exactly as the next access would,
    /// before a destructive operation (store merge, eviction) consumes it.
    #[must_use]
    pub fn probe_decoded(&self, address: u32) -> Option<(u32, Outcome)> {
        let index = self.find(address)?;
        let word = self.word_index(address);
        let decoded = self.lines[index].decode_word(word, self.code);
        Some((decoded.data as u32, decoded.outcome))
    }

    /// Base address of the valid line a [`Cache::fill`] at `address` would
    /// displace, or `None` when an invalid way absorbs the fill.  Read-only
    /// twin of the victim selection inside `fill` (keep the two in sync);
    /// lets the forensics layer classify faults in the victim *before* the
    /// eviction decodes and discards it.
    #[must_use]
    pub fn victim_probe(&self, address: u32) -> Option<u32> {
        let set = self.set_index(address);
        let lines = &self.lines[self.set_slots(set)];
        if lines.iter().any(|line| !line.state.is_valid()) {
            return None;
        }
        lines
            .iter()
            .enumerate()
            .min_by_key(|(_, line)| line.last_used)
            .map(|(way, _)| self.reconstruct_base(set, lines[way].tag))
    }

    /// Reads the aligned 32-bit word at `address`.
    ///
    /// Returns `None` on a miss (recorded).  On a hit the stored codeword is
    /// decoded with the configured code; correctable errors are scrubbed in
    /// place and the outcome is recorded in the statistics.
    pub fn read_word(&mut self, address: u32) -> Option<ReadHit> {
        self.access_counter += 1;
        let Some(index) = self.find(address) else {
            self.stats.read_misses += 1;
            if !self.corrupted.is_empty() {
                self.record_shadowed_miss(address);
            }
            return None;
        };
        if !self.corrupted.is_empty() {
            if let Some(record) = self.corrupted.iter().find(|r| r.index == index) {
                if record.true_tag != self.lines[index].tag {
                    // The hit only happened because the stored tag was
                    // flipped onto this address: the data belongs elsewhere.
                    self.stale_reads += 1;
                    if self.journal_enabled {
                        let set = self.set_index(address);
                        let base = self.reconstruct_base(set, record.true_tag);
                        self.journal.push(CacheEvent::MetaOutcome {
                            base,
                            outcome: FaultOutcome::StaleMetadataRead,
                            activation: Some(ActivationKind::Read),
                        });
                    }
                }
            }
        }
        self.stats.read_hits += 1;
        let word = self.word_index(address);
        let counter = self.access_counter;
        let line = &mut self.lines[index];
        line.last_used = counter;
        let decoded = line.decode_word(word, self.code);
        self.stats.ecc.record(decoded.outcome);
        if decoded.outcome.is_corrected() {
            // Scrub: rewrite the corrected word so the error does not linger.
            line.words[word] = Codeword::encode(self.code, decoded.data);
            line.pristine |= 1u64 << word;
        }
        Some(ReadHit {
            value: decoded.data as u32,
            outcome: decoded.outcome,
            dirty: line.state.is_dirty(),
        })
    }

    /// Bookkeeping for a read miss while metadata corruptions are live: if
    /// the line that *should* have matched is resident under a flipped tag
    /// and architecturally dirty, the refetch from below returns stale data.
    fn record_shadowed_miss(&mut self, address: u32) {
        let set = self.set_index(address);
        let tag = self.tag(address);
        let range = self.set_slots(set);
        for record in &self.corrupted {
            if range.contains(&record.index)
                && record.true_tag == tag
                && self.lines[record.index].tag != tag
                && self.lines[record.index].state.is_valid()
                && record.truly_dirty
            {
                self.stale_reads += 1;
                if self.journal_enabled {
                    let base = self.reconstruct_base(set, record.true_tag);
                    self.journal.push(CacheEvent::MetaOutcome {
                        base,
                        outcome: FaultOutcome::StaleMetadataRead,
                        activation: Some(ActivationKind::Read),
                    });
                }
                return;
            }
        }
    }

    /// Writes bytes of the aligned word at `address` selected by `byte_mask`
    /// (bit *i* of the mask enables byte *i*).  Returns `false` on a miss
    /// (recorded); the caller decides whether to allocate
    /// ([`Cache::fill`]) or forward the write, according to the policy.
    ///
    /// Write-back caches mark the line dirty; write-through caches leave the
    /// dirty bit clear because the caller forwards the store to the next
    /// level.
    pub fn write_word_masked(&mut self, address: u32, value: u32, byte_mask: u8) -> bool {
        self.access_counter += 1;
        let Some(index) = self.find(address) else {
            self.stats.write_misses += 1;
            return false;
        };
        self.stats.write_hits += 1;
        let word = self.word_index(address);
        let counter = self.access_counter;
        let dirty_on_write = self.config.write_policy == WritePolicy::WriteBack;
        let mask = expand_byte_mask(byte_mask);
        let line = &mut self.lines[index];
        line.last_used = counter;
        let decoded = line.decode_word(word, self.code);
        self.stats.ecc.record(decoded.outcome);
        let old = decoded.data as u32;
        let merged = (old & !mask) | (value & mask);
        line.words[word] = Codeword::encode(self.code, u64::from(merged));
        line.pristine |= 1u64 << word;
        if dirty_on_write {
            line.state = LineState::Modified;
            if !self.corrupted.is_empty() {
                // A state-only corruption (tag intact) is healed by the
                // write: the line is dirty again and will be written back.
                let tag = self.lines[index].tag;
                if self.journal_enabled {
                    let set = self.set_of(index);
                    for record in &self.corrupted {
                        if record.index == index && record.true_tag == tag {
                            let base = self.reconstruct_base(set, record.true_tag);
                            self.journal.push(CacheEvent::MetaOutcome {
                                base,
                                outcome: FaultOutcome::Masked,
                                activation: None,
                            });
                        }
                    }
                }
                self.corrupted
                    .retain(|r| r.index != index || r.true_tag != tag);
            }
        }
        true
    }

    /// Writes a full aligned word (all bytes enabled).
    pub fn write_word(&mut self, address: u32, value: u32) -> bool {
        self.write_word_masked(address, value, 0xF)
    }

    /// Reads `count` consecutive words starting at the line-aligned `base`,
    /// all within one line — the refill fast path.  Statistics, LRU state
    /// and scrubbing end up exactly as `count` calls to
    /// [`Cache::read_word`] would leave them, but the tag is matched once.
    /// Returns `None` (nothing recorded) when the line is not resident or
    /// the request extends past it (a caller line larger than ours); the
    /// caller falls back to per-word reads.
    pub fn read_line_words(&mut self, base: u32, count: u32) -> Option<LineWords> {
        let index = self.find(base)?;
        let first = self.word_index(base);
        if first + count as usize > self.config.words_per_line() as usize {
            return None;
        }
        self.access_counter += u64::from(count);
        self.stats.read_hits += u64::from(count);
        let counter = self.access_counter;
        let code = self.code;
        let line = &mut self.lines[index];
        line.last_used = counter;
        let mut out = LineWords::new();
        for word in first..first + count as usize {
            let decoded = line.decode_word(word, code);
            self.stats.ecc.record(decoded.outcome);
            if decoded.outcome.is_corrected() {
                line.words[word] = Codeword::encode(code, decoded.data);
                line.pristine |= 1u64 << word;
            }
            out.push(decoded.data as u32);
        }
        Some(out)
    }

    /// Fills the line containing `address` with `line_words` (one entry per
    /// 32-bit word of the line), evicting the LRU way if necessary.
    ///
    /// Returns the displaced line when it was dirty or held an
    /// uncorrectable word; a clean, intact victim is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `line_words` does not match the configured line size.
    pub fn fill(&mut self, address: u32, line_words: &[u32]) -> Option<EvictedLine> {
        assert_eq!(
            line_words.len(),
            self.config.words_per_line() as usize,
            "fill data must cover exactly one line"
        );
        self.access_counter += 1;
        self.stats.fills += 1;
        let set = self.set_index(address);
        let tag = self.tag(address);
        let counter = self.access_counter;

        // The set's first fill appends its block of invalid lines.
        if self.blocks[set] == UNFILLED {
            self.blocks[set] = self.lines.len() as u32;
            self.block_sets.push(set as u32);
            self.lines
                .extend(std::iter::repeat_with(Line::empty).take(self.ways()));
        }
        // Prefer an invalid way; otherwise evict the LRU way.
        let slots = self.set_slots(set);
        let way = {
            let lines = &self.lines[slots.clone()];
            lines
                .iter()
                .position(|line| !line.state.is_valid())
                .unwrap_or_else(|| {
                    lines
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, line)| line.last_used)
                        .map(|(w, _)| w)
                        // laec-lint: allow(panic-in-library) -- `validate`
                        // rejects zero-way geometries at construction, so a
                        // set always has at least one line to victimize.
                        .expect("at least one way")
                })
        };

        let index = slots.start + way;
        let line = &self.lines[index];
        let mut evicted = None;
        if line.state.is_valid() {
            let dirty = line.state.is_dirty();
            self.stats.evictions += 1;
            if dirty {
                self.stats.writebacks += 1;
            }
            // A clean victim whose words are all pristine decodes cleanly:
            // the caller has nothing to write back or report, so it is not
            // decoded.
            if dirty || line.pristine != pristine_mask(line.words.len()) {
                let (words, uncorrectable) = line.decode_all(self.code);
                evicted = (dirty || uncorrectable).then(|| EvictedLine {
                    base_address: self.reconstruct_base(set, line.tag),
                    words,
                    dirty,
                    uncorrectable,
                });
            }
        }
        if !self.corrupted.is_empty() {
            self.retire_corruption(index);
        }

        let code = self.code;
        let line = &mut self.lines[index];
        line.state = LineState::Exclusive;
        line.tag = tag;
        line.last_used = counter;
        // The first fill allocates the slot's storage; refills overwrite it.
        let encoded = line_words
            .iter()
            .map(|&value| Codeword::encode(code, u64::from(value)));
        if line.words.is_empty() {
            line.words = encoded.collect();
        } else {
            for (slot, codeword) in line.words.iter_mut().zip(encoded) {
                *slot = codeword;
            }
        }
        line.pristine = pristine_mask(line.words.len());
        evicted
    }

    /// Invalidates the line containing `address` (no writeback), returning
    /// `true` if it was resident.  Used by the WT+parity recovery path: a
    /// detected parity error simply drops the line and refetches it.
    pub fn invalidate(&mut self, address: u32) -> bool {
        if let Some(index) = self.find(address) {
            if !self.corrupted.is_empty() {
                self.retire_corruption(index);
            }
            self.lines[index].state = LineState::Invalid;
            true
        } else {
            false
        }
    }

    /// Settles the ground-truth record of a line that is about to disappear
    /// (replacement fill or invalidation): if the line architecturally held
    /// the only dirty copy but its stored metadata no longer says so — the
    /// state bits were downgraded, or the tag was flipped so the writeback
    /// went to the wrong address — that data is silently lost.
    fn retire_corruption(&mut self, index: usize) {
        let stored_tag = self.lines[index].tag;
        let stored_dirty = self.lines[index].state.is_dirty();
        if let Some(position) = self.corrupted.iter().position(|r| r.index == index) {
            let record = self.corrupted.swap_remove(position);
            let lost = record.truly_dirty && (!stored_dirty || record.true_tag != stored_tag);
            if lost {
                self.lost_writebacks += 1;
            }
            if self.journal_enabled {
                let base = self.reconstruct_base(self.set_of(index), record.true_tag);
                let (outcome, activation) = if lost {
                    // The eviction/flush that retired the record is the
                    // moment the dirty data missed its writeback.
                    (
                        FaultOutcome::LostWriteback,
                        Some(ActivationKind::WritebackDrain),
                    )
                } else {
                    (FaultOutcome::Masked, None)
                };
                self.journal.push(CacheEvent::MetaOutcome {
                    base,
                    outcome,
                    activation,
                });
            }
        }
    }

    /// Marks the line containing `address` clean (after an explicit
    /// writeback), returning `true` if it was resident.
    pub fn clean(&mut self, address: u32) -> bool {
        if let Some(index) = self.find(address) {
            if self.lines[index].state.is_dirty() {
                self.lines[index].state = LineState::Exclusive;
            }
            true
        } else {
            false
        }
    }

    /// The coherence state of the line containing `address` (`Invalid` when
    /// not resident).  Does not disturb LRU state or statistics.
    #[must_use]
    pub fn coherence_state(&self, address: u32) -> LineState {
        match self.find(address) {
            Some(index) => self.lines[index].state,
            None => LineState::Invalid,
        }
    }

    /// Sets the coherence state of a resident line (the SMP coherence controller
    /// adjusts fill states and downgrades through this), returning `true`
    /// if the line was resident.  Use [`Cache::invalidate`] to drop a line.
    pub fn set_coherence_state(&mut self, address: u32, state: LineState) -> bool {
        debug_assert_ne!(state, LineState::Invalid, "use invalidate() to drop");
        if let Some(index) = self.find(address) {
            self.lines[index].state = state;
            true
        } else {
            false
        }
    }

    /// Services a remote bus transaction observed for the line containing
    /// `address`: a remote read (`invalidate == false`) moves the copy to
    /// the protocol's `snooped_read_next` state (MESI/MOESI demote to
    /// `Shared`/`Owned`; Dragon to `Sc`/`Sm`); a remote write intent
    /// (`invalidate == true`) drops the line.  A dirty copy is decoded
    /// and supplied (cache-to-cache intervention) so the requester and the
    /// level below see the newest data.  Snoops touch neither LRU state nor
    /// hit/miss statistics — they are not processor accesses.
    pub fn snoop(&mut self, address: u32, invalidate: bool) -> SnoopResult {
        // A copy hidden behind a flipped tag is missed here too: it survives
        // the invalidation and keeps serving aliased reads (counted at read
        // time) — exactly the coherence hole a tag strike opens.
        let Some(index) = self.find(address) else {
            return SnoopResult::default();
        };
        let was_modified = self.lines[index].state.is_dirty();
        let (supplied, uncorrectable) = if was_modified {
            let (words, uncorrectable) = self.lines[index].decode_all(self.code);
            (Some(words), uncorrectable)
        } else {
            (None, false)
        };
        if invalidate {
            if !self.corrupted.is_empty() {
                self.retire_corruption(index);
            }
            self.lines[index].state = LineState::Invalid;
        } else {
            let next = self
                .protocol
                .table()
                .snooped_read_next(self.lines[index].state);
            if self.lines[index].state != next {
                self.lines[index].state = next;
            }
        }
        SnoopResult {
            had_line: true,
            was_modified,
            invalidated: invalidate,
            supplied,
            uncorrectable,
        }
    }

    /// Applies a remote bus update (Dragon's `BusUpd`) to the line
    /// containing `address`, returning `true` if a copy was resident.  The
    /// masked bytes of the written word are merged into the stored copy —
    /// re-encoded under this cache's code — and the copy moves to `next`
    /// (`SharedClean`: the broadcaster now owns the writeback obligation).
    /// Like [`Cache::snoop`], an update is not a processor access: it
    /// touches neither LRU state nor hit/miss statistics.
    pub fn apply_update(
        &mut self,
        address: u32,
        value: u32,
        byte_mask: u8,
        next: LineState,
    ) -> bool {
        let Some(index) = self.find(address) else {
            return false;
        };
        let word = self.word_index(address);
        let mask = expand_byte_mask(byte_mask);
        let line = &mut self.lines[index];
        let old = line.decode_word(word, self.code).data as u32;
        let merged = (old & !mask) | (value & mask);
        line.words[word] = Codeword::encode(self.code, u64::from(merged));
        line.pristine |= 1u64 << word;
        line.state = next;
        if !self.corrupted.is_empty() {
            // A state-only corruption is settled by the update: the
            // broadcaster owns the writeback obligation from here on, so
            // this copy is architecturally clean again.  A flipped tag
            // keeps its record (the copy still answers for the wrong
            // address).
            let tag = self.lines[index].tag;
            if self.journal_enabled {
                let set = self.set_of(index);
                for record in &self.corrupted {
                    if record.index == index && record.true_tag == tag {
                        let base = self.reconstruct_base(set, record.true_tag);
                        self.journal.push(CacheEvent::MetaOutcome {
                            base,
                            outcome: FaultOutcome::Masked,
                            activation: None,
                        });
                    }
                }
            }
            self.corrupted
                .retain(|r| r.index != index || r.true_tag != tag);
        }
        true
    }

    /// Injects a metadata fault — a flipped coherence-state bit or tag bit — into
    /// a random resident line, picked with `injector` among `slots`, the
    /// cache's valid lines ([`Cache::valid_slots`]).  Returns the struck
    /// line's architecturally correct base address, or `None` when the cache
    /// is empty.  The flip changes only the stored metadata; a ground-truth
    /// record is kept so the *consequences* (lost writebacks, stale reads)
    /// can be classified without influencing behaviour.
    pub(crate) fn inject_meta_fault(
        &mut self,
        slots: &[usize],
        injector: &mut ErrorInjector,
        target: FaultTarget,
    ) -> Option<u32> {
        let k = (!slots.is_empty()).then(|| injector.next_below(slots.len() as u64))?;
        let index = slots[k as usize];
        let set_index = self.set_of(index);
        let corrupted = self.corrupted.iter().find(|r| r.index == index);
        let already_corrupted = corrupted.is_some();
        let (true_tag, truly_dirty) = match corrupted {
            // Already-corrupted lines keep their original ground truth.
            Some(record) => (record.true_tag, record.truly_dirty),
            None => (self.lines[index].tag, self.lines[index].state.is_dirty()),
        };
        let base = self.reconstruct_base(set_index, true_tag);
        if self.journal_enabled {
            self.journal.push(CacheEvent::MetaStrike { base, target });
        }
        match target {
            FaultTarget::Data => unreachable!("data strikes use inject_fault"),
            FaultTarget::State => {
                // The strike surface is exactly as wide as the protocol's
                // state metadata: 2 bits for MESI (keeping the historical
                // injector stream), 3 for the Dragon/MOESI lattices.
                let state_bits = u64::from(self.protocol.table().state_bits());
                let bit = injector.next_below(state_bits) as u8;
                let bits = self.lines[index].state.to_bits() ^ (1 << bit);
                self.lines[index].state = LineState::from_bits(bits);
            }
            FaultTarget::Tag => {
                let tag_bits = 32 - self.offset_bits - self.index_bits;
                let bit = injector.next_below(u64::from(tag_bits)) as u32;
                self.lines[index].tag ^= 1 << bit;
            }
        }
        self.meta_faults_injected += 1;
        if self.lines[index].state.is_valid() {
            if !already_corrupted {
                self.corrupted.push(MetaCorruption {
                    index,
                    true_tag,
                    truly_dirty,
                });
            }
        } else {
            // The state flip landed on Invalid: the line vanished outright.
            self.corrupted.retain(|r| r.index != index);
            if truly_dirty {
                self.lost_writebacks += 1;
            }
            if self.journal_enabled {
                let (outcome, activation) = if truly_dirty {
                    // Zero-latency loss: the strike itself destroyed the
                    // only dirty copy.
                    (
                        FaultOutcome::LostWriteback,
                        Some(ActivationKind::WritebackDrain),
                    )
                } else {
                    (FaultOutcome::Masked, None)
                };
                self.journal.push(CacheEvent::MetaOutcome {
                    base,
                    outcome,
                    activation,
                });
            }
        }
        Some(base)
    }

    /// Metadata faults injected so far.
    #[must_use]
    pub fn meta_faults_injected(&self) -> u64 {
        self.meta_faults_injected
    }

    /// Dirty lines silently dropped (or mis-addressed) because of corrupted
    /// metadata.
    #[must_use]
    pub fn lost_writebacks(&self) -> u64 {
        self.lost_writebacks
    }

    /// Reads served wrong data because of corrupted metadata.
    #[must_use]
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads
    }

    /// Applies a bit-flip plan to the stored codeword at `address`,
    /// returning `true` if the word was resident (faults cannot be injected
    /// into non-resident lines).
    pub fn inject_fault(&mut self, address: u32, plan: &FlipPlan) -> bool {
        let Some(index) = self.find(address) else {
            return false;
        };
        let word = self.word_index(address);
        if self.journal_enabled {
            // Ground truth for SDC classification: the decoded value before
            // the strike (unknowable only when the word was already
            // undecodable from an earlier unresolved strike).
            let decoded = self.lines[index].decode_word(word, self.code);
            let true_value = if decoded.outcome.is_usable() {
                Some(decoded.data as u32)
            } else {
                None
            };
            self.journal.push(CacheEvent::DataStrike {
                address,
                true_value,
            });
        }
        plan.apply(&mut self.lines[index].words[word]);
        self.lines[index].pristine &= !(1u64 << word);
        true
    }

    /// Snapshots the slots of the valid lines, in set-major order (by set,
    /// then by way), into `slots`: what a data strike draws its word from.
    /// A reused `slots` allocates only for the first snapshot.
    pub(crate) fn valid_slots(&self, slots: &mut Vec<usize>) {
        slots.clear();
        slots.reserve(self.lines.len());
        for set in 0..self.blocks.len() {
            let valid = self
                .set_slots(set)
                .filter(|&slot| self.lines[slot].state.is_valid());
            slots.extend(valid);
        }
    }

    /// Address of word `word` of the line in slot `slot`.
    pub(crate) fn slot_word_address(&self, slot: usize, word: u64) -> u32 {
        self.reconstruct_base(self.set_of(slot), self.lines[slot].tag) + 4 * word as u32
    }

    /// Number of dirty lines currently resident.
    #[must_use]
    pub fn dirty_lines(&self) -> usize {
        self.lines
            .iter()
            .filter(|line| line.state.is_dirty())
            .count()
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.lines
            .iter()
            .filter(|line| line.state.is_valid())
            .count()
    }

    /// Writes back the next dirty line at or after line `*cursor` in
    /// set-major order (`set * ways + way`) and moves the cursor past it,
    /// or returns `None` once no dirty line remains.  Calling it from
    /// cursor 0 until it returns `None` flushes every dirty line (used at
    /// program end so the memory image can be compared across schemes),
    /// one line at a time, so no list of lines is ever built; sets never
    /// filled are skipped whole.
    pub fn flush_next_dirty(&mut self, cursor: &mut usize) -> Option<EvictedLine> {
        let ways = self.ways();
        let (mut set, mut first_way) = (*cursor / ways, *cursor % ways);
        while set < self.blocks.len() {
            for (way, index) in self.set_slots(set).enumerate().skip(first_way) {
                let line = &self.lines[index];
                if line.state.is_dirty() {
                    let (words, uncorrectable) = line.decode_all(self.code);
                    let base_address = self.reconstruct_base(set, line.tag);
                    self.lines[index].state = LineState::Exclusive;
                    self.stats.writebacks += 1;
                    *cursor = set * ways + way + 1;
                    return Some(EvictedLine {
                        base_address,
                        words,
                        dirty: true,
                        uncorrectable,
                    });
                }
            }
            set += 1;
            first_way = 0;
        }
        *cursor = self.blocks.len() * ways;
        // Architecturally-dirty lines whose corrupted metadata hid them from
        // this flush have now missed their last chance to reach memory.
        if !self.corrupted.is_empty() {
            let indices: Vec<usize> = self.corrupted.iter().map(|r| r.index).collect();
            for index in indices {
                self.retire_corruption(index);
            }
        }
        None
    }

    fn reconstruct_base(&self, set_index: usize, tag: u32) -> u32 {
        (tag << (self.offset_bits() + self.index_bits()))
            | ((set_index as u32) << self.offset_bits())
    }
}

/// The `Cache::blocks` entry of a set never filled.
const UNFILLED: u32 = u32::MAX;

/// All-pristine mask for a line of `words` words (the `pristine` bitmask is
/// a u64, which `CacheConfig::validate`'s line-size bounds keep sufficient).
fn pristine_mask(words: usize) -> u64 {
    debug_assert!(words <= 64, "pristine bitmask covers at most 64 words");
    if words >= 64 {
        u64::MAX
    } else {
        (1u64 << words) - 1
    }
}

/// Expands a 4-bit byte mask into a 32-bit bit mask.
pub(crate) fn expand_byte_mask(byte_mask: u8) -> u32 {
    let mut mask = 0u32;
    for byte in 0..4 {
        if byte_mask & (1 << byte) != 0 {
            mask |= 0xFFu32 << (8 * byte);
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocatePolicy;
    use laec_ecc::CodeKind;

    fn small_config() -> CacheConfig {
        // 2 sets x 2 ways x 16 B lines = 64 B: easy to force evictions.
        CacheConfig {
            size_bytes: 64,
            ways: 2,
            line_bytes: 16,
            write_policy: WritePolicy::WriteBack,
            allocate_policy: AllocatePolicy::WriteAllocate,
            protection: CodeKind::Hsiao39_32,
        }
    }

    fn line(start: u32) -> Vec<u32> {
        (0..4).map(|i| start + i).collect()
    }

    #[test]
    fn address_decomposition() {
        let cache = Cache::new(CacheConfig::dl1_write_back());
        // 32 B lines -> 5 offset bits; 128 sets -> 7 index bits.
        assert_eq!(cache.line_base(0x0000_1234), 0x0000_1220);
        assert_eq!(cache.set_index(0x0000_1234), (0x1234 >> 5) & 127);
        assert_eq!(cache.tag(0x0000_1234), 0x1234 >> 12);
        assert_eq!(cache.word_index(0x0000_1234), 5);
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut cache = Cache::new(small_config());
        assert!(!cache.probe(0x100));
        assert!(cache.read_word(0x100).is_none());
        assert_eq!(cache.stats().read_misses, 1);
        cache.fill(0x100, &line(10));
        assert!(cache.probe(0x100));
        let hit = cache.read_word(0x108).unwrap();
        assert_eq!(hit.value, 12);
        assert_eq!(hit.outcome, Outcome::Clean);
        assert!(!hit.dirty);
        assert_eq!(cache.stats().read_hits, 1);
        assert_eq!(cache.valid_lines(), 1);
    }

    #[test]
    fn writes_set_dirty_only_for_write_back() {
        let mut wb = Cache::new(small_config());
        wb.fill(0x100, &line(0));
        assert!(wb.write_word(0x104, 99));
        assert_eq!(wb.read_word(0x104).unwrap().value, 99);
        assert_eq!(wb.dirty_lines(), 1);

        let mut wt = Cache::new(CacheConfig {
            write_policy: WritePolicy::WriteThrough,
            allocate_policy: AllocatePolicy::NoWriteAllocate,
            protection: CodeKind::EvenParity32,
            ..small_config()
        });
        wt.fill(0x100, &line(0));
        assert!(wt.write_word(0x104, 99));
        assert_eq!(wt.dirty_lines(), 0);
    }

    #[test]
    fn masked_writes_merge_bytes() {
        let mut cache = Cache::new(small_config());
        cache.fill(0x100, &[0x1111_1111; 4]);
        assert!(cache.write_word_masked(0x100, 0x0000_00AA, 0b0001));
        assert_eq!(cache.read_word(0x100).unwrap().value, 0x1111_11AA);
        assert!(cache.write_word_masked(0x100, 0xBBBB_0000, 0b1100));
        assert_eq!(cache.read_word(0x100).unwrap().value, 0xBBBB_11AA);
    }

    #[test]
    fn write_miss_is_recorded_and_not_allocated() {
        let mut cache = Cache::new(small_config());
        assert!(!cache.write_word(0x500, 1));
        assert_eq!(cache.stats().write_misses, 1);
        assert!(!cache.probe(0x500));
    }

    #[test]
    fn lru_eviction_returns_dirty_victim() {
        let mut cache = Cache::new(small_config());
        // Set 0 holds lines with base addresses that are multiples of 32 (16 B
        // lines, 2 sets): 0x00, 0x20, 0x40 all map to set 0.
        cache.fill(0x00, &line(1));
        cache.fill(0x20, &line(2));
        cache.write_word(0x00, 0xAB); // make way-0 line dirty and MRU
        let evicted = cache.fill(0x40, &line(3));
        // LRU is the 0x20 line (clean): eviction returns None for clean lines.
        assert!(evicted.is_none());
        assert!(cache.probe(0x00) && cache.probe(0x40) && !cache.probe(0x20));
        // Touch 0x40 so 0x00 becomes LRU, then evict it: dirty writeback.
        cache.read_word(0x40).unwrap();
        let evicted = cache.fill(0x20, &line(4)).expect("dirty victim");
        assert_eq!(evicted.base_address, 0x00);
        assert!(evicted.dirty);
        assert_eq!(evicted.words[0], 0xAB);
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn clean_victims_are_reported_only_when_struck_uncorrectably() {
        let mut cache = Cache::new(small_config());
        cache.fill(0x00, &line(1));
        cache.fill(0x20, &line(2));
        // A struck but correctable clean victim has nothing to report.
        cache.inject_fault(0x04, &FlipPlan::single_data(3));
        assert_eq!(cache.fill(0x40, &line(3)), None);
        // An uncorrectable one is reported, decoded as stored.
        cache.inject_fault(0x24, &FlipPlan::double_data(3, 17));
        let evicted = cache.fill(0x00, &line(4)).expect("uncorrectable victim");
        assert_eq!(evicted.base_address, 0x20);
        assert!(evicted.uncorrectable && !evicted.dirty);
        assert_eq!(evicted.words[0], 2);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.stats().writebacks, 0);
    }

    #[test]
    fn long_lines_spill_their_words_to_the_heap() {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 256,
            ..small_config()
        });
        let words: Vec<u32> = (0..64).collect();
        cache.fill(0x1000, &words);
        let read = cache.read_line_words(0x1000, 64).expect("resident");
        assert_eq!(read.as_slice(), words.as_slice());
    }

    #[test]
    fn invalidate_and_clean() {
        let mut cache = Cache::new(small_config());
        cache.fill(0x100, &line(5));
        cache.write_word(0x100, 7);
        assert_eq!(cache.dirty_lines(), 1);
        assert!(cache.clean(0x100));
        assert_eq!(cache.dirty_lines(), 0);
        assert!(cache.invalidate(0x100));
        assert!(!cache.probe(0x100));
        assert!(!cache.invalidate(0x100));
        assert!(!cache.clean(0x100));
    }

    #[test]
    fn injected_single_bit_fault_is_corrected_and_scrubbed() {
        let mut cache = Cache::new(small_config());
        cache.fill(0x100, &[0xCAFE_F00D; 4]);
        assert!(cache.inject_fault(0x104, &FlipPlan::single_data(9)));
        let hit = cache.read_word(0x104).unwrap();
        assert_eq!(hit.outcome, Outcome::CorrectedSingle { bit: 9 });
        assert_eq!(hit.value, 0xCAFE_F00D);
        // The scrub rewrote the word: a second read is clean.
        let hit = cache.read_word(0x104).unwrap();
        assert_eq!(hit.outcome, Outcome::Clean);
        assert_eq!(cache.stats().ecc.corrected_data, 1);
    }

    #[test]
    fn injected_double_fault_is_flagged_uncorrectable() {
        let mut cache = Cache::new(small_config());
        cache.fill(0x100, &[0x0101_0101; 4]);
        cache.inject_fault(0x100, &FlipPlan::double_data(3, 17));
        let hit = cache.read_word(0x100).unwrap();
        assert_eq!(hit.outcome, Outcome::DetectedDouble);
        assert!(!cache.stats().ecc.is_safe());
    }

    #[test]
    fn fault_injection_needs_resident_data() {
        let mut cache = Cache::new(small_config());
        assert!(!cache.inject_fault(0x100, &FlipPlan::single_data(0)));
        cache.fill(0x100, &line(0));
        let mut slots = Vec::new();
        cache.valid_slots(&mut slots);
        let resident: Vec<u32> = (0..4)
            .map(|k| cache.slot_word_address(slots[0], k))
            .collect();
        assert_eq!(resident, vec![0x100, 0x104, 0x108, 0x10C]);
    }

    #[test]
    fn parity_cache_detects_but_does_not_correct() {
        let mut cache = Cache::new(CacheConfig {
            protection: CodeKind::EvenParity32,
            ..small_config()
        });
        cache.fill(0x100, &[7; 4]);
        cache.inject_fault(0x100, &FlipPlan::single_data(0));
        let hit = cache.read_word(0x100).unwrap();
        assert_eq!(hit.outcome, Outcome::DetectedUncorrectable);
    }

    #[test]
    fn flush_dirty_writes_back_everything() {
        let mut cache = Cache::new(small_config());
        cache.fill(0x00, &line(0));
        cache.fill(0x10, &line(4));
        cache.write_word(0x00, 100);
        cache.write_word(0x10, 200);
        let mut cursor = 0;
        let flushed: Vec<EvictedLine> =
            std::iter::from_fn(|| cache.flush_next_dirty(&mut cursor)).collect();
        assert_eq!(flushed.len(), 2);
        assert_eq!(cache.dirty_lines(), 0);
        let bases: Vec<u32> = flushed.iter().map(|e| e.base_address).collect();
        assert!(bases.contains(&0x00) && bases.contains(&0x10));
    }

    #[test]
    fn unprotected_cache_works_without_check_bits() {
        let mut cache = Cache::new(CacheConfig {
            protection: CodeKind::None,
            ..small_config()
        });
        cache.fill(0x100, &[42; 4]);
        // An injected flip goes completely unnoticed: silent data corruption,
        // the failure mode the paper's ECC schemes exist to prevent.
        cache.inject_fault(0x100, &FlipPlan::single_data(0));
        let hit = cache.read_word(0x100).unwrap();
        assert_eq!(hit.outcome, Outcome::Clean);
        assert_eq!(hit.value, 43);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut cache = Cache::new(small_config());
        cache.read_word(0x0);
        assert_eq!(cache.stats().read_misses, 1);
        cache.reset_stats();
        assert_eq!(cache.stats().read_misses, 0);
    }

    #[test]
    #[should_panic(expected = "exactly one line")]
    fn fill_with_wrong_word_count_panics() {
        let mut cache = Cache::new(small_config());
        cache.fill(0x100, &[1, 2]);
    }

    #[test]
    fn read_line_words_matches_per_word_reads_and_rejects_oversized_requests() {
        let mut batched = Cache::new(small_config());
        let mut serial = Cache::new(small_config());
        batched.fill(0x100, &line(7));
        serial.fill(0x100, &line(7));
        batched.inject_fault(0x104, &FlipPlan::single_data(3));
        serial.inject_fault(0x104, &FlipPlan::single_data(3));
        let words = batched.read_line_words(0x100, 4).expect("resident");
        let per_word: Vec<u32> = (0..4)
            .map(|i| serial.read_word(0x100 + 4 * i).unwrap().value)
            .collect();
        assert_eq!(words.as_slice(), per_word);
        assert_eq!(batched.stats(), serial.stats(), "identical counters");
        // A request larger than the line (a caller with bigger lines than
        // ours) must fall back, not index out of bounds.
        let stats_before = *batched.stats();
        assert_eq!(batched.read_line_words(0x100, 8), None);
        assert_eq!(batched.read_line_words(0x108, 4), None, "past the end");
        assert_eq!(*batched.stats(), stats_before, "nothing recorded");
        assert_eq!(batched.read_line_words(0x400, 4), None, "not resident");
    }
}
