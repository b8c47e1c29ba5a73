//! Seed overlays: every fault seed of a cell evaluated in its one
//! fault-free run.
//!
//! A fault campaign's strikes land at the same commits for every seed, and
//! a data strike changes one stored codeword.  As long as no struck word
//! changes a loaded value, a load's timing or a line's residency, a seed's
//! run performs exactly the fault-free run's accesses, and it differs from
//! it only in a few words.  A [`SeedOverlays`] set rides a fault-free
//! [`MemorySystem`](crate::MemorySystem), driven by a simulation or by the
//! replay of a recording ([`crate::ReplayMemory`]), and keeps, per seed,
//! just those words:
//!
//! * **flips** — the codeword flips pending on a DL1-resident word
//!   ([`FlipPlan`]), drawn at every injection opportunity against the
//!   shared fault-free DL1 with the same random draws a per-seed campaign
//!   makes, and recorded instead of applied.  A commit at which strikes are
//!   due snapshots the DL1's valid lines once, and every due seed draws
//!   against that snapshot;
//! * **XORs** — how the seed's newest copy of a word differs from the
//!   fault-free one, wherever the word lives (a DL1 line, the L2, memory).
//!
//! At each DL1 touch point the overlay resolves its words through the
//! cache's own per-word decode (`decode_stored`): the seed's codeword is
//! the fault-free word plus its XOR, encoded, with its flips applied.
//!
//! * A load whose decode corrects an error counts the correction and
//!   scrubs the word back to the fault-free codeword.
//! * A store merge counts its decode outcome and re-encodes the word; the
//!   bytes it keeps from a wrong decode become an XOR.
//! * A fill eviction drops the victim's flips: a clean victim's copy below
//!   is intact, and a dirty one writes back its decoded words, whose
//!   difference becomes an XOR.
//! * The end-of-run drain writes back every dirty line the same way; each
//!   surviving XOR then moves the memory checksum, a wrapping sum of
//!   per-word hashes, by the difference of its word's two hashes.
//!
//! A seed whose overlay cannot prove itself neutral *escapes*
//! ([`EscapeReason`]) and stops tracking: a load whose value or ECC outcome
//! would differ (a silent corruption, an uncorrectable read, any detected
//! error under speculate-and-flush), or a write-through store that would
//! merge a wrong value into the DL1 copy only.  Its caller simulates it
//! alone.
//!
//! Overlays strike core 0's data array: the uniprocessor's only core, and
//! the observed core of an N-core campaign cell, which alone carries the
//! cell's fault campaign.  On an N-core hierarchy every hook above reacts
//! to core 0 only, and a load or store by any other core to a DL1 line
//! where a seed holds live words escapes the seed
//! ([`EscapeReason::Remote`]): every snoop, supply, invalidation or bus
//! update that could carry the seed's words between caches starts with such
//! an access.  The checksum deltas settle against the final memory image,
//! after every core drained.  The campaign engines attach no overlays to a
//! metadata-target campaign or a forensic run.
//!
//! After warm-up the overlays allocate nothing per access or per strike.

use laec_ecc::{Codeword, Decoded, EccCode, FlipPlan};

use crate::cache::{decode_stored, expand_byte_mask, Cache};
use crate::config::WritePolicy;
use crate::fault::{FaultCampaign, FaultCampaignConfig, FaultTarget};
use crate::memory::{word_hash, MainMemory};

/// Word buckets of the live-word filter: a DL1's worth of words (16 KiB),
/// so words resident together rarely share one.
const WORD_BUCKETS: usize = 4096;
/// Line buckets of the live-word filter.
const LINE_BUCKETS: usize = 512;
/// The core whose DL1 the seeds strike (see the module docs).
const STRUCK_CORE: usize = 0;

/// Why a seed left its overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EscapeReason {
    /// A load would read a different value: a silent corruption, or a word
    /// whose newest copy the seed holds wrong.
    LoadValue,
    /// A load would read an uncorrectable word: refetch or data loss.
    Uncorrectable,
    /// A load would observe an ECC error the scheme pays for in cycles
    /// (speculate-and-flush's recovery penalty).
    SchemeTiming,
    /// A write-through store would merge a wrong value into the DL1 copy
    /// while the L2 copy takes the right one.
    Merge,
    /// Another core loaded or stored into a DL1 line where the seed holds
    /// live words.
    Remote,
}

impl EscapeReason {
    /// The stable label the engine counters use.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EscapeReason::LoadValue => "load_value",
            EscapeReason::Uncorrectable => "uncorrectable",
            EscapeReason::SchemeTiming => "scheme_timing",
            EscapeReason::Merge => "merge",
            EscapeReason::Remote => "remote",
        }
    }
}

/// What a seed that stayed in its overlay to the end adds to the
/// fault-free run it rode: with these counters, the run's result is the
/// seed's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlayReport {
    /// Faults injected into resident DL1 words.
    pub faults_injected: u64,
    /// DL1 decodes that corrected an error.
    pub corrected: u64,
    /// DL1 decodes that detected an uncorrectable error (store merges: an
    /// uncorrectable read escapes).
    pub uncorrectable: u64,
    /// The seed's final memory checksum minus the fault-free one
    /// (wrapping).
    pub checksum_delta: u64,
}

/// What became of one seed's overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayOutcome {
    /// The seed stayed neutral to the end of the run.
    Served(OverlayReport),
    /// The seed escaped; only a run of its own can tell its result.
    Escaped(EscapeReason),
}

/// One word where a seed's hierarchy differs from the fault-free one.
#[derive(Debug, Clone)]
struct Word {
    address: u32,
    /// The seed's newest copy of the word XOR the fault-free one.  While
    /// the word sits in a clean DL1 line, the copy below carries the same
    /// XOR.
    xor: u32,
    /// Flips pending on the DL1 codeword; empty unless the word is
    /// resident.
    flips: FlipPlan,
}

impl Word {
    /// The seed's decode of this DL1-resident word, whose fault-free copy
    /// holds `shared`.
    fn decode(&self, shared: u32, code: &(dyn EccCode + Send + Sync)) -> Decoded {
        let mut codeword = Codeword::encode(code, u64::from(shared ^ self.xor));
        self.flips.apply(&mut codeword);
        decode_stored(codeword, self.flips.is_empty(), code)
    }
}

/// How many live words all overlays hold per bucket of word addresses and
/// per bucket of DL1 line addresses: an access to a word, or an eviction
/// of a line, whose bucket is empty skips every overlay after one load.
#[derive(Debug)]
struct Marks {
    words: Vec<u32>,
    lines: Vec<u32>,
    /// Live words over all buckets.
    live: u32,
    /// log2 of the DL1 line size.
    line_shift: u32,
}

impl Marks {
    fn word_bucket(address: u32) -> usize {
        (address >> 2) as usize & (WORD_BUCKETS - 1)
    }

    fn line_bucket(&self, address: u32) -> usize {
        (address >> self.line_shift) as usize & (LINE_BUCKETS - 1)
    }

    /// Whether some overlay may hold a word at `address`.
    fn word_hit(&self, address: u32) -> bool {
        self.words[Self::word_bucket(address)] != 0
    }

    /// Whether some overlay may hold a word in the DL1 line at `address`.
    fn line_hit(&self, address: u32) -> bool {
        self.lines[self.line_bucket(address)] != 0
    }

    fn add(&mut self, address: u32) {
        self.words[Self::word_bucket(address)] += 1;
        let line = self.line_bucket(address);
        self.lines[line] += 1;
        self.live += 1;
    }

    fn remove(&mut self, address: u32) {
        self.words[Self::word_bucket(address)] -= 1;
        let line = self.line_bucket(address);
        self.lines[line] -= 1;
        self.live -= 1;
    }
}

/// One seed: its campaign, its words and its counters.
#[derive(Debug)]
struct Overlay {
    campaign: FaultCampaign,
    words: Vec<Word>,
    corrected: u64,
    uncorrectable: u64,
    checksum_delta: u64,
    escaped: Option<EscapeReason>,
}

impl Overlay {
    fn find(&self, address: u32) -> Option<usize> {
        self.words.iter().position(|word| word.address == address)
    }

    fn count(&mut self, decoded: &Decoded) {
        if decoded.outcome.is_corrected() {
            self.corrected += 1;
        } else if decoded.outcome.is_uncorrectable() {
            self.uncorrectable += 1;
        }
    }

    fn escape(&mut self, reason: EscapeReason, marks: &mut Marks) {
        self.escaped = Some(reason);
        for word in self.words.drain(..) {
            marks.remove(word.address);
        }
    }

    /// Drops word `index` once it no longer differs from the fault-free
    /// hierarchy.
    fn settle_word(&mut self, index: usize, marks: &mut Marks) {
        let word = &self.words[index];
        if word.xor == 0 && word.flips.is_empty() {
            marks.remove(word.address);
            self.words.swap_remove(index);
        }
    }
}

/// The fault seeds one fault-free run carries on core 0 (see the module
/// docs).  Attach with
/// [`MemorySystem::attach_overlays`](crate::MemorySystem::attach_overlays)
/// before the run; once every core drained, take them back with
/// [`MemorySystem::take_overlays`](crate::MemorySystem::take_overlays),
/// and [`SeedOverlays::outcomes`] tells what became of each seed.
#[derive(Debug)]
pub struct SeedOverlays {
    overlays: Vec<Overlay>,
    marks: Marks,
    /// The scheme pays a flush penalty on any detected error.
    flush_on_error: bool,
    /// Commits since the campaigns last counted their opportunities.
    elapsed: u64,
    /// Commits from then until the first campaign's next strike is due
    /// (`u64::MAX`: none will be): the commits in between cost one
    /// comparison.
    next_due: u64,
    /// The DL1's valid lines at the latest strike commit.
    slots: Vec<usize>,
}

impl SeedOverlays {
    /// One overlay per data-array campaign in `campaigns`, in order.
    /// `flush_on_error` marks a scheme that pays cycles for any detected
    /// ECC error (speculate-and-flush), whose seeds escape on the first
    /// such load.
    ///
    /// # Panics
    ///
    /// Panics if a campaign strikes coherence metadata: overlays track data
    /// words only.
    #[must_use]
    pub fn new(campaigns: &[FaultCampaignConfig], flush_on_error: bool) -> Self {
        assert!(
            campaigns.iter().all(|c| c.target == FaultTarget::Data),
            "seed overlays track data-array strikes only"
        );
        SeedOverlays {
            overlays: campaigns
                .iter()
                .map(|&config| Overlay {
                    campaign: FaultCampaign::new(config),
                    words: Vec::new(),
                    corrected: 0,
                    uncorrectable: 0,
                    checksum_delta: 0,
                    escaped: None,
                })
                .collect(),
            marks: Marks {
                words: vec![0; WORD_BUCKETS],
                lines: vec![0; LINE_BUCKETS],
                live: 0,
                line_shift: 0,
            },
            flush_on_error,
            elapsed: 0,
            next_due: campaigns
                .iter()
                .filter(|c| c.interval != 0)
                .map(|c| c.interval)
                .min()
                .unwrap_or(u64::MAX),
            slots: Vec::new(),
        }
    }

    /// Sizes the live-word filter's buckets to DL1 lines of `line_bytes`.
    pub(crate) fn fit_lines(&mut self, line_bytes: u32) {
        self.marks.line_shift = line_bytes.trailing_zeros();
    }

    /// What became of each seed, in the order of the campaigns given to
    /// [`SeedOverlays::new`].  Meaningful once every core drained and the
    /// hierarchy handed the overlays back.
    pub fn outcomes(&self) -> impl Iterator<Item = OverlayOutcome> + '_ {
        self.overlays.iter().map(|overlay| match overlay.escaped {
            Some(reason) => OverlayOutcome::Escaped(reason),
            None => OverlayOutcome::Served(OverlayReport {
                faults_injected: overlay.campaign.report().injected,
                corrected: overlay.corrected,
                uncorrectable: overlay.uncorrectable,
                checksum_delta: overlay.checksum_delta,
            }),
        })
    }

    /// `count` instructions `core` committed in a row (a simulation commits
    /// one at a time, a replay a recorded run at once).  On core 0 they are
    /// an injection opportunity each for every seed still in its
    /// overlay, with a strike at every due commit, against the fault-free
    /// `dl1` as it stands.
    #[inline]
    pub(crate) fn commit(&mut self, core: usize, mut count: u64, dl1: &Cache) {
        if core != STRUCK_CORE {
            return;
        }
        while self.next_due - self.elapsed <= count {
            count -= self.next_due - self.elapsed;
            self.elapsed = self.next_due;
            self.strike(dl1);
        }
        self.elapsed += count;
    }

    /// The commit a campaign's strike is due at: every seed still in its
    /// overlay counts the opportunities since the last visit, and the due
    /// ones strike, all against one snapshot of the DL1's valid lines.
    fn strike(&mut self, dl1: &Cache) {
        let elapsed = std::mem::take(&mut self.elapsed);
        self.next_due = u64::MAX;
        dl1.valid_slots(&mut self.slots);
        for overlay in &mut self.overlays {
            if overlay.escaped.is_some() {
                continue;
            }
            let strike = overlay.campaign.maybe_draw(elapsed, dl1, &self.slots);
            if let Some(until_due) = overlay.campaign.until_due() {
                self.next_due = self.next_due.min(until_due);
            }
            let Some((address, plan)) = strike else {
                continue;
            };
            let index = overlay.find(address).unwrap_or_else(|| {
                self.marks.add(address);
                overlay.words.push(Word {
                    address,
                    xor: 0,
                    flips: FlipPlan::new(),
                });
                overlay.words.len() - 1
            });
            let word = &mut overlay.words[index];
            for (target, bit) in plan.iter() {
                word.flips.push(target, bit);
            }
            // A second strike can undo the first.
            overlay.settle_word(index, &mut self.marks);
        }
    }

    /// `core`'s load of `address`, which returned `shared` from the
    /// fault-free hierarchy (a DL1 hit, or the refill of a miss); `dl1` is
    /// `core`'s.
    #[inline]
    pub(crate) fn load(&mut self, core: usize, dl1: &Cache, address: u32, shared: u32) {
        if self.marks.live == 0 {
            return;
        }
        if core != STRUCK_CORE {
            self.remote(address);
        } else if self.marks.word_hit(address) {
            self.resolve_load(dl1, address, shared);
        }
    }

    /// An access by a core other than core 0 to `address`.
    #[inline]
    fn remote(&mut self, address: u32) {
        if self.marks.line_hit(address) {
            self.resolve_remote(address);
        }
    }

    /// Every seed holding a live word in the DL1 line of `address` escapes:
    /// whatever the access does to that line (a snoop, a supply, an
    /// invalidation, a bus update) could move the seed's words between
    /// caches.
    fn resolve_remote(&mut self, address: u32) {
        let shift = self.marks.line_shift;
        for overlay in &mut self.overlays {
            if overlay
                .words
                .iter()
                .any(|word| (word.address ^ address) >> shift == 0)
            {
                overlay.escape(EscapeReason::Remote, &mut self.marks);
            }
        }
    }

    fn resolve_load(&mut self, dl1: &Cache, address: u32, shared: u32) {
        let code = dl1.code();
        for overlay in &mut self.overlays {
            let Some(index) = overlay.find(address) else {
                continue;
            };
            let word = &overlay.words[index];
            let decoded = word.decode(shared, code);
            let escape = if self.flush_on_error && decoded.outcome.is_error() {
                Some(EscapeReason::SchemeTiming)
            } else if decoded.outcome.is_uncorrectable() {
                Some(EscapeReason::Uncorrectable)
            } else if decoded.data as u32 != shared || word.xor != 0 {
                Some(EscapeReason::LoadValue)
            } else {
                None
            };
            if let Some(reason) = escape {
                overlay.escape(reason, &mut self.marks);
            } else if decoded.outcome.is_corrected() {
                // The scrub re-encodes the fault-free word.
                overlay.count(&decoded);
                overlay.words[index].flips = FlipPlan::new();
                overlay.settle_word(index, &mut self.marks);
            }
        }
    }

    /// `core`'s store of the bytes `byte_mask` selects to `address`, before
    /// it merges into `dl1`, `core`'s (or, on a miss, into the copy it
    /// fetches or forwards to).
    #[inline]
    pub(crate) fn store(&mut self, core: usize, dl1: &Cache, address: u32, byte_mask: u8) {
        if self.marks.live == 0 {
            return;
        }
        if core != STRUCK_CORE {
            self.remote(address);
        } else if self.marks.word_hit(address) {
            self.resolve_store(dl1, address, byte_mask);
        }
    }

    fn resolve_store(&mut self, dl1: &Cache, address: u32, byte_mask: u8) {
        let code = dl1.code();
        let kept = !expand_byte_mask(byte_mask);
        let write_through = dl1.config().write_policy == WritePolicy::WriteThrough;
        let resident = dl1.peek_word(address);
        for overlay in &mut self.overlays {
            let Some(index) = overlay.find(address) else {
                continue;
            };
            // The copy below keeps its XOR in the bytes the store keeps.
            let below = overlay.words[index].xor & kept;
            let merged = match resident {
                Some(shared) => {
                    let decoded = overlay.words[index].decode(shared, code);
                    overlay.count(&decoded);
                    (decoded.data as u32 ^ shared) & kept
                }
                None => below,
            };
            if write_through && merged != below {
                overlay.escape(EscapeReason::Merge, &mut self.marks);
                continue;
            }
            let word = &mut overlay.words[index];
            word.xor = merged;
            word.flips = FlipPlan::new();
            overlay.settle_word(index, &mut self.marks);
        }
    }

    /// A fill of the line holding `address` into `dl1`, `core`'s, before it
    /// evicts its victim.
    #[inline]
    pub(crate) fn evict(&mut self, core: usize, dl1: &Cache, address: u32) {
        if self.marks.live == 0 || core != STRUCK_CORE {
            return;
        }
        if let Some(victim) = dl1.victim_probe(address) {
            if self.marks.line_hit(victim) {
                self.leave_dl1(dl1, victim, dl1.config().line_bytes);
            }
        }
    }

    /// The end-of-run drain of `dl1`, `core`'s, before it writes its dirty
    /// lines back.
    pub(crate) fn drain(&mut self, core: usize, dl1: &Cache) {
        if self.marks.live != 0 && core == STRUCK_CORE {
            self.leave_dl1(dl1, 0, u32::MAX);
        }
    }

    /// The words in `[base, base + bytes)` leave `dl1`: a dirty line's
    /// decoded words go below, where any difference becomes an XOR; every
    /// pending flip is dropped with the DL1 copy.
    fn leave_dl1(&mut self, dl1: &Cache, base: u32, bytes: u32) {
        let code = dl1.code();
        let marks = &mut self.marks;
        for overlay in &mut self.overlays {
            overlay.words.retain_mut(|word| {
                if word.flips.is_empty() || word.address.wrapping_sub(base) >= bytes {
                    return true;
                }
                if dl1.coherence_state(word.address).is_dirty() {
                    if let Some(shared) = dl1.peek_word(word.address) {
                        word.xor = word.decode(shared, code).data as u32 ^ shared;
                    }
                }
                word.flips = FlipPlan::new();
                if word.xor == 0 {
                    marks.remove(word.address);
                }
                word.xor != 0
            });
        }
    }

    /// Once every core drained: each seed's checksum delta over the final
    /// `memory`.
    pub(crate) fn settle(&mut self, memory: &MainMemory) {
        for overlay in &mut self.overlays {
            overlay.checksum_delta = overlay.words.iter().fold(0u64, |delta, word| {
                let fault_free = memory.peek_word(word.address);
                delta
                    .wrapping_add(word_hash(word.address, fault_free ^ word.xor))
                    .wrapping_sub(word_hash(word.address, fault_free))
            });
        }
    }
}
