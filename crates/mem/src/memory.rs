//! Flat main memory backing the cache hierarchy.
//!
//! A sparse word-addressed store with a fixed access latency.  Main memory is
//! assumed ECC-protected and error free (the paper's fault model only injects
//! into the DL1, where dirty data is vulnerable).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::cache::LineWords;

/// SplitMix64-finalised hasher for word addresses.
///
/// The word map is on the refill path of every cache miss and is populated
/// once per campaign cell; the default SipHash costs several times more
/// than the lookups themselves and buys DoS resistance this simulator does
/// not need.  The hash is a pure function of the key, so memory contents —
/// and therefore every checksum — stay deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordAddressHasher(u64);

impl Hasher for WordAddressHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(23);
        }
    }

    fn write_u32(&mut self, value: u32) {
        // SplitMix64 finaliser: full avalanche in three multiplies.
        let mut x = u64::from(value).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = x ^ (x >> 31);
    }
}

type WordMap = HashMap<u32, u32, BuildHasherDefault<WordAddressHasher>>;

/// Sparse 32-bit-word main memory.
///
/// ```
/// use laec_mem::MainMemory;
/// let mut memory = MainMemory::new(20);
/// memory.write_word(0x1000, 0xAABB_CCDD);
/// assert_eq!(memory.read_word(0x1000), 0xAABB_CCDD);
/// assert_eq!(memory.read_word(0x2000), 0, "uninitialised memory reads zero");
/// assert_eq!(memory.latency(), 20);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MainMemory {
    words: WordMap,
    latency: u32,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    /// Creates an empty memory with the given access latency (cycles).
    #[must_use]
    pub fn new(latency: u32) -> Self {
        MainMemory {
            words: WordMap::default(),
            latency,
            reads: 0,
            writes: 0,
        }
    }

    /// Access latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Pre-sizes the word map for about `words` entries (e.g. a program's
    /// data image), avoiding rehash churn during loading.
    pub fn reserve(&mut self, words: usize) {
        self.words.reserve(words);
    }

    /// Reads the aligned 32-bit word containing `address` (uninitialised
    /// locations read as zero).
    pub fn read_word(&mut self, address: u32) -> u32 {
        self.reads += 1;
        self.peek_word(address)
    }

    /// Reads without counting an access (for result checking / dumps).
    #[must_use]
    pub fn peek_word(&self, address: u32) -> u32 {
        self.words.get(&(address & !3)).copied().unwrap_or(0)
    }

    /// Writes the aligned 32-bit word containing `address`.
    pub fn write_word(&mut self, address: u32, value: u32) {
        self.writes += 1;
        self.poke_word(address, value);
    }

    /// Writes without counting an access (used for program loading).
    pub fn poke_word(&mut self, address: u32, value: u32) {
        self.words.insert(address & !3, value);
    }

    /// Reads a whole cache line of `words` 32-bit words starting at the
    /// line-aligned `base` address.
    pub fn read_line(&mut self, base: u32, words: u32) -> LineWords {
        (0..words).map(|i| self.read_word(base + 4 * i)).collect()
    }

    /// Writes a whole cache line starting at the line-aligned `base`.
    pub fn write_line(&mut self, base: u32, values: &[u32]) {
        for (i, &value) in values.iter().enumerate() {
            self.write_word(base + 4 * i as u32, value);
        }
    }

    /// Number of word reads served.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of word writes served.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of distinct words ever written.
    #[must_use]
    pub fn footprint_words(&self) -> usize {
        self.words.len()
    }

    /// A deterministic checksum over the whole memory image, used by the
    /// cross-scheme equivalence and fault-injection tests.
    ///
    /// Each (address, value) entry is hashed independently and the
    /// fingerprints are combined with a wrapping sum, so the result is
    /// iteration-order-independent without sorting — this runs once per
    /// campaign cell at drain time.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.words.iter().fold(0u64, |hash, (&address, &value)| {
            hash.wrapping_add(word_hash(address, value))
        })
    }
}

/// One word's term of [`MainMemory::checksum`].  A zero-valued word is
/// equivalent to an absent one and contributes nothing, so a changed word
/// moves the checksum by the difference of its two terms (the seed
/// overlays' checksum deltas).
pub(crate) fn word_hash(address: u32, value: u32) -> u64 {
    if value == 0 {
        return 0;
    }
    let mut x = (u64::from(address) << 32 | u64::from(value)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_and_alignment() {
        let mut memory = MainMemory::new(10);
        memory.write_word(0x103, 7);
        assert_eq!(
            memory.read_word(0x100),
            7,
            "sub-word addresses alias the aligned word"
        );
        assert_eq!(memory.reads(), 1);
        assert_eq!(memory.writes(), 1);
        assert_eq!(memory.footprint_words(), 1);
    }

    #[test]
    fn lines_round_trip() {
        let mut memory = MainMemory::new(10);
        let line = vec![1, 2, 3, 4, 5, 6, 7, 8];
        memory.write_line(0x200, &line);
        assert_eq!(memory.read_line(0x200, 8).as_slice(), line);
    }

    #[test]
    fn peek_and_poke_do_not_count() {
        let mut memory = MainMemory::new(10);
        memory.poke_word(0x40, 9);
        assert_eq!(memory.peek_word(0x40), 9);
        assert_eq!(memory.reads(), 0);
        assert_eq!(memory.writes(), 0);
    }

    #[test]
    fn checksum_ignores_zero_words_and_is_order_independent() {
        let mut a = MainMemory::new(1);
        a.poke_word(0x10, 5);
        a.poke_word(0x20, 6);
        let mut b = MainMemory::new(1);
        b.poke_word(0x20, 6);
        b.poke_word(0x10, 5);
        b.poke_word(0x30, 0);
        assert_eq!(a.checksum(), b.checksum());
        let mut c = MainMemory::new(1);
        c.poke_word(0x10, 5);
        assert_ne!(a.checksum(), c.checksum());
    }
}
