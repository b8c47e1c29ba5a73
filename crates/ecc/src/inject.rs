//! Soft-error injection utilities.
//!
//! Fault campaigns in `laec-mem` / `laec-core` need two injection styles:
//! deterministic single/double flips at chosen positions (for directed tests
//! of the correction logic) and randomised flips following a configurable
//! single/double error mix (for statistical campaigns).  Both operate on a
//! [`Codeword`]-shaped view: a flip targets either the data
//! array or the check (ECC) array, exactly like a particle strike would.

use crate::code::Codeword;

/// Which physical array a bit flip lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionTarget {
    /// The data SRAM array.
    Data,
    /// The check-bit (ECC/parity) SRAM array.
    Check,
}

/// A concrete set of bit flips to apply to one codeword: one flip mask per
/// physical array.  Flipping a bit twice restores it, so a plan holds the
/// bits flipped an odd number of times.  The plan is two words wide, so a
/// fault campaign builds one per strike without touching the heap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlipPlan {
    data: u64,
    check: u64,
}

impl FlipPlan {
    /// An empty plan (no flips).
    #[must_use]
    pub fn new() -> Self {
        FlipPlan::default()
    }

    /// Plan with a single data-bit flip.
    #[must_use]
    pub fn single_data(bit: u32) -> Self {
        [(InjectionTarget::Data, bit)].into_iter().collect()
    }

    /// Plan with a single check-bit flip.
    #[must_use]
    pub fn single_check(bit: u32) -> Self {
        [(InjectionTarget::Check, bit)].into_iter().collect()
    }

    /// Plan with two data-bit flips (a multi-bit upset within one word).
    #[must_use]
    pub fn double_data(bit_a: u32, bit_b: u32) -> Self {
        [
            (InjectionTarget::Data, bit_a),
            (InjectionTarget::Data, bit_b),
        ]
        .into_iter()
        .collect()
    }

    /// Plan flipping `length` *adjacent* data bits starting at `start` — the
    /// footprint of a single-particle multi-bit upset (MBU) in a non-
    /// interleaved data array.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    #[must_use]
    pub fn adjacent_data(start: u32, length: u32) -> Self {
        assert!(length > 0, "an MBU cluster flips at least one bit");
        (start..start + length)
            .map(|bit| (InjectionTarget::Data, bit))
            .collect()
    }

    /// Adds one more flip to the plan (a second flip of the same bit
    /// cancels the first).
    pub fn push(&mut self, target: InjectionTarget, bit: u32) {
        match target {
            InjectionTarget::Data => self.data ^= 1u64 << bit,
            InjectionTarget::Check => self.check ^= 1u64 << bit,
        }
    }

    /// Number of flips in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.data.count_ones() + self.check.count_ones()) as usize
    }

    /// `true` if the plan contains no flips.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data == 0 && self.check == 0
    }

    /// Iterates over the planned flips: data bits, then check bits, each in
    /// ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (InjectionTarget, u32)> {
        let bits = |target: InjectionTarget, mut mask: u64| {
            std::iter::from_fn(move || {
                (mask != 0).then(|| {
                    let bit = mask.trailing_zeros();
                    mask &= mask - 1;
                    (target, bit)
                })
            })
        };
        bits(InjectionTarget::Data, self.data).chain(bits(InjectionTarget::Check, self.check))
    }

    /// Applies the plan to a codeword.
    pub fn apply(&self, codeword: &mut Codeword) {
        for (target, bit) in self.iter() {
            match target {
                InjectionTarget::Data => codeword.flip_data_bit(bit),
                InjectionTarget::Check => codeword.flip_check_bit(bit),
            }
        }
    }

    /// Applies the data-array part of the plan directly to a raw word
    /// (used when the storage has no separate check array, e.g. unprotected
    /// caches).
    #[must_use]
    pub fn apply_to_word(&self, word: u64) -> u64 {
        word ^ self.data
    }
}

impl FromIterator<(InjectionTarget, u32)> for FlipPlan {
    fn from_iter<I: IntoIterator<Item = (InjectionTarget, u32)>>(iter: I) -> Self {
        let mut plan = FlipPlan::new();
        for (target, bit) in iter {
            plan.push(target, bit);
        }
        plan
    }
}

/// A deterministic pseudo-random injector.
///
/// It uses a small xorshift generator rather than an external RNG crate so
/// the fault campaigns in every crate reproduce bit-for-bit from a seed
/// without coupling the ECC substrate to `rand`.
///
/// ```
/// use laec_ecc::{ErrorInjector, InjectionTarget};
///
/// let mut injector = ErrorInjector::new(0xC0FFEE);
/// let plan = injector.random_single(32, 7);
/// assert_eq!(plan.len(), 1);
/// let (target, bit) = plan.iter().next().unwrap();
/// match target {
///     InjectionTarget::Data => assert!(bit < 32),
///     InjectionTarget::Check => assert!(bit < 7),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorInjector {
    state: u64,
}

impl ErrorInjector {
    /// Creates an injector from a non-zero seed (a zero seed is remapped).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ErrorInjector {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw pseudo-random value (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound` (`bound` must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Multiply-shift keeps bias negligible for the tiny bounds used here.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// A random single-bit flip over a word with `data_bits` data bits and
    /// `check_bits` check bits; the struck array is chosen proportionally to
    /// its size, like real particle strikes over the physical arrays.
    pub fn random_single(&mut self, data_bits: u32, check_bits: u32) -> FlipPlan {
        let total = u64::from(data_bits + check_bits);
        let pos = self.next_below(total) as u32;
        if pos < data_bits {
            FlipPlan::single_data(pos)
        } else {
            FlipPlan::single_check(pos - data_bits)
        }
    }

    /// A random double-bit flip (two distinct positions over data+check).
    pub fn random_double(&mut self, data_bits: u32, check_bits: u32) -> FlipPlan {
        let total = data_bits + check_bits;
        let first = self.next_below(u64::from(total)) as u32;
        let mut second = self.next_below(u64::from(total - 1)) as u32;
        if second >= first {
            second += 1;
        }
        let classify = |pos: u32| {
            if pos < data_bits {
                (InjectionTarget::Data, pos)
            } else {
                (InjectionTarget::Check, pos - data_bits)
            }
        };
        [classify(first), classify(second)].into_iter().collect()
    }

    /// A random adjacent-bit MBU cluster of `cluster` bits within the data
    /// array: a uniformly placed run of flips, like one particle striking
    /// `cluster` neighbouring cells of a non-interleaved array.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is zero or wider than the data array.
    pub fn random_adjacent(&mut self, data_bits: u32, cluster: u32) -> FlipPlan {
        assert!(
            cluster > 0 && cluster <= data_bits,
            "cluster must fit the data array"
        );
        let start = self.next_below(u64::from(data_bits - cluster + 1)) as u32;
        FlipPlan::adjacent_data(start, cluster)
    }

    /// A random plan that is a single-bit flip with probability
    /// `1 - double_fraction` and a double-bit flip otherwise.
    pub fn random_event(
        &mut self,
        data_bits: u32,
        check_bits: u32,
        double_fraction: f64,
    ) -> FlipPlan {
        if self.next_bool(double_fraction) {
            self.random_double(data_bits, check_bits)
        } else {
            self.random_single(data_bits, check_bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EccCode, Hsiao39_32, Outcome};

    #[test]
    fn plan_constructors() {
        assert!(FlipPlan::new().is_empty());
        assert_eq!(FlipPlan::single_data(5).len(), 1);
        assert_eq!(FlipPlan::double_data(1, 2).len(), 2);
        let mut plan = FlipPlan::single_check(3);
        plan.push(InjectionTarget::Data, 9);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn apply_flips_codeword_and_word() {
        let code = Hsiao39_32::new();
        let mut cw = code.codeword(0xFFFF_0000);
        FlipPlan::single_data(0).apply(&mut cw);
        assert_eq!(cw.data(), 0xFFFF_0001);
        FlipPlan::single_check(2).apply(&mut cw);
        assert_eq!(cw.check(), code.encode(0xFFFF_0000) ^ 0b100);
        assert_eq!(FlipPlan::double_data(0, 4).apply_to_word(0), 0b1_0001);
        // Check-array flips do not touch a raw word.
        assert_eq!(FlipPlan::single_check(0).apply_to_word(7), 7);
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let mut a = ErrorInjector::new(42);
        let mut b = ErrorInjector::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ErrorInjector::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = ErrorInjector::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn next_below_stays_in_range() {
        let mut inj = ErrorInjector::new(7);
        for bound in [1u64, 2, 3, 7, 32, 39] {
            for _ in 0..200 {
                assert!(inj.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn random_single_hits_both_arrays_eventually() {
        let mut inj = ErrorInjector::new(2024);
        let mut data_hits = 0;
        let mut check_hits = 0;
        for _ in 0..500 {
            let plan = inj.random_single(32, 7);
            let flip = plan.iter().next().unwrap();
            match flip {
                (InjectionTarget::Data, bit) => {
                    assert!(bit < 32);
                    data_hits += 1;
                }
                (InjectionTarget::Check, bit) => {
                    assert!(bit < 7);
                    check_hits += 1;
                }
            }
        }
        assert!(data_hits > 300, "data array should take most strikes");
        assert!(check_hits > 20, "check array must be struck occasionally");
    }

    #[test]
    fn random_double_positions_are_distinct() {
        let mut inj = ErrorInjector::new(99);
        for _ in 0..300 {
            let plan = inj.random_double(32, 7);
            let flips: Vec<_> = plan.iter().collect();
            assert_eq!(flips.len(), 2);
            assert_ne!(flips[0], flips[1]);
        }
    }

    #[test]
    fn injected_singles_are_always_corrected_by_secded() {
        let code = Hsiao39_32::new();
        let mut inj = ErrorInjector::new(0xBEEF);
        let word = 0x1234_5678u64;
        for _ in 0..1000 {
            let mut cw = code.codeword(word);
            inj.random_single(32, 7).apply(&mut cw);
            let decoded = cw.decode(&code);
            assert!(decoded.outcome.is_usable());
            assert_eq!(decoded.data, word);
        }
    }

    #[test]
    fn injected_doubles_are_never_silently_accepted() {
        let code = Hsiao39_32::new();
        let mut inj = ErrorInjector::new(0xD00D);
        let word = 0x0F0F_0F0Fu64;
        for _ in 0..1000 {
            let mut cw = code.codeword(word);
            inj.random_double(32, 7).apply(&mut cw);
            let decoded = cw.decode(&code);
            assert_ne!(decoded.outcome, Outcome::Clean);
        }
    }

    #[test]
    fn adjacent_plan_covers_a_contiguous_run() {
        let plan = FlipPlan::adjacent_data(5, 4);
        let flips: Vec<_> = plan.iter().collect();
        assert_eq!(
            flips,
            vec![
                (InjectionTarget::Data, 5),
                (InjectionTarget::Data, 6),
                (InjectionTarget::Data, 7),
                (InjectionTarget::Data, 8),
            ]
        );
        assert_eq!(plan.apply_to_word(0), 0x1E0);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn empty_adjacent_cluster_is_rejected() {
        let _ = FlipPlan::adjacent_data(0, 0);
    }

    #[test]
    fn random_adjacent_clusters_stay_in_bounds() {
        let mut inj = ErrorInjector::new(31);
        for cluster in [2u32, 4] {
            for _ in 0..500 {
                let plan = inj.random_adjacent(32, cluster);
                let flips: Vec<_> = plan.iter().collect();
                assert_eq!(flips.len(), cluster as usize);
                let bits: Vec<u32> = flips.iter().map(|&(_, bit)| bit).collect();
                assert!(bits.iter().all(|&bit| bit < 32));
                assert!(bits.windows(2).all(|w| w[1] == w[0] + 1), "{bits:?}");
            }
        }
    }

    #[test]
    fn adjacent_double_mbus_are_detected_never_corrected_by_secded() {
        // SEC-DED corrects singles and *detects* doubles; an adjacent 2-bit
        // MBU must therefore always surface as detected-uncorrectable.
        let code = Hsiao39_32::new();
        let mut inj = ErrorInjector::new(0x004D_4255);
        let word = 0x5A5A_5A5Au64;
        for _ in 0..500 {
            let mut cw = code.codeword(word);
            inj.random_adjacent(32, 2).apply(&mut cw);
            let decoded = cw.decode(&code);
            assert_eq!(decoded.outcome, Outcome::DetectedDouble);
        }
    }

    #[test]
    fn random_event_mixes_singles_and_doubles() {
        let mut inj = ErrorInjector::new(5);
        let mut singles = 0;
        let mut doubles = 0;
        for _ in 0..1000 {
            match inj.random_event(32, 7, 0.3).len() {
                1 => singles += 1,
                2 => doubles += 1,
                n => panic!("unexpected plan size {n}"),
            }
        }
        assert!(
            singles > 550 && doubles > 180,
            "mix off: {singles}/{doubles}"
        );
    }
}
