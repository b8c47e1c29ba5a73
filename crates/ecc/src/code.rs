//! Common abstractions shared by every code in the crate.
//!
//! The central item is the [`EccCode`] trait: a code maps a data word of up to
//! 64 bits to a small set of check bits, and can later combine a (possibly
//! corrupted) data word with its stored check bits to produce a [`Decoded`]
//! result.  Cache models store the check bits alongside the data array exactly
//! like a hardware ECC array would.

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Identifies a code family and geometry without carrying the code itself.
///
/// Used in configuration structs (`laec-mem`, `laec-core`) where the concrete
/// code object is constructed later.
///
/// ```
/// use laec_ecc::CodeKind;
/// assert_eq!(CodeKind::Hsiao39_32.check_bits(), 7);
/// assert!(CodeKind::Hsiao39_32.corrects_single());
/// assert!(!CodeKind::EvenParity32.corrects_single());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeKind {
    /// No protection at all (the ideal, error-free baseline of the paper).
    None,
    /// A single even-parity bit over a 32-bit word (detection only).
    EvenParity32,
    /// One even-parity bit per byte of a 32-bit word (detection only).
    ByteParity32,
    /// Extended Hamming SEC-DED over 32 data bits (7 check bits).
    Hamming39_32,
    /// Hsiao odd-weight-column SEC-DED over 32 data bits (7 check bits).
    Hsiao39_32,
    /// Hsiao odd-weight-column SEC-DED over 64 data bits (8 check bits).
    Hsiao72_64,
}

impl CodeKind {
    /// Number of data bits the code protects.
    #[must_use]
    pub fn data_bits(self) -> u32 {
        match self {
            CodeKind::None
            | CodeKind::EvenParity32
            | CodeKind::ByteParity32
            | CodeKind::Hamming39_32
            | CodeKind::Hsiao39_32 => 32,
            CodeKind::Hsiao72_64 => 64,
        }
    }

    /// Number of redundant check bits stored per protected word.
    #[must_use]
    pub fn check_bits(self) -> u32 {
        match self {
            CodeKind::None => 0,
            CodeKind::EvenParity32 => 1,
            CodeKind::ByteParity32 => 4,
            CodeKind::Hamming39_32 | CodeKind::Hsiao39_32 => 7,
            CodeKind::Hsiao72_64 => 8,
        }
    }

    /// `true` if the code can *correct* a single-bit error (SEC capability).
    #[must_use]
    pub fn corrects_single(self) -> bool {
        matches!(
            self,
            CodeKind::Hamming39_32 | CodeKind::Hsiao39_32 | CodeKind::Hsiao72_64
        )
    }

    /// `true` if the code can at least *detect* a single-bit error.
    #[must_use]
    pub fn detects_single(self) -> bool {
        !matches!(self, CodeKind::None)
    }

    /// Storage overhead of the code relative to the protected data
    /// (check bits / data bits).
    #[must_use]
    pub fn storage_overhead(self) -> f64 {
        f64::from(self.check_bits()) / f64::from(self.data_bits())
    }

    /// Instantiates the code this kind describes.
    ///
    /// ```
    /// use laec_ecc::{CodeKind, Outcome};
    /// let code = CodeKind::Hsiao39_32.instantiate();
    /// let check = code.encode(0xABCD);
    /// assert_eq!(code.decode(0xABCD, check).outcome, Outcome::Clean);
    /// ```
    #[must_use]
    pub fn instantiate(self) -> Box<dyn EccCode + Send + Sync> {
        match self {
            CodeKind::None => Box::new(NoCode::new(32)),
            CodeKind::EvenParity32 => Box::new(crate::parity::Parity::even32()),
            CodeKind::ByteParity32 => Box::new(crate::parity::ByteParity::even32()),
            CodeKind::Hamming39_32 => {
                // laec-lint: allow(panic-in-library) -- Hamming::new only
                // rejects unsupported widths; 32 is the canonical geometry
                // and is covered by tier-1 construction tests.
                Box::new(crate::hamming::Hamming::new(32).expect("canonical geometry"))
            }
            CodeKind::Hsiao39_32 => Box::new(crate::hsiao::Hsiao39_32::new()),
            CodeKind::Hsiao72_64 => Box::new(crate::hsiao::Hsiao72_64::new()),
        }
    }

    /// The one shared instance of the code this kind describes, built on
    /// first use.  Codes are immutable, so every cache protected by the
    /// same kind can share one instead of rebuilding it (a Hsiao code
    /// enumerates and sorts its columns when built).
    ///
    /// ```
    /// use laec_ecc::CodeKind;
    /// let code = CodeKind::Hsiao39_32.shared();
    /// assert_eq!(code.kind(), CodeKind::Hsiao39_32);
    /// assert!(std::ptr::addr_eq(code, CodeKind::Hsiao39_32.shared()));
    /// ```
    #[must_use]
    pub fn shared(self) -> &'static (dyn EccCode + Send + Sync) {
        static CODES: OnceLock<Vec<Box<dyn EccCode + Send + Sync>>> = OnceLock::new();
        let codes = CODES.get_or_init(|| CodeKind::all().iter().map(|k| k.instantiate()).collect());
        // `all` lists the kinds in declaration order (pinned by a test).
        codes[self as usize].as_ref()
    }

    /// All kinds, useful for sweeps and exhaustive tests.
    #[must_use]
    pub fn all() -> &'static [CodeKind] {
        &[
            CodeKind::None,
            CodeKind::EvenParity32,
            CodeKind::ByteParity32,
            CodeKind::Hamming39_32,
            CodeKind::Hsiao39_32,
            CodeKind::Hsiao72_64,
        ]
    }
}

impl fmt::Display for CodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CodeKind::None => "none",
            CodeKind::EvenParity32 => "even-parity(33,32)",
            CodeKind::ByteParity32 => "byte-parity(36,32)",
            CodeKind::Hamming39_32 => "hamming(39,32)",
            CodeKind::Hsiao39_32 => "hsiao(39,32)",
            CodeKind::Hsiao72_64 => "hsiao(72,64)",
        };
        f.write_str(name)
    }
}

/// Error produced when a code is asked to handle data it cannot represent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The data word uses more bits than the code protects.
    DataTooWide {
        /// Bits the code protects.
        data_bits: u32,
        /// The offending value.
        value: u64,
    },
    /// The supplied check bits use more bits than the code produces.
    CheckTooWide {
        /// Check bits the code produces.
        check_bits: u32,
        /// The offending value.
        value: u64,
    },
    /// A code geometry that cannot be constructed (e.g. more data bits than
    /// distinct odd-weight columns available).
    UnconstructibleGeometry {
        /// Requested data bits.
        data_bits: u32,
        /// Requested check bits.
        check_bits: u32,
    },
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::DataTooWide { data_bits, value } => {
                write!(f, "data value {value:#x} exceeds {data_bits} data bits")
            }
            CodeError::CheckTooWide { check_bits, value } => {
                write!(f, "check value {value:#x} exceeds {check_bits} check bits")
            }
            CodeError::UnconstructibleGeometry {
                data_bits,
                check_bits,
            } => write!(
                f,
                "cannot build a SEC-DED code with {data_bits} data bits and {check_bits} check bits"
            ),
        }
    }
}

impl Error for CodeError {}

/// Result of checking a word against its stored check bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Syndrome was zero: the word is error free (or an undetectable
    /// multi-bit error aliased to zero, which SEC-DED cannot distinguish).
    Clean,
    /// A single-bit error in the *data* portion was located and corrected.
    CorrectedSingle {
        /// Bit index (0 = LSB) of the corrected data bit.
        bit: u32,
    },
    /// A single-bit error in the *check* portion was located; the data is
    /// untouched and still correct.
    CorrectedCheckBit {
        /// Index of the corrupted check bit.
        bit: u32,
    },
    /// A double-bit error was detected; the data cannot be trusted.
    DetectedDouble,
    /// An error was detected (non-zero syndrome) but cannot be attributed to a
    /// correctable single-bit flip; the data cannot be trusted.
    DetectedUncorrectable,
}

impl Outcome {
    /// `true` when the decoded data word can be consumed by the pipeline.
    #[must_use]
    pub fn is_usable(self) -> bool {
        matches!(
            self,
            Outcome::Clean | Outcome::CorrectedSingle { .. } | Outcome::CorrectedCheckBit { .. }
        )
    }

    /// `true` when any error (corrected or not) was observed.
    #[must_use]
    pub fn is_error(self) -> bool {
        !matches!(self, Outcome::Clean)
    }

    /// `true` when the decoder repaired an error and the data is usable —
    /// the scrub-eligible outcomes, and the "corrected" class of the fault
    /// forensics tables.
    #[must_use]
    pub fn is_corrected(self) -> bool {
        matches!(
            self,
            Outcome::CorrectedSingle { .. } | Outcome::CorrectedCheckBit { .. }
        )
    }

    /// `true` when the error is detected but not correctable.
    #[must_use]
    pub fn is_uncorrectable(self) -> bool {
        matches!(
            self,
            Outcome::DetectedDouble | Outcome::DetectedUncorrectable
        )
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Clean => f.write_str("clean"),
            Outcome::CorrectedSingle { bit } => write!(f, "corrected data bit {bit}"),
            Outcome::CorrectedCheckBit { bit } => write!(f, "corrected check bit {bit}"),
            Outcome::DetectedDouble => f.write_str("double error detected"),
            Outcome::DetectedUncorrectable => f.write_str("uncorrectable error detected"),
        }
    }
}

/// The result of decoding: the (possibly corrected) data word plus the
/// classification of what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Data after correction (meaningful only if `outcome.is_usable()`).
    pub data: u64,
    /// Classification of the decode.
    pub outcome: Outcome,
}

/// A stored codeword: data plus its check bits, as a cache data/ECC array
/// would hold them.
///
/// ```
/// use laec_ecc::{Codeword, EccCode, Hsiao39_32, Outcome};
///
/// let code = Hsiao39_32::new();
/// let mut cw = Codeword::encode(&code, 0x1234_5678);
/// cw.flip_data_bit(3);
/// assert_eq!(cw.decode(&code).outcome, Outcome::CorrectedSingle { bit: 3 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Codeword {
    data: u64,
    check: u64,
}

impl Codeword {
    /// Builds a codeword from raw stored fields (no checking performed).
    #[must_use]
    pub fn from_raw(data: u64, check: u64) -> Self {
        Codeword { data, check }
    }

    /// Encodes `data` with `code` and stores both halves.
    #[must_use]
    pub fn encode<C: EccCode + ?Sized>(code: &C, data: u64) -> Self {
        Codeword {
            data,
            check: code.encode(data),
        }
    }

    /// Stored (possibly corrupted) data bits.
    #[must_use]
    pub fn data(&self) -> u64 {
        self.data
    }

    /// Stored (possibly corrupted) check bits.
    #[must_use]
    pub fn check(&self) -> u64 {
        self.check
    }

    /// Flips one bit of the stored data word.
    pub fn flip_data_bit(&mut self, bit: u32) {
        self.data ^= 1u64 << bit;
    }

    /// Flips one bit of the stored check word.
    pub fn flip_check_bit(&mut self, bit: u32) {
        self.check ^= 1u64 << bit;
    }

    /// Runs the decoder of `code` over the stored word.
    #[must_use]
    pub fn decode<C: EccCode + ?Sized>(&self, code: &C) -> Decoded {
        code.decode(self.data, self.check)
    }
}

/// A systematic block code protecting a data word of at most 64 bits.
///
/// Implementations must be *systematic*: `encode` returns only the check
/// bits; the data word is stored unchanged next to them.  This mirrors how
/// cache ECC arrays are organised and lets the no-protection case be modelled
/// by a code with zero check bits.
pub trait EccCode: fmt::Debug {
    /// Number of data bits protected per codeword.
    fn data_bits(&self) -> u32;

    /// Number of check bits produced per codeword.
    fn check_bits(&self) -> u32;

    /// Computes the check bits for `data`.
    ///
    /// Bits of `data` above [`EccCode::data_bits`] are ignored (masked off),
    /// matching a hardware encoder that simply does not wire them.
    fn encode(&self, data: u64) -> u64;

    /// Checks `data` against `check`, correcting what the code allows.
    fn decode(&self, data: u64, check: u64) -> Decoded;

    /// The code's [`CodeKind`], when it corresponds to one of the canonical
    /// geometries (used for reporting).
    fn kind(&self) -> CodeKind;

    /// `true` if the code can correct single-bit errors.
    fn corrects_single(&self) -> bool {
        self.kind().corrects_single()
    }

    /// Convenience: encode then immediately decode, returning the codeword.
    fn codeword(&self, data: u64) -> Codeword
    where
        Self: Sized,
    {
        Codeword::encode(self, data)
    }

    /// Mask covering the valid data bits.
    fn data_mask(&self) -> u64 {
        mask(self.data_bits())
    }

    /// Mask covering the valid check bits.
    fn check_mask(&self) -> u64 {
        mask(self.check_bits())
    }
}

/// A code with zero check bits: never detects anything.  Models the paper's
/// ideal "no-ECC" baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoCode {
    data_bits: u32,
}

impl NoCode {
    /// Creates an unprotected "code" over `data_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is zero or greater than 64.
    #[must_use]
    pub fn new(data_bits: u32) -> Self {
        assert!(
            data_bits > 0 && data_bits <= 64,
            "data width must be 1..=64"
        );
        NoCode { data_bits }
    }
}

impl EccCode for NoCode {
    fn data_bits(&self) -> u32 {
        self.data_bits
    }

    fn check_bits(&self) -> u32 {
        0
    }

    fn encode(&self, _data: u64) -> u64 {
        0
    }

    fn decode(&self, data: u64, _check: u64) -> Decoded {
        Decoded {
            data: data & self.data_mask(),
            outcome: Outcome::Clean,
        }
    }

    fn kind(&self) -> CodeKind {
        CodeKind::None
    }
}

/// Builds a bit mask with the `bits` least-significant bits set.
#[must_use]
pub(crate) fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Parity (XOR-reduction) of a 64-bit word, returned as 0 or 1.
#[must_use]
pub(crate) fn parity64(x: u64) -> u64 {
    u64::from(x.count_ones() & 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hsiao39_32;

    #[test]
    fn shared_codes_are_one_instance_per_kind_equal_to_a_fresh_one() {
        for (position, &kind) in CodeKind::all().iter().enumerate() {
            assert_eq!(kind as usize, position, "`all` is in declaration order");
            let shared = kind.shared();
            assert!(std::ptr::addr_eq(shared, kind.shared()));
            assert_eq!(shared.kind(), kind);
            let fresh = kind.instantiate();
            for data in [0, 1, 0xDEAD_BEEF, u64::from(u32::MAX)] {
                assert_eq!(shared.encode(data), fresh.encode(data), "{kind}");
            }
        }
    }

    #[test]
    fn code_kind_geometry() {
        assert_eq!(CodeKind::None.check_bits(), 0);
        assert_eq!(CodeKind::EvenParity32.check_bits(), 1);
        assert_eq!(CodeKind::ByteParity32.check_bits(), 4);
        assert_eq!(CodeKind::Hamming39_32.check_bits(), 7);
        assert_eq!(CodeKind::Hsiao39_32.check_bits(), 7);
        assert_eq!(CodeKind::Hsiao72_64.check_bits(), 8);
        assert_eq!(CodeKind::Hsiao72_64.data_bits(), 64);
    }

    #[test]
    fn code_kind_capabilities() {
        assert!(!CodeKind::None.detects_single());
        assert!(CodeKind::EvenParity32.detects_single());
        assert!(!CodeKind::EvenParity32.corrects_single());
        assert!(CodeKind::Hsiao39_32.corrects_single());
        assert!(CodeKind::Hsiao72_64.corrects_single());
    }

    #[test]
    fn code_kind_overhead_is_reasonable() {
        // SECDED over 32 bits costs 7/32 ≈ 21.9 % storage.
        let overhead = CodeKind::Hsiao39_32.storage_overhead();
        assert!((overhead - 7.0 / 32.0).abs() < 1e-12);
        // SECDED over 64 bits is cheaper per bit.
        assert!(CodeKind::Hsiao72_64.storage_overhead() < overhead);
    }

    #[test]
    fn code_kind_all_is_exhaustive_and_unique() {
        let all = CodeKind::all();
        assert_eq!(all.len(), 6);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(CodeKind::Hsiao39_32.to_string(), "hsiao(39,32)");
        assert_eq!(Outcome::Clean.to_string(), "clean");
        assert_eq!(
            Outcome::CorrectedSingle { bit: 5 }.to_string(),
            "corrected data bit 5"
        );
        let err = CodeError::DataTooWide {
            data_bits: 32,
            value: 0x1_0000_0000,
        };
        assert!(err.to_string().contains("32 data bits"));
    }

    #[test]
    fn outcome_classification() {
        assert!(Outcome::Clean.is_usable());
        assert!(!Outcome::Clean.is_error());
        assert!(Outcome::CorrectedSingle { bit: 0 }.is_usable());
        assert!(Outcome::CorrectedSingle { bit: 0 }.is_error());
        assert!(Outcome::CorrectedCheckBit { bit: 2 }.is_usable());
        assert!(!Outcome::DetectedDouble.is_usable());
        assert!(Outcome::DetectedDouble.is_uncorrectable());
        assert!(Outcome::DetectedUncorrectable.is_uncorrectable());
    }

    #[test]
    fn no_code_never_detects() {
        let code = NoCode::new(32);
        assert_eq!(code.check_bits(), 0);
        assert_eq!(code.encode(0xFFFF_FFFF), 0);
        let decoded = code.decode(0xABCD_1234, 0);
        assert_eq!(decoded.outcome, Outcome::Clean);
        assert_eq!(decoded.data, 0xABCD_1234);
        assert_eq!(code.kind(), CodeKind::None);
        assert!(!code.corrects_single());
    }

    #[test]
    #[should_panic(expected = "data width")]
    fn no_code_rejects_zero_width() {
        let _ = NoCode::new(0);
    }

    #[test]
    fn codeword_roundtrip_and_flip() {
        let code = Hsiao39_32::new();
        let mut cw = Codeword::encode(&code, 0xCAFE_BABE);
        assert_eq!(cw.data(), 0xCAFE_BABE);
        assert_eq!(cw.decode(&code).outcome, Outcome::Clean);
        cw.flip_data_bit(7);
        let decoded = cw.decode(&code);
        assert_eq!(decoded.outcome, Outcome::CorrectedSingle { bit: 7 });
        assert_eq!(decoded.data, 0xCAFE_BABE);
        // Flip it back plus a check bit; check-bit errors leave data intact.
        cw.flip_data_bit(7);
        cw.flip_check_bit(1);
        let decoded = cw.decode(&code);
        assert_eq!(decoded.outcome, Outcome::CorrectedCheckBit { bit: 1 });
        assert_eq!(decoded.data, 0xCAFE_BABE);
    }

    #[test]
    fn mask_helper() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(32), 0xFFFF_FFFF);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn parity_helper() {
        assert_eq!(parity64(0), 0);
        assert_eq!(parity64(1), 1);
        assert_eq!(parity64(0b11), 0);
        assert_eq!(parity64(u64::MAX), 0);
        assert_eq!(parity64(u64::MAX >> 1), 1);
    }
}
