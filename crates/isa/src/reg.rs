//! Architectural registers and the register file.

use std::fmt;

/// Number of general-purpose registers (SPARC V8 exposes a 32-register
/// window view; we model a flat file of the same size).
pub const NUM_REGS: usize = 32;

/// An architectural register index, `r0`–`r31`.
///
/// `r0` is hard-wired to zero, as on SPARC (`%g0`) and most embedded RISCs:
/// writes to it are ignored and reads always return zero.  The hazard logic
/// in `laec-pipeline` relies on this to avoid fabricating dependences on
/// `r0`.
///
/// ```
/// use laec_isa::Reg;
/// let reg = Reg::new(5);
/// assert_eq!(reg.index(), 5);
/// assert_eq!(reg.to_string(), "r5");
/// assert!(Reg::ZERO.is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The hard-wired zero register, `r0`.
    pub const ZERO: Reg = Reg(0);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(
            (index as usize) < NUM_REGS,
            "register index {index} out of range"
        );
        Reg(index)
    }

    /// Creates a register, returning `None` if the index is out of range.
    #[must_use]
    pub fn try_new(index: u8) -> Option<Self> {
        if (index as usize) < NUM_REGS {
            Some(Reg(index))
        } else {
            None
        }
    }

    /// The register's index, `0..32`.
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// `true` for the hard-wired zero register.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Iterator over all registers `r0..r31`.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..NUM_REGS as u8).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<Reg> for usize {
    fn from(reg: Reg) -> usize {
        reg.0 as usize
    }
}

/// A set of architectural registers, one bit per register — what
/// [`Instruction::uses`](crate::Instruction::uses) and
/// [`Instruction::address_uses`](crate::Instruction::address_uses) return.
/// It is `Copy` and lives in one word, so the pipeline queries it on every
/// dynamic instruction without touching the heap.
///
/// ```
/// use laec_isa::{Reg, RegSet};
/// let mut set = RegSet::EMPTY;
/// set.insert(Reg::new(4));
/// set.insert(Reg::new(1));
/// set.insert(Reg::new(4));
/// assert!(set.contains(Reg::new(1)));
/// assert!(set.iter().eq([Reg::new(1), Reg::new(4)]), "ascending order");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegSet(u32);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// Adds `reg` (a no-op if it is already present).
    pub fn insert(&mut self, reg: Reg) {
        self.0 |= 1 << reg.0;
    }

    /// `true` if `reg` is in the set.
    #[must_use]
    pub fn contains(self, reg: Reg) -> bool {
        self.0 & (1 << reg.0) != 0
    }

    /// `true` if the set holds no register.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The registers in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let index = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                Reg(index)
            })
        })
    }
}

/// The architectural register file: 32 32-bit registers with `r0` pinned to
/// zero.
///
/// ```
/// use laec_isa::{Reg, RegisterFile};
/// let mut rf = RegisterFile::new();
/// rf.write(Reg::new(3), 77);
/// assert_eq!(rf.read(Reg::new(3)), 77);
/// rf.write(Reg::ZERO, 99);
/// assert_eq!(rf.read(Reg::ZERO), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterFile {
    regs: [u32; NUM_REGS],
}

impl RegisterFile {
    /// A register file with every register cleared to zero.
    #[must_use]
    pub fn new() -> Self {
        RegisterFile {
            regs: [0; NUM_REGS],
        }
    }

    /// Reads a register (`r0` always reads zero).
    #[must_use]
    pub fn read(&self, reg: Reg) -> u32 {
        self.regs[usize::from(reg)]
    }

    /// Writes a register; writes to `r0` are discarded.
    pub fn write(&mut self, reg: Reg, value: u32) {
        if !reg.is_zero() {
            self.regs[usize::from(reg)] = value;
        }
    }

    /// A snapshot of the whole file (index 0 is always zero).
    #[must_use]
    pub fn snapshot(&self) -> [u32; NUM_REGS] {
        self.regs
    }

    /// Number of registers whose value differs from `other`.
    #[must_use]
    pub fn diff_count(&self, other: &RegisterFile) -> usize {
        self.regs
            .iter()
            .zip(other.regs.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_construction_and_bounds() {
        assert_eq!(Reg::new(0), Reg::ZERO);
        assert_eq!(Reg::new(31).index(), 31);
        assert_eq!(Reg::try_new(32), None);
        assert_eq!(Reg::try_new(7), Some(Reg::new(7)));
        assert_eq!(Reg::all().count(), 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_new_panics_out_of_range() {
        let _ = Reg::new(32);
    }

    #[test]
    fn reg_display_and_conversion() {
        assert_eq!(Reg::new(17).to_string(), "r17");
        assert_eq!(usize::from(Reg::new(9)), 9);
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::new(1).is_zero());
    }

    #[test]
    fn register_file_read_write() {
        let mut rf = RegisterFile::new();
        for reg in Reg::all() {
            assert_eq!(rf.read(reg), 0);
        }
        rf.write(Reg::new(5), 0xDEAD_BEEF);
        assert_eq!(rf.read(Reg::new(5)), 0xDEAD_BEEF);
        rf.write(Reg::ZERO, 123);
        assert_eq!(rf.read(Reg::ZERO), 0);
        assert_eq!(rf.snapshot()[0], 0);
        assert_eq!(rf.snapshot()[5], 0xDEAD_BEEF);
    }

    #[test]
    fn register_file_diff_count() {
        let mut a = RegisterFile::new();
        let b = RegisterFile::new();
        assert_eq!(a.diff_count(&b), 0);
        a.write(Reg::new(1), 1);
        a.write(Reg::new(2), 2);
        assert_eq!(a.diff_count(&b), 2);
    }
}
