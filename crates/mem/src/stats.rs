//! Event counters for the memory hierarchy.

use std::fmt;
use std::ops::{Add, AddAssign};

use laec_ecc::EccStats;

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Lines filled from the next level.
    pub fills: u64,
    /// Lines evicted (any state).
    pub evictions: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
    /// ECC decode outcomes observed on reads.
    pub ecc: EccStats,
}

impl CacheStats {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Total read accesses.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.read_hits + self.read_misses
    }

    /// Total write accesses.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.write_hits + self.write_misses
    }

    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Read hit rate in `[0,1]` (1.0 when there were no reads).
    #[must_use]
    pub fn read_hit_rate(&self) -> f64 {
        if self.reads() == 0 {
            1.0
        } else {
            self.read_hits as f64 / self.reads() as f64
        }
    }

    /// Overall hit rate in `[0,1]` (1.0 when there were no accesses).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            (self.read_hits + self.write_hits) as f64 / self.accesses() as f64
        }
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            read_hits: self.read_hits + rhs.read_hits,
            read_misses: self.read_misses + rhs.read_misses,
            write_hits: self.write_hits + rhs.write_hits,
            write_misses: self.write_misses + rhs.write_misses,
            fills: self.fills + rhs.fills,
            evictions: self.evictions + rhs.evictions,
            writebacks: self.writebacks + rhs.writebacks,
            ecc: self.ecc + rhs.ecc,
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads {}/{} hits, writes {}/{} hits, fills {}, evictions {} ({} dirty)",
            self.read_hits,
            self.reads(),
            self.write_hits,
            self.writes(),
            self.fills,
            self.evictions,
            self.writebacks
        )
    }
}

/// Counters for the whole hierarchy as seen by one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// DL1 counters.
    pub dl1: CacheStats,
    /// L2 counters (this core's share).
    pub l2: CacheStats,
    /// Bus transactions issued by this core.
    pub bus_transactions: u64,
    /// Cycles this core's requests spent waiting for the bus (arbitration).
    pub bus_wait_cycles: u64,
    /// Accesses that went all the way to main memory.
    pub memory_accesses: u64,
    /// Stores that were absorbed by the write buffer.
    pub write_buffer_enqueues: u64,
    /// Remote-cache lookups this core's bus transactions triggered (every
    /// coherent bus transaction probes the other cores' DL1 tag arrays).
    pub snoop_lookups: u64,
    /// Remote copies this core's write intents invalidated.
    pub invalidations_sent: u64,
    /// Local copies invalidated by other cores' write intents.
    pub invalidations_received: u64,
    /// Dirty lines supplied cache-to-cache to this core's requests
    /// (Modified interventions).
    pub interventions: u64,
    /// Bus-update payloads this core's writes broadcast into remote copies
    /// (Dragon's `BusUpd`; always zero under the invalidate-based
    /// protocols).
    pub bus_updates_sent: u64,
    /// Cycles in which the write buffer was full and stalled a store.
    pub write_buffer_full_stalls: u64,
    /// Loads that had to wait for the write buffer to drain.
    pub write_buffer_drain_stalls: u64,
}

impl MemStats {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        MemStats::default()
    }
}

/// System-wide coherence-protocol event counters (all zero on one core).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Remote DL1 tag lookups triggered by bus transactions.
    pub snoop_lookups: u64,
    /// Copies invalidated by remote write intents (BusRdX/BusUpgr and
    /// write-through propagation).
    pub invalidations: u64,
    /// Dirty lines supplied cache-to-cache (owner → requester).
    pub interventions: u64,
    /// Stores to `Shared` lines that had to broadcast an upgrade first.
    pub upgrades: u64,
    /// Bus-update payloads delivered into remote copies (Dragon's BusUpd;
    /// zero under the invalidate-based protocols).
    pub bus_updates: u64,
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DL1: {}", self.dl1)?;
        writeln!(f, "L2 : {}", self.l2)?;
        write!(
            f,
            "bus: {} transactions ({} wait cycles), memory: {} accesses",
            self.bus_transactions, self.bus_wait_cycles, self.memory_accesses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_accesses() {
        let stats = CacheStats::new();
        assert_eq!(stats.read_hit_rate(), 1.0);
        assert_eq!(stats.hit_rate(), 1.0);
        assert_eq!(stats.accesses(), 0);
    }

    #[test]
    fn rates_and_totals() {
        let stats = CacheStats {
            read_hits: 90,
            read_misses: 10,
            write_hits: 40,
            write_misses: 10,
            ..CacheStats::default()
        };
        assert_eq!(stats.reads(), 100);
        assert_eq!(stats.writes(), 50);
        assert_eq!(stats.accesses(), 150);
        assert!((stats.read_hit_rate() - 0.9).abs() < 1e-12);
        assert!((stats.hit_rate() - 130.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn addition_accumulates() {
        let a = CacheStats {
            read_hits: 1,
            fills: 2,
            ..CacheStats::default()
        };
        let b = CacheStats {
            read_hits: 3,
            writebacks: 1,
            ..CacheStats::default()
        };
        let sum = a + b;
        assert_eq!(sum.read_hits, 4);
        assert_eq!(sum.fills, 2);
        assert_eq!(sum.writebacks, 1);
        let mut c = a;
        c += b;
        assert_eq!(c, sum);
    }

    #[test]
    fn display_not_empty() {
        assert!(!CacheStats::new().to_string().is_empty());
        assert!(MemStats::new().to_string().contains("bus"));
    }
}
