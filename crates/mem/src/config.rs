//! Configuration of the memory hierarchy.
//!
//! Defaults model the NGMP (quad-core LEON4) system the paper evaluates:
//! 16 KB, 4-way, 32 B/line private data caches, a shared bus, a shared
//! write-back L2 and off-chip memory (paper §III.B and §IV).

use laec_ecc::CodeKind;

/// Write hit policy of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-through: every store is propagated to the next level.
    WriteThrough,
    /// Write-back: stores update the cache only; dirty lines are written back
    /// on eviction.
    WriteBack,
}

/// Write miss policy of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatePolicy {
    /// Fetch the line on a write miss, then write it (typical with WB).
    WriteAllocate,
    /// Forward the write to the next level without allocating (typical with WT).
    NoWriteAllocate,
}

/// Geometry, policies and protection of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (number of ways).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Write hit policy.
    pub write_policy: WritePolicy,
    /// Write miss policy.
    pub allocate_policy: AllocatePolicy,
    /// Protection code of the data array.
    pub protection: CodeKind,
}

impl CacheConfig {
    /// The paper's write-back DL1: 16 KB, 4-way, 32 B lines, SECDED.
    #[must_use]
    pub fn dl1_write_back() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 32,
            write_policy: WritePolicy::WriteBack,
            allocate_policy: AllocatePolicy::WriteAllocate,
            protection: CodeKind::Hsiao39_32,
        }
    }

    /// The production LEON4/NGMP DL1: write-through with a parity bit.
    #[must_use]
    pub fn dl1_write_through() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 32,
            write_policy: WritePolicy::WriteThrough,
            allocate_policy: AllocatePolicy::NoWriteAllocate,
            protection: CodeKind::EvenParity32,
        }
    }

    /// The instruction L1: 16 KB, 4-way, 32 B lines, parity (read-only data).
    #[must_use]
    pub fn il1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 32,
            write_policy: WritePolicy::WriteThrough,
            allocate_policy: AllocatePolicy::NoWriteAllocate,
            protection: CodeKind::EvenParity32,
        }
    }

    /// The shared L2: 256 KB, 8-way, 32 B lines, write-back, SECDED.
    #[must_use]
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            line_bytes: 32,
            write_policy: WritePolicy::WriteBack,
            allocate_policy: AllocatePolicy::WriteAllocate,
            protection: CodeKind::Hsiao39_32,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::validate`]).
    #[must_use]
    pub fn sets(&self) -> u32 {
        // laec-lint: allow(panic-in-library) -- documented panic: a geometry
        // whose size/ways/line_bytes are inconsistent has no set count; the
        // division below would silently produce one.
        self.validate().expect("invalid cache geometry");
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// The largest line size [`CacheConfig::validate`] accepts.
    pub const MAX_LINE_BYTES: u32 = 256;

    /// Number of 32-bit words per line.
    #[must_use]
    pub fn words_per_line(&self) -> u32 {
        self.line_bytes / 4
    }

    /// Checks that sizes are powers of two and divide evenly.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes < 4 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size {} must be a power of two ≥ 4",
                self.line_bytes
            ));
        }
        if self.line_bytes > Self::MAX_LINE_BYTES {
            // The per-line pristine-word bitmask in `cache::Line` and the
            // inline `LineWords` buffer cover at most 64 words; real
            // embedded caches stay well under this.
            return Err(format!(
                "line size {} exceeds the supported maximum of {} bytes",
                self.line_bytes,
                Self::MAX_LINE_BYTES
            ));
        }
        if self.ways == 0 {
            return Err("associativity must be at least 1".to_string());
        }
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(self.ways * self.line_bytes) {
            return Err(format!(
                "capacity {} is not divisible by ways*line ({})",
                self.size_bytes,
                self.ways * self.line_bytes
            ));
        }
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a power of two"));
        }
        Ok(())
    }
}

/// Latency and structural parameters of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// DL1 configuration.
    pub dl1: CacheConfig,
    /// L2 configuration.
    pub l2: CacheConfig,
    /// Cycles for one bus transfer direction (request or response).
    pub bus_latency: u32,
    /// L2 hit access latency in cycles.
    pub l2_latency: u32,
    /// Main-memory access latency in cycles.
    pub memory_latency: u32,
    /// Number of entries in the per-core store (write) buffer.
    pub write_buffer_entries: u32,
    /// Number of cores sharing the bus/L2 (the paper's NGMP has 4).
    pub cores: u32,
}

impl HierarchyConfig {
    /// The paper's evaluated configuration: WB DL1 with SECDED.
    #[must_use]
    pub fn ngmp_write_back() -> Self {
        HierarchyConfig {
            dl1: CacheConfig::dl1_write_back(),
            l2: CacheConfig::l2(),
            bus_latency: 2,
            l2_latency: 6,
            memory_latency: 20,
            write_buffer_entries: 8,
            cores: 4,
        }
    }

    /// The production NGMP configuration: WT DL1 with parity, SECDED L2.
    #[must_use]
    pub fn ngmp_write_through() -> Self {
        HierarchyConfig {
            dl1: CacheConfig::dl1_write_through(),
            ..Self::ngmp_write_back()
        }
    }

    /// Total DL1 miss penalty for an L2 hit (request + L2 + response), the
    /// number of extra cycles a blocking load waits.
    #[must_use]
    pub fn l2_hit_penalty(&self) -> u32 {
        2 * self.bus_latency + self.l2_latency
    }

    /// Total DL1 miss penalty when the access also misses in L2.
    #[must_use]
    pub fn memory_penalty(&self) -> u32 {
        self.l2_hit_penalty() + self.memory_latency
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::ngmp_write_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dl1_geometry() {
        let dl1 = CacheConfig::dl1_write_back();
        assert_eq!(dl1.sets(), 128);
        assert_eq!(dl1.words_per_line(), 8);
        assert_eq!(dl1.write_policy, WritePolicy::WriteBack);
        assert_eq!(dl1.protection, CodeKind::Hsiao39_32);
        assert!(dl1.validate().is_ok());
    }

    #[test]
    fn production_dl1_uses_parity_write_through() {
        let dl1 = CacheConfig::dl1_write_through();
        assert_eq!(dl1.write_policy, WritePolicy::WriteThrough);
        assert_eq!(dl1.allocate_policy, AllocatePolicy::NoWriteAllocate);
        assert_eq!(dl1.protection, CodeKind::EvenParity32);
    }

    #[test]
    fn l2_is_bigger_and_secded() {
        let l2 = CacheConfig::l2();
        assert_eq!(l2.sets(), 1024);
        assert_eq!(l2.protection, CodeKind::Hsiao39_32);
        assert!(l2.size_bytes > CacheConfig::dl1_write_back().size_bytes);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut config = CacheConfig::dl1_write_back();
        config.line_bytes = 24;
        assert!(config.validate().is_err());
        config.line_bytes = 32;
        config.ways = 0;
        assert!(config.validate().is_err());
        config.ways = 3;
        config.size_bytes = 16 * 1024;
        assert!(
            config.validate().is_err(),
            "set count must be a power of two"
        );
        config.ways = 4;
        config.size_bytes = 1000;
        assert!(config.validate().is_err());
        // Lines wider than 64 words would overflow the per-line pristine
        // bitmask; validation must reject them up front.
        let mut config = CacheConfig::dl1_write_back();
        config.line_bytes = 512;
        config.size_bytes = 64 * 1024;
        assert!(config.validate().is_err(), "512 B lines are out of range");
        config.line_bytes = 256;
        assert!(config.validate().is_ok(), "256 B (64 words) is the maximum");
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn sets_panics_on_invalid_geometry() {
        let mut config = CacheConfig::dl1_write_back();
        config.line_bytes = 3;
        let _ = config.sets();
    }

    #[test]
    fn hierarchy_penalties() {
        let config = HierarchyConfig::ngmp_write_back();
        assert_eq!(config.l2_hit_penalty(), 10);
        assert_eq!(config.memory_penalty(), 30);
        assert_eq!(config.cores, 4);
        assert_eq!(HierarchyConfig::default(), config);
        let wt = HierarchyConfig::ngmp_write_through();
        assert_eq!(wt.dl1.write_policy, WritePolicy::WriteThrough);
        assert_eq!(wt.l2, config.l2);
    }
}
