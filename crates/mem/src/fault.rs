//! Soft-error campaign bookkeeping over the DL1.
//!
//! A campaign repeatedly injects bit flips into resident DL1 words while a
//! workload runs and classifies what became of each strike: masked (the word
//! was overwritten or evicted before being read), corrected, recovered by a
//! refetch from the L2 (write-through + parity), or unrecoverable (dirty data
//! in a write-back DL1 with an uncorrectable error).  The classification is
//! exactly the safety argument of the paper's §I–II: a WB DL1 *needs*
//! correction, a WT DL1 can live with detection.

use laec_ecc::{ErrorInjector, FlipPlan};

use crate::cache::Cache;
use crate::hierarchy::{draw_data_strike, MemorySystem};

/// The spatial shape of each injected strike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultPattern {
    /// Independent single-bit upsets over data + check arrays (a
    /// `double_fraction` of events strike two independent positions).
    #[default]
    SingleBit,
    /// One particle striking two *adjacent* data bits (small-geometry MBU).
    /// SEC-DED detects but never corrects these.
    Adjacent2,
    /// One particle striking four adjacent data bits (worst-case MBU
    /// cluster).  Beyond SEC-DED's guarantees: strikes may even alias to a
    /// "correctable" syndrome and silently miscorrect.
    Adjacent4,
}

impl FaultPattern {
    /// Stable label used in reports and on the CLI.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultPattern::SingleBit => "single",
            FaultPattern::Adjacent2 => "mbu2",
            FaultPattern::Adjacent4 => "mbu4",
        }
    }

    /// Parses a CLI label.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "single" | "sbu" => Some(FaultPattern::SingleBit),
            "mbu2" | "adjacent2" => Some(FaultPattern::Adjacent2),
            "mbu4" | "adjacent4" => Some(FaultPattern::Adjacent4),
            _ => None,
        }
    }

    /// Bits flipped per strike.
    #[must_use]
    pub fn cluster_bits(self) -> u32 {
        match self {
            FaultPattern::SingleBit => 1,
            FaultPattern::Adjacent2 => 2,
            FaultPattern::Adjacent4 => 4,
        }
    }
}

/// Which physical array of the DL1 a campaign strikes.
///
/// The data array is what the paper's ECC schemes protect; the metadata
/// arrays (coherence state bits and address tags) are *not* covered by the
/// per-word code on the modelled platforms, so strikes there open failure
/// modes no data-array code can see: a `Modified` line whose state bits read
/// clean silently loses its writeback, and a flipped tag bit makes the line
/// answer for the wrong address (stale or aliased reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultTarget {
    /// The ECC-protected data (+ check bit) array.
    #[default]
    Data,
    /// The per-line coherence state bits (unprotected metadata); the
    /// strike surface widens with the protocol's state lattice (2 bits
    /// under MESI, 3 under Dragon/MOESI).
    State,
    /// The per-line address tag bits (unprotected metadata).
    Tag,
}

impl FaultTarget {
    /// Stable label used in reports and on the CLI.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultTarget::Data => "data",
            FaultTarget::State => "state",
            FaultTarget::Tag => "tag",
        }
    }

    /// Parses a CLI label.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        label.parse().ok()
    }
}

impl core::fmt::Display for FaultTarget {
    /// The canonical label ([`FaultTarget::label`]); round-trips through
    /// the [`FromStr`](core::str::FromStr) impl.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The error of [`FaultTarget`]'s `FromStr`: the offending label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultTargetError {
    /// The label that named no fault target.
    pub label: String,
}

impl core::fmt::Display for ParseFaultTargetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unknown fault target `{}`", self.label)
    }
}

impl std::error::Error for ParseFaultTargetError {}

impl std::str::FromStr for FaultTarget {
    type Err = ParseFaultTargetError;

    /// Parses a canonical target label (`data`, `state`, `tag`); `mesi` is
    /// accepted as an alias for `state`.
    fn from_str(label: &str) -> Result<Self, Self::Err> {
        match label {
            "data" => Ok(FaultTarget::Data),
            "state" | "mesi" => Ok(FaultTarget::State),
            "tag" => Ok(FaultTarget::Tag),
            _ => Err(ParseFaultTargetError {
                label: label.to_string(),
            }),
        }
    }
}

/// Configuration of an injection campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultCampaignConfig {
    /// Seed of the campaign's private random source.
    pub seed: u64,
    /// Inject one fault every `interval` injection opportunities (calls to
    /// [`FaultCampaign::maybe_inject`]); 0 disables injection.
    pub interval: u64,
    /// For [`FaultPattern::SingleBit`]: fraction of injections that are
    /// double-bit (two independent positions) rather than single-bit.
    pub double_fraction: f64,
    /// Spatial shape of each strike (data-array campaigns).
    pub pattern: FaultPattern,
    /// Which DL1 array the strikes land in.
    pub target: FaultTarget,
}

impl FaultCampaignConfig {
    /// A single-bit-upset-only campaign injecting every `interval` opportunities.
    #[must_use]
    pub fn single_bit(seed: u64, interval: u64) -> Self {
        FaultCampaignConfig {
            seed,
            interval,
            double_fraction: 0.0,
            pattern: FaultPattern::SingleBit,
            target: FaultTarget::Data,
        }
    }

    /// An adjacent-bit MBU campaign with the given strike `pattern`.
    #[must_use]
    pub fn with_pattern(seed: u64, interval: u64, pattern: FaultPattern) -> Self {
        FaultCampaignConfig {
            seed,
            interval,
            double_fraction: 0.0,
            pattern,
            target: FaultTarget::Data,
        }
    }

    /// A campaign striking the given DL1 array (builder style).
    #[must_use]
    pub fn with_target(mut self, target: FaultTarget) -> Self {
        self.target = target;
        self
    }
}

impl Default for FaultCampaignConfig {
    fn default() -> Self {
        FaultCampaignConfig {
            seed: 0x000F_A117,
            interval: 1_000,
            double_fraction: 0.0,
            pattern: FaultPattern::SingleBit,
            target: FaultTarget::Data,
        }
    }
}

/// Outcome counters of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCampaignReport {
    /// Faults injected into resident DL1 words.
    pub injected: u64,
    /// Injection opportunities where the DL1 held no data (nothing injected).
    pub skipped_empty: u64,
}

/// Drives periodic fault injection into one core's DL1 of a [`MemorySystem`].
#[derive(Debug)]
pub struct FaultCampaign {
    config: FaultCampaignConfig,
    injector: ErrorInjector,
    /// Opportunities left until the next injection (a countdown rather than
    /// an opportunity counter + modulo: this runs once per simulated
    /// instruction).  Zero means injection is disabled.
    until_next: u64,
    report: FaultCampaignReport,
}

impl FaultCampaign {
    /// Creates a campaign.
    #[must_use]
    pub fn new(config: FaultCampaignConfig) -> Self {
        FaultCampaign {
            injector: ErrorInjector::new(config.seed),
            until_next: config.interval,
            config,
            report: FaultCampaignReport::default(),
        }
    }

    /// Campaign configuration.
    #[must_use]
    pub fn config(&self) -> &FaultCampaignConfig {
        &self.config
    }

    /// Called once per injection opportunity (the pipeline offers one per
    /// committed instruction); injects into `core`'s DL1 when the interval
    /// elapses.  Returns the struck address when an injection happened.
    pub fn maybe_inject(&mut self, system: &mut MemorySystem, core: usize) -> Option<u32> {
        if !self.due() {
            return None;
        }
        self.inject_now(system, core)
    }

    /// [`FaultCampaign::maybe_inject`] over `opportunities` injection
    /// opportunities, of which the caller knows only the last can be due
    /// (at most [`FaultCampaign::until_due`]), and without the apply: when
    /// a data strike is due, it is drawn against `dl1`, whose valid lines
    /// `slots` holds, with the same random draws, and the struck word's
    /// address and flips are returned instead of flipping the stored
    /// codeword.  The seed overlays ([`crate::overlay`]) strike through it.
    pub(crate) fn maybe_draw(
        &mut self,
        opportunities: u64,
        dl1: &Cache,
        slots: &[usize],
    ) -> Option<(u32, FlipPlan)> {
        if !self.advance(opportunities) {
            return None;
        }
        let strike = draw_data_strike(dl1, slots, &mut self.injector, &self.config);
        self.count(strike.is_some());
        strike
    }

    /// Injection opportunities until the next strike is due, or `None`
    /// when the campaign never strikes.
    pub(crate) fn until_due(&self) -> Option<u64> {
        (self.config.interval != 0).then_some(self.until_next)
    }

    /// Counts one injection opportunity: `true` when the interval elapsed
    /// and a strike is due.
    fn due(&mut self) -> bool {
        self.advance(1)
    }

    /// Counts `opportunities` injection opportunities, none of them due
    /// but perhaps the last: `true` when it is.
    fn advance(&mut self, opportunities: u64) -> bool {
        if self.config.interval == 0 {
            return false;
        }
        debug_assert!(opportunities <= self.until_next, "a strike was skipped");
        self.until_next -= opportunities;
        if self.until_next > 0 {
            return false;
        }
        self.until_next = self.config.interval;
        true
    }

    /// Advances `opportunities` injection opportunities at once, injecting
    /// at every interval boundary exactly as the same number of serial
    /// [`FaultCampaign::maybe_inject`] calls would — but in
    /// O(injections) rather than O(opportunities).  Trace replay uses this
    /// to burn through run-length-encoded commit runs.
    ///
    /// Returns the number of faults injected.
    pub fn maybe_inject_many(
        &mut self,
        opportunities: u64,
        system: &mut MemorySystem,
        core: usize,
    ) -> u64 {
        if self.config.interval == 0 {
            return 0;
        }
        let mut remaining = opportunities;
        let mut injected = 0;
        while remaining >= self.until_next {
            remaining -= self.until_next;
            self.until_next = self.config.interval;
            if self.inject_now(system, core).is_some() {
                injected += 1;
            }
        }
        self.until_next -= remaining;
        injected
    }

    fn inject_now(&mut self, system: &mut MemorySystem, core: usize) -> Option<u32> {
        let struck = system.inject_random_dl1_fault(core, &mut self.injector, &self.config);
        self.count(struck.is_some());
        struck
    }

    /// Counts one strike, or one opportunity that found the DL1 empty.
    fn count(&mut self, struck: bool) {
        if struck {
            self.report.injected += 1;
        } else {
            self.report.skipped_empty += 1;
        }
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn report(&self) -> FaultCampaignReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    #[test]
    fn disabled_campaign_never_injects() {
        let mut system = MemorySystem::new(HierarchyConfig::ngmp_write_back());
        system.load(0, 0x100, 0);
        let mut campaign = FaultCampaign::new(FaultCampaignConfig {
            interval: 0,
            ..FaultCampaignConfig::default()
        });
        for _ in 0..100 {
            assert!(campaign.maybe_inject(&mut system, 0).is_none());
        }
        assert_eq!(campaign.report().injected, 0);
    }

    #[test]
    fn campaign_injects_at_the_configured_interval() {
        let mut system = MemorySystem::new(HierarchyConfig::ngmp_write_back());
        system.load(0, 0x100, 0);
        let mut campaign = FaultCampaign::new(FaultCampaignConfig::single_bit(7, 10));
        let mut injections = 0;
        for _ in 0..100 {
            if campaign.maybe_inject(&mut system, 0).is_some() {
                injections += 1;
            }
        }
        assert_eq!(injections, 10);
        assert_eq!(campaign.report().injected, 10);
        assert_eq!(campaign.report().skipped_empty, 0);
    }

    #[test]
    fn empty_dl1_counts_skips() {
        let mut system = MemorySystem::new(HierarchyConfig::ngmp_write_back());
        let mut campaign = FaultCampaign::new(FaultCampaignConfig::single_bit(7, 1));
        for _ in 0..5 {
            assert!(campaign.maybe_inject(&mut system, 0).is_none());
        }
        assert_eq!(campaign.report().skipped_empty, 5);
    }

    #[test]
    fn bulk_opportunities_match_serial_opportunities_exactly() {
        // maybe_inject_many must be indistinguishable from the same number
        // of serial maybe_inject calls: same injections, same RNG stream,
        // same struck words — asserted through the systems' ECC stats after
        // reading everything back.
        let mut serial_system = MemorySystem::new(HierarchyConfig::ngmp_write_back());
        let mut bulk_system = MemorySystem::new(HierarchyConfig::ngmp_write_back());
        for i in 0..16u32 {
            serial_system.load(0, 0x4000 + 4 * i, u64::from(i));
            bulk_system.load(0, 0x4000 + 4 * i, u64::from(i));
        }
        let config = FaultCampaignConfig::single_bit(0xABCD, 7);
        let mut serial = FaultCampaign::new(config);
        let mut bulk = FaultCampaign::new(config);
        // Odd-shaped chunks, including zero and sub-interval runs.
        let chunks = [3u64, 0, 11, 7, 1, 29, 2, 47];
        let total: u64 = chunks.iter().sum();
        for _ in 0..total {
            serial.maybe_inject(&mut serial_system, 0);
        }
        let mut bulk_injected = 0;
        for chunk in chunks {
            bulk_injected += bulk.maybe_inject_many(chunk, &mut bulk_system, 0);
        }
        assert_eq!(serial.report(), bulk.report());
        assert_eq!(bulk_injected, bulk.report().injected);
        assert_eq!(serial.report().injected, total / 7);
        // Read everything back: identical ECC outcomes prove the same bits
        // were struck in the same order.
        for i in 0..16u32 {
            let address = 0x4000 + 4 * i;
            let now = 1_000 + u64::from(i);
            assert_eq!(
                serial_system.load(0, address, now).outcome,
                bulk_system.load(0, address, now).outcome
            );
        }
        assert_eq!(
            serial_system.core_stats(0).dl1.ecc,
            bulk_system.core_stats(0).dl1.ecc
        );
    }

    #[test]
    fn mbu_pattern_campaign_defeats_secded_correction() {
        let mut system = MemorySystem::new(HierarchyConfig::ngmp_write_back());
        for i in 0..8u32 {
            system.preload_word(0x5000 + 4 * i, i);
        }
        for i in 0..8u32 {
            system.load(0, 0x5000 + 4 * i, u64::from(i));
        }
        let mut campaign = FaultCampaign::new(FaultCampaignConfig::with_pattern(
            5,
            1,
            FaultPattern::Adjacent2,
        ));
        let mut uncorrectable_reads = 0;
        for round in 0..20u64 {
            let struck = campaign
                .maybe_inject(&mut system, 0)
                .expect("line resident");
            let read = system.load(0, struck, 100 * (round + 1));
            if read.outcome.is_uncorrectable() {
                uncorrectable_reads += 1;
            }
        }
        assert_eq!(campaign.report().injected, 20);
        assert_eq!(
            uncorrectable_reads, 20,
            "every adjacent double must be detected, never corrected"
        );
        assert_eq!(system.core_stats(0).dl1.ecc.corrected(), 0);
    }

    #[test]
    fn injected_faults_are_absorbed_by_secded() {
        let mut system = MemorySystem::new(HierarchyConfig::ngmp_write_back());
        for i in 0..32u32 {
            system.preload_word(0x2000 + 4 * i, i);
        }
        for i in 0..32u32 {
            system.load(0, 0x2000 + 4 * i, u64::from(i));
        }
        // Inject single-bit strikes one at a time, reading everything back
        // (and thereby scrubbing) between strikes: every strike is absorbed.
        let mut campaign = FaultCampaign::new(FaultCampaignConfig::single_bit(123, 1));
        for round in 0..50u64 {
            campaign.maybe_inject(&mut system, 0);
            for i in 0..32u32 {
                let now = 1_000 + 100 * round + u64::from(i);
                assert_eq!(system.load(0, 0x2000 + 4 * i, now).value, i);
            }
        }
        assert_eq!(campaign.report().injected, 50);
        assert_eq!(system.core_unrecoverable_errors(0), 0);
        assert!(
            system.core_stats(0).dl1.ecc.corrected() > 0,
            "some strikes were read back"
        );
    }
}
