//! Shared instruction cache model.
//!
//! The PULP cluster's cores share one instruction cache (paper Fig. 2,
//! "I$"). We model a direct-mapped cache with configurable size and line
//! length: a hit costs nothing (fetch overlaps execution in the in-order
//! pipeline), a miss pays the refill-from-L2 penalty. Kernel inner loops
//! fit in the cache after the first iteration, so the model's main effect
//! is a realistic cold-start transient after each code offload.

/// Direct-mapped shared instruction cache (tag store only; data comes from
/// L2).
///
/// # Example
///
/// ```
/// use ulp_cluster::ICache;
///
/// let mut icache = ICache::new(4096, 16, 12);
/// assert_eq!(icache.access(0x1C00_0000), 12); // cold miss
/// assert_eq!(icache.access(0x1C00_0004), 0); // same line: hit
/// ```
#[derive(Clone, Debug)]
pub struct ICache {
    line_shift: u32,
    index_mask: u32,
    tags: Vec<Option<u32>>,
    miss_penalty: u32,
    // One-entry filter in front of the tag store: the line address of the
    // most recent hit or fill. Straight-line refetch streams hit here
    // without recomputing index/tag. Purely an implementation shortcut —
    // a filter hit implies the tag store already matches, so hit/miss
    // accounting and tag state are identical with or without it.
    hot_line: u32,
    hits: u64,
    misses: u64,
}

/// `hot_line` value that can never match a real line address (lines are at
/// most 2^30 because addresses are 32-bit and lines are >= 4 bytes).
const NO_HOT_LINE: u32 = u32::MAX;

impl ICache {
    /// Creates a cache of `size` bytes with `line` byte lines and the given
    /// miss penalty in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `size`/`line` are not powers of two or `line < 4`.
    #[must_use]
    pub fn new(size: usize, line: usize, miss_penalty: u32) -> Self {
        assert!(size.is_power_of_two() && line.is_power_of_two() && line >= 4);
        assert!(size >= line);
        let lines = size / line;
        ICache {
            line_shift: line.trailing_zeros(),
            index_mask: lines as u32 - 1,
            tags: vec![None; lines],
            miss_penalty,
            hot_line: NO_HOT_LINE,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `pc`; returns the extra cycles the fetch costs (0 on a hit,
    /// the miss penalty on a miss, filling the line).
    #[inline]
    pub fn access(&mut self, pc: u32) -> u32 {
        let line_addr = pc >> self.line_shift;
        if line_addr == self.hot_line {
            self.hits += 1;
            return 0;
        }
        let index = (line_addr & self.index_mask) as usize;
        let tag = line_addr >> self.index_mask.count_ones();
        if self.tags[index] == Some(tag) {
            self.hits += 1;
            self.hot_line = line_addr;
            0
        } else {
            self.misses += 1;
            self.tags[index] = Some(tag);
            self.hot_line = line_addr;
            self.miss_penalty
        }
    }

    /// Speculative look-up for the epoch engine: on a hit, counts it (and
    /// may promote the hot-line filter, which is semantically invisible —
    /// a filter hit implies a tag match) and returns `true`; on a miss it
    /// mutates *nothing* — no fill, no tag write, no miss count — and
    /// returns `false`. Misses abort the epoch, whose rollback restores the
    /// hit counter via `ICache::stats_snapshot`, so a probed-then-rolled-
    /// back sequence leaves the cache bit-identical.
    #[inline]
    pub fn probe_hit(&mut self, pc: u32) -> bool {
        let line_addr = pc >> self.line_shift;
        if line_addr == self.hot_line {
            self.hits += 1;
            return true;
        }
        let index = (line_addr & self.index_mask) as usize;
        let tag = line_addr >> self.index_mask.count_ones();
        if self.tags[index] == Some(tag) {
            self.hits += 1;
            self.hot_line = line_addr;
            true
        } else {
            false
        }
    }

    /// Snapshot of the mutable statistics a speculative epoch can touch
    /// (only hits: [`ICache::probe_hit`] never fills or counts misses).
    #[must_use]
    pub(crate) fn stats_snapshot(&self) -> u64 {
        self.hits
    }

    /// Restores a [`ICache::stats_snapshot`] after an epoch rollback.
    pub(crate) fn stats_restore(&mut self, hits: u64) {
        self.hits = hits;
    }

    /// Cache hits served.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses served.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates all lines (called after a new binary is offloaded).
    pub fn invalidate(&mut self) {
        self.tags.fill(None);
        self.hot_line = NO_HOT_LINE;
    }

    /// Resets the PMU counters.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits_within_line() {
        let mut c = ICache::new(1024, 16, 10);
        assert_eq!(c.access(0x100), 10);
        assert_eq!(c.access(0x104), 0);
        assert_eq!(c.access(0x108), 0);
        assert_eq!(c.access(0x10C), 0);
        assert_eq!(c.access(0x110), 10); // next line
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn direct_mapped_conflict_eviction() {
        let mut c = ICache::new(64, 16, 10); // 4 lines
        assert_eq!(c.access(0x00), 10);
        assert_eq!(c.access(0x40), 10); // same index, different tag: evicts
        assert_eq!(c.access(0x00), 10); // brought back
    }

    #[test]
    fn loop_body_steady_state_all_hits() {
        let mut c = ICache::new(4096, 16, 12);
        // 32-instruction loop, 100 iterations.
        let mut extra = 0;
        for _ in 0..100 {
            for i in 0..32u32 {
                extra += c.access(0x1C00_0000 + i * 4);
            }
        }
        // Only the 8 cold misses pay.
        assert_eq!(extra, 8 * 12);
    }

    #[test]
    fn invalidate_forces_refill() {
        let mut c = ICache::new(1024, 16, 10);
        let _ = c.access(0x100);
        c.invalidate();
        assert_eq!(c.access(0x100), 10);
    }
}
