//! Set-associative cache with LRU replacement and data storage.

use crate::config::{CacheConfig, CachePolicy};
use crate::{line_of, word_in_line, Addr, WORDS_PER_LINE};
use medea_sim::stats::Counter;

/// A dirty line evicted to make room for a fill; must be written back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned address of the evicted line.
    pub line: Addr,
    /// The line's data.
    pub data: [u32; WORDS_PER_LINE],
}

/// What a store requires from the memory side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// Write-back hit: absorbed by the cache, no memory traffic.
    Absorbed,
    /// Write-through (hit or miss): the word must also go to memory.
    WriteThrough,
    /// Write-back miss: the line must be allocated first (evict + block
    /// read + [`SetAssocCache::fill_line`]), then the store retried.
    NeedsAllocate,
}

/// What a flush found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Line not present (or already clean under write-through): nothing to
    /// write back.
    Clean,
    /// Dirty line: this data must be block-written to memory. The line
    /// stays resident and is now clean.
    Writeback(Victim),
}

/// Hit/miss and maintenance-operation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Word loads that hit.
    pub load_hits: Counter,
    /// Word loads that missed.
    pub load_misses: Counter,
    /// Word stores that hit.
    pub store_hits: Counter,
    /// Word stores that missed.
    pub store_misses: Counter,
    /// Lines evicted (clean or dirty).
    pub evictions: Counter,
    /// Dirty lines written back (evictions + flushes).
    pub writebacks: Counter,
    /// Explicit flush operations that found a dirty line.
    pub flushes: Counter,
    /// Explicit DII invalidations that found a resident line.
    pub invalidations: Counter,
}

impl CacheStats {
    /// Overall miss rate across loads and stores, or `None` before any
    /// access.
    pub fn miss_rate(&self) -> Option<f64> {
        let hits = self.load_hits.get() + self.store_hits.get();
        let misses = self.load_misses.get() + self.store_misses.get();
        let total = hits + misses;
        (total > 0).then(|| misses as f64 / total as f64)
    }

    /// Accumulate another cache's counters into this one (e.g. the
    /// per-bank → aggregate reduction over MPMMU-local caches).
    pub fn merge(&mut self, other: &CacheStats) {
        self.load_hits.add(other.load_hits.get());
        self.load_misses.add(other.load_misses.get());
        self.store_hits.add(other.store_hits.get());
        self.store_misses.add(other.store_misses.get());
        self.evictions.add(other.evictions.get());
        self.writebacks.add(other.writebacks.get());
        self.flushes.add(other.flushes.get());
        self.invalidations.add(other.invalidations.get());
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: Addr, // line-aligned full address (simpler than split tag/index)
    data: [u32; WORDS_PER_LINE],
    dirty: bool,
    last_use: u64,
}

/// Set-associative, LRU, data-carrying L1 cache.
///
/// All word addresses must be 4-byte aligned; the cache works at word
/// granularity like the 32-bit PIF data path of the original.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>, // sets[set] holds 0..=ways lines
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        SetAssocCache {
            cfg,
            sets: vec![Vec::with_capacity(cfg.ways()); cfg.sets()],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub const fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access statistics.
    pub const fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_index(&self, line: Addr) -> usize {
        (line as usize / crate::LINE_BYTES) % self.cfg.sets()
    }

    fn touch(clock: &mut u64, line: &mut Line) {
        *clock += 1;
        line.last_use = *clock;
    }

    fn find(&mut self, line_addr: Addr) -> Option<&mut Line> {
        let set = self.set_index(line_addr);
        let clock = &mut self.clock;
        match self.sets[set].iter_mut().find(|l| l.tag == line_addr) {
            Some(l) => {
                Self::touch(clock, l);
                Some(l)
            }
            None => None,
        }
    }

    /// Whether the line containing `addr` is resident (no LRU update, no
    /// statistics — a pure probe).
    pub fn probe(&self, addr: Addr) -> bool {
        let line = line_of(addr);
        let set = self.set_index(line);
        self.sets[set].iter().any(|l| l.tag == line)
    }

    /// Load the word at `addr`. `Some(word)` on hit (LRU updated), `None`
    /// on miss — allocate with [`SetAssocCache::evict_for`] +
    /// [`SetAssocCache::fill_line`], then retry.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn load_word(&mut self, addr: Addr) -> Option<u32> {
        assert_eq!(addr % 4, 0, "unaligned word load at {addr:#x}");
        let line = line_of(addr);
        let word = self.find(line).map(|l| l.data[word_in_line(addr)]);
        match word {
            Some(w) => {
                self.stats.load_hits.inc();
                Some(w)
            }
            None => {
                self.stats.load_misses.inc();
                None
            }
        }
    }

    /// Store `value` at `addr`, returning the required memory-side action.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn store_word(&mut self, addr: Addr, value: u32) -> StoreOutcome {
        assert_eq!(addr % 4, 0, "unaligned word store at {addr:#x}");
        let policy = self.cfg.policy();
        let line = line_of(addr);
        let hit = match self.find(line) {
            Some(l) => {
                l.data[word_in_line(addr)] = value;
                if matches!(policy, CachePolicy::WriteBack) {
                    l.dirty = true;
                }
                true
            }
            None => false,
        };
        if hit {
            self.stats.store_hits.inc();
            match policy {
                CachePolicy::WriteBack => StoreOutcome::Absorbed,
                CachePolicy::WriteThrough => StoreOutcome::WriteThrough,
            }
        } else {
            self.stats.store_misses.inc();
            match policy {
                CachePolicy::WriteBack => StoreOutcome::NeedsAllocate,
                // No-write-allocate: the word goes straight to memory.
                CachePolicy::WriteThrough => StoreOutcome::WriteThrough,
            }
        }
    }

    /// Make room for `line_addr`'s line: if its set is full, evict the LRU
    /// line, returning it if dirty (the caller must block-write it).
    ///
    /// Idempotent when a free way already exists or the line is resident.
    pub fn evict_for(&mut self, line_addr: Addr) -> Option<Victim> {
        let line = line_of(line_addr);
        let set = self.set_index(line);
        let ways = self.cfg.ways();
        let set_lines = &mut self.sets[set];
        if set_lines.iter().any(|l| l.tag == line) || set_lines.len() < ways {
            return None;
        }
        let lru = set_lines
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.last_use)
            .map(|(i, _)| i)
            .expect("set is full, hence non-empty");
        let victim = set_lines.swap_remove(lru);
        self.stats.evictions.inc();
        if victim.dirty {
            self.stats.writebacks.inc();
            Some(Victim { line: victim.tag, data: victim.data })
        } else {
            None
        }
    }

    /// Install `data` as the (clean) line at `line_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `line_addr` is not line-aligned, if the set has no free
    /// way (call [`SetAssocCache::evict_for`] first), or if the line is
    /// already resident (a fill must follow a miss).
    pub fn fill_line(&mut self, line_addr: Addr, data: [u32; WORDS_PER_LINE]) {
        assert_eq!(line_addr, line_of(line_addr), "fill address must be line-aligned");
        let set = self.set_index(line_addr);
        assert!(
            !self.sets[set].iter().any(|l| l.tag == line_addr),
            "double fill of resident line {line_addr:#x}"
        );
        assert!(
            self.sets[set].len() < self.cfg.ways(),
            "fill into full set; evict_for() was not called"
        );
        self.clock += 1;
        let line = Line { tag: line_addr, data, dirty: false, last_use: self.clock };
        self.sets[set].push(line);
    }

    /// Flush the line containing `addr` (§II-E: the producer flushes after
    /// writing shared data; also required before `unlock`). Dirty data is
    /// returned for write-back and the line becomes clean but stays
    /// resident.
    pub fn flush_line(&mut self, addr: Addr) -> FlushOutcome {
        let line = line_of(addr);
        let set = self.set_index(line);
        match self.sets[set].iter_mut().find(|l| l.tag == line) {
            Some(l) if l.dirty => {
                l.dirty = false;
                self.stats.flushes.inc();
                self.stats.writebacks.inc();
                FlushOutcome::Writeback(Victim { line, data: l.data })
            }
            _ => FlushOutcome::Clean,
        }
    }

    /// DII invalidate (§II-E): drop the line containing `addr` so the next
    /// access refetches from memory. Returns whether a line was present.
    ///
    /// Note: like the real DII instruction this *discards* dirty data — the
    /// stale-update hazard is the software's to manage.
    pub fn invalidate_line(&mut self, addr: Addr) -> bool {
        let line = line_of(addr);
        let set = self.set_index(line);
        let before = self.sets[set].len();
        self.sets[set].retain(|l| l.tag != line);
        let removed = self.sets[set].len() != before;
        if removed {
            self.stats.invalidations.inc();
        }
        removed
    }

    /// Iterate over all resident dirty lines (used by whole-cache flushes
    /// and by invariant checks in tests).
    pub fn dirty_lines(&self) -> impl Iterator<Item = Victim> + '_ {
        self.sets.iter().flatten().filter(|l| l.dirty).map(|l| Victim { line: l.tag, data: l.data })
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wb(bytes: usize) -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(bytes, CachePolicy::WriteBack).unwrap())
    }

    fn wt(bytes: usize) -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(bytes, CachePolicy::WriteThrough).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = wb(2048);
        assert_eq!(c.load_word(0x40), None);
        assert!(c.evict_for(0x40).is_none());
        c.fill_line(0x40, [10, 11, 12, 13]);
        assert_eq!(c.load_word(0x40), Some(10));
        assert_eq!(c.load_word(0x4C), Some(13));
        assert_eq!(c.stats().load_hits.get(), 2);
        assert_eq!(c.stats().load_misses.get(), 1);
    }

    #[test]
    fn wb_store_hit_absorbed_and_dirty() {
        let mut c = wb(2048);
        c.fill_line(0x80, [0; 4]);
        assert_eq!(c.store_word(0x84, 99), StoreOutcome::Absorbed);
        assert_eq!(c.load_word(0x84), Some(99));
        assert_eq!(c.dirty_lines().count(), 1);
    }

    #[test]
    fn wb_store_miss_needs_allocate() {
        let mut c = wb(2048);
        assert_eq!(c.store_word(0x80, 1), StoreOutcome::NeedsAllocate);
        assert_eq!(c.stats().store_misses.get(), 1);
    }

    #[test]
    fn wt_store_never_dirties() {
        let mut c = wt(2048);
        c.fill_line(0x80, [0; 4]);
        assert_eq!(c.store_word(0x80, 5), StoreOutcome::WriteThrough);
        // Hit updates the cached copy but the line stays clean.
        assert_eq!(c.load_word(0x80), Some(5));
        assert_eq!(c.dirty_lines().count(), 0);
        // Miss: no-write-allocate.
        assert_eq!(c.store_word(0x800, 7), StoreOutcome::WriteThrough);
        assert!(!c.probe(0x800));
    }

    #[test]
    fn lru_eviction_of_oldest() {
        // 2 ways, 1 set: 32-byte cache.
        let cfg = CacheConfig::with_ways(32, 2, CachePolicy::WriteBack).unwrap();
        let mut c = SetAssocCache::new(cfg);
        c.fill_line(0x00, [0; 4]);
        c.fill_line(0x10, [1; 4]);
        // Touch 0x00 so 0x10 becomes LRU.
        assert!(c.load_word(0x00).is_some());
        assert!(c.evict_for(0x20).is_none()); // clean victim: no writeback
        assert_eq!(c.stats().evictions.get(), 1);
        c.fill_line(0x20, [2; 4]);
        assert!(c.probe(0x00), "recently used line must survive");
        assert!(!c.probe(0x10), "LRU line must be evicted");
    }

    #[test]
    fn dirty_victim_returned() {
        let cfg = CacheConfig::with_ways(32, 2, CachePolicy::WriteBack).unwrap();
        let mut c = SetAssocCache::new(cfg);
        c.fill_line(0x00, [0; 4]);
        c.fill_line(0x10, [0; 4]);
        c.store_word(0x00, 42);
        // Make 0x00 LRU anyway by touching 0x10 afterwards.
        c.load_word(0x10);
        let victim = c.evict_for(0x20).expect("dirty victim");
        assert_eq!(victim.line, 0x00);
        assert_eq!(victim.data[0], 42);
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn flush_returns_dirty_data_and_cleans() {
        let mut c = wb(2048);
        c.fill_line(0x100, [1, 2, 3, 4]);
        c.store_word(0x104, 20);
        match c.flush_line(0x104) {
            FlushOutcome::Writeback(v) => {
                assert_eq!(v.line, 0x100);
                assert_eq!(v.data, [1, 20, 3, 4]);
            }
            FlushOutcome::Clean => panic!("expected dirty flush"),
        }
        // Second flush: clean. Line still resident.
        assert_eq!(c.flush_line(0x104), FlushOutcome::Clean);
        assert!(c.probe(0x100));
    }

    #[test]
    fn invalidate_drops_line() {
        let mut c = wb(2048);
        c.fill_line(0x100, [7; 4]);
        assert!(c.invalidate_line(0x108));
        assert!(!c.probe(0x100));
        assert!(!c.invalidate_line(0x108));
        assert_eq!(c.stats().invalidations.get(), 1);
    }

    #[test]
    fn set_indexing_separates_lines() {
        let mut c = wb(2048); // 2 ways, 64 sets
                              // Same set: addresses 1024*... line 0 and line 0 + sets*16.
        let sets = c.config().sets();
        let a = 0u32;
        let b = (sets * crate::LINE_BYTES) as u32;
        let d = 2 * b;
        c.fill_line(a, [1; 4]);
        c.fill_line(b, [2; 4]);
        assert!(c.evict_for(d).is_none()); // clean LRU victim evicted
        c.fill_line(d, [3; 4]);
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = wb(2048);
        assert!(c.stats().miss_rate().is_none());
        c.load_word(0x0);
        c.fill_line(0x0, [0; 4]);
        c.load_word(0x0);
        let mr = c.stats().miss_rate().unwrap();
        assert!((mr - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_load_panics() {
        wb(2048).load_word(0x3);
    }

    #[test]
    #[should_panic(expected = "double fill")]
    fn double_fill_panics() {
        let mut c = wb(2048);
        c.fill_line(0x0, [0; 4]);
        c.fill_line(0x0, [0; 4]);
    }

    #[test]
    #[should_panic(expected = "full set")]
    fn fill_into_full_set_panics() {
        let cfg = CacheConfig::with_ways(32, 2, CachePolicy::WriteBack).unwrap();
        let mut c = SetAssocCache::new(cfg);
        c.fill_line(0x00, [0; 4]);
        c.fill_line(0x10, [0; 4]);
        c.fill_line(0x20, [0; 4]);
    }
}
