//! Set-associative cache with MSHRs and line-fill buffers.
//!
//! Timing protocol: the core calls [`Cache::access`] with the current cycle
//! and receives either a hit completion cycle, a pending fill completion
//! cycle, or a structural-hazard signal (retry later). [`Cache::tick`]
//! advances fills and installs completed lines.

use crate::memory::Memory;

/// Geometry and latency parameters of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Miss-status holding registers (outstanding demand misses).
    pub mshrs: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// Fill latency in cycles (miss to data).
    pub miss_latency: u64,
}

/// One outstanding demand miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mshr {
    /// Line-aligned miss address.
    pub line_addr: u64,
    /// Cycle at which the fill completes.
    pub ready_cycle: u64,
}

/// One in-flight line fill (demand or prefetch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineFillBuffer {
    /// Line-aligned address being filled.
    pub line_addr: u64,
    /// Digest of the line content being transferred (the LFB-Data trace
    /// feature).
    pub data_digest: u64,
    /// Cycle at which the fill completes and the LFB frees.
    pub ready_cycle: u64,
    /// True when this fill was initiated by the prefetcher.
    pub prefetch: bool,
}

/// Result of a cache access attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Hit; data available at the contained cycle.
    Hit(u64),
    /// Miss; fill in flight, data available at the contained cycle.
    Miss(u64),
    /// No MSHR/LFB available; retry on a later cycle.
    Retry,
}

/// A set-associative, write-allocate cache with LRU replacement.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set][way]`: line address or `None`.
    tags: Vec<Vec<Option<u64>>>,
    /// LRU timestamps, same shape.
    lru: Vec<Vec<u64>>,
    mshrs: Vec<Mshr>,
    lfbs: Vec<LineFillBuffer>,
    lfb_capacity: usize,
    stamp: u64,
    /// MSHR and LFB allocations and frees so far (see
    /// [`Cache::buffers_version`]).
    buffer_changes: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two sets/line size or zero ways.
    pub fn new(cfg: CacheConfig, lfb_capacity: usize) -> Cache {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.ways > 0, "cache must have at least one way");
        Cache {
            cfg,
            tags: vec![vec![None; cfg.ways]; cfg.sets],
            lru: vec![vec![0; cfg.ways]; cfg.sets],
            mshrs: Vec::with_capacity(cfg.mshrs),
            lfbs: Vec::with_capacity(lfb_capacity),
            lfb_capacity,
            stamp: 0,
            buffer_changes: 0,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line-aligns an address.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes - 1)
    }

    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr / self.cfg.line_bytes) as usize) & (self.cfg.sets - 1)
    }

    /// Whether the line containing `addr` is resident (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        self.tags[self.set_index(line)].contains(&Some(line))
    }

    /// Attempts an access at cycle `now`. On a miss, allocates an MSHR and
    /// LFB and begins the fill; `mem` supplies the content digest for the
    /// LFB-Data trace.
    pub fn access(&mut self, addr: u64, now: u64, mem: &Memory) -> Access {
        let line = self.line_addr(addr);
        let set = self.set_index(line);
        self.stamp += 1;
        if let Some(way) = self.tags[set].iter().position(|&t| t == Some(line)) {
            self.lru[set][way] = self.stamp;
            return Access::Hit(now + self.cfg.hit_latency);
        }
        // Already being filled? Data available when the fill lands.
        if let Some(m) = self.mshrs.iter().find(|m| m.line_addr == line) {
            return Access::Miss(m.ready_cycle + self.cfg.hit_latency);
        }
        if let Some(l) = self.lfbs.iter().find(|l| l.line_addr == line) {
            return Access::Miss(l.ready_cycle + self.cfg.hit_latency);
        }
        if self.mshrs.len() >= self.cfg.mshrs || self.lfbs.len() >= self.lfb_capacity {
            return Access::Retry;
        }
        let ready = now + self.cfg.miss_latency;
        self.buffer_changes += 1;
        self.mshrs.push(Mshr { line_addr: line, ready_cycle: ready });
        self.lfbs.push(LineFillBuffer {
            line_addr: line,
            data_digest: mem.line_digest(line, self.cfg.line_bytes),
            ready_cycle: ready,
            prefetch: false,
        });
        Access::Miss(ready)
    }

    /// Issues a prefetch fill for the line containing `addr`. Returns true
    /// if a fill was started (line not already resident/in flight and an
    /// LFB was free).
    pub fn prefetch(&mut self, addr: u64, now: u64, mem: &Memory) -> bool {
        let line = self.line_addr(addr);
        if self.probe(line)
            || self.mshrs.iter().any(|m| m.line_addr == line)
            || self.lfbs.iter().any(|l| l.line_addr == line)
            || self.lfbs.len() >= self.lfb_capacity
        {
            return false;
        }
        self.buffer_changes += 1;
        self.lfbs.push(LineFillBuffer {
            line_addr: line,
            data_digest: mem.line_digest(line, self.cfg.line_bytes),
            ready_cycle: now + self.cfg.miss_latency,
            prefetch: true,
        });
        true
    }

    /// Advances fills: installs lines whose fills complete at `now` and
    /// frees their MSHRs/LFBs.
    pub fn tick(&mut self, now: u64) {
        let held = self.lfbs.len() + self.mshrs.len();
        // Taken out for the pass so that `install`, which never reads the
        // buffers, can borrow the cache; completed fills install in buffer
        // order.
        let mut lfbs = std::mem::take(&mut self.lfbs);
        lfbs.retain(|l| {
            if l.ready_cycle <= now {
                self.install(l.line_addr);
                false
            } else {
                true
            }
        });
        self.lfbs = lfbs;
        self.mshrs.retain(|m| m.ready_cycle > now);
        self.buffer_changes += (held - self.lfbs.len() - self.mshrs.len()) as u64;
    }

    /// Installs a line immediately (used by fills and by the test harness's
    /// cache warming).
    pub fn install(&mut self, addr: u64) {
        let line = self.line_addr(addr);
        let set = self.set_index(line);
        self.stamp += 1;
        if let Some(way) = self.tags[set].iter().position(|&t| t == Some(line)) {
            self.lru[set][way] = self.stamp;
            return;
        }
        let victim = match self.tags[set].iter().position(|t| t.is_none()) {
            Some(w) => w,
            None => {
                // Evict LRU.
                let (w, _) =
                    self.lru[set].iter().enumerate().min_by_key(|&(_, &s)| s).expect("ways > 0");
                w
            }
        };
        self.tags[set][victim] = Some(line);
        self.lru[set][victim] = self.stamp;
    }

    /// Invalidates the line containing `addr` (the attacker-model flush).
    pub fn flush_line(&mut self, addr: u64) {
        let line = self.line_addr(addr);
        let set = self.set_index(line);
        for t in &mut self.tags[set] {
            if *t == Some(line) {
                *t = None;
            }
        }
    }

    /// Evicts one valid line chosen deterministically by `salt` (fault
    /// injection's forced-eviction perturbation). Returns the evicted
    /// line address, or `None` when the cache holds no valid line.
    pub fn evict_any(&mut self, salt: u64) -> Option<u64> {
        let valid = self.tags.iter().flatten().filter(|t| t.is_some()).count() as u64;
        if valid == 0 {
            return None;
        }
        let mut target = salt % valid;
        for set in &mut self.tags {
            for t in set {
                if t.is_some() {
                    if target == 0 {
                        return t.take();
                    }
                    target -= 1;
                }
            }
        }
        unreachable!("target < valid line count")
    }

    /// Invalidates every line (MSHRs/LFBs in flight are unaffected).
    pub fn flush_all(&mut self) {
        for set in &mut self.tags {
            for t in set {
                *t = None;
            }
        }
    }

    /// Outstanding demand-miss addresses (the MSHR-ADDR trace feature).
    pub fn mshr_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.mshrs.iter().map(|m| m.line_addr)
    }

    /// In-flight line fills (the LFB-ADDR / LFB-Data trace features).
    pub fn lfb_entries(&self) -> impl Iterator<Item = &LineFillBuffer> {
        self.lfbs.iter()
    }

    /// A version of the MSHR and LFB contents: it changes whenever an MSHR
    /// or LFB is allocated or freed, the only ways those contents change,
    /// so an unchanged version means unchanged [`Cache::mshr_addrs`] and
    /// [`Cache::lfb_entries`].
    pub(crate) fn buffers_version(&self) -> u64 {
        self.buffer_changes
    }

    /// True when no MSHR is free.
    pub fn mshrs_full(&self) -> bool {
        self.mshrs.len() >= self.cfg.mshrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig { sets: 4, ways: 2, line_bytes: 64, mshrs: 2, hit_latency: 3, miss_latency: 20 }
    }

    #[test]
    fn miss_then_hit() {
        let mem = Memory::new();
        let mut c = Cache::new(cfg(), 4);
        match c.access(0x1000, 10, &mem) {
            Access::Miss(ready) => assert_eq!(ready, 30),
            other => panic!("expected miss, got {other:?}"),
        }
        c.tick(30);
        match c.access(0x1008, 31, &mem) {
            Access::Hit(at) => assert_eq!(at, 34),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn secondary_miss_merges() {
        let mem = Memory::new();
        let mut c = Cache::new(cfg(), 4);
        c.access(0x1000, 0, &mem);
        // Same line again: no second MSHR; completes with the first fill.
        match c.access(0x1020, 5, &mem) {
            Access::Miss(ready) => assert_eq!(ready, 20 + 3),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.mshr_addrs().count(), 1);
    }

    #[test]
    fn mshr_exhaustion_retries() {
        let mem = Memory::new();
        let mut c = Cache::new(cfg(), 4);
        assert!(matches!(c.access(0x0000, 0, &mem), Access::Miss(_)));
        assert!(matches!(c.access(0x1000, 0, &mem), Access::Miss(_)));
        assert_eq!(c.access(0x2000, 0, &mem), Access::Retry);
        c.tick(20);
        assert!(matches!(c.access(0x2000, 21, &mem), Access::Miss(_)));
    }

    #[test]
    fn lru_eviction() {
        let mem = Memory::new();
        let mut c = Cache::new(cfg(), 8);
        // Three lines mapping to the same set (set stride = sets*line = 256).
        c.install(0x0000);
        c.install(0x0100);
        c.access(0x0000, 0, &mem); // touch line 0 so line 0x100 is LRU
        c.install(0x0200); // evicts 0x100
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0100));
        assert!(c.probe(0x0200));
    }

    #[test]
    fn flush_line_invalidates() {
        let mut c = Cache::new(cfg(), 4);
        c.install(0x1000);
        assert!(c.probe(0x1010));
        c.flush_line(0x1010);
        assert!(!c.probe(0x1000));
    }

    #[test]
    fn prefetch_fills_without_mshr() {
        let mem = Memory::new();
        let mut c = Cache::new(cfg(), 4);
        assert!(c.prefetch(0x4000, 0, &mem));
        assert_eq!(c.mshr_addrs().count(), 0);
        assert_eq!(c.lfb_entries().count(), 1);
        assert!(c.lfb_entries().next().unwrap().prefetch);
        c.tick(20);
        assert!(c.probe(0x4000));
    }

    #[test]
    fn prefetch_skips_resident_and_inflight() {
        let mem = Memory::new();
        let mut c = Cache::new(cfg(), 4);
        c.install(0x4000);
        assert!(!c.prefetch(0x4000, 0, &mem));
        c.access(0x5000, 0, &mem);
        assert!(!c.prefetch(0x5000, 0, &mem));
    }

    #[test]
    fn lfb_capacity_limits_prefetch() {
        let mem = Memory::new();
        let mut c = Cache::new(cfg(), 1);
        assert!(c.prefetch(0x1000, 0, &mem));
        assert!(!c.prefetch(0x2000, 0, &mem));
    }

    #[test]
    fn evict_any_is_deterministic_and_bounded() {
        let mut c = Cache::new(cfg(), 4);
        assert_eq!(c.evict_any(7), None, "empty cache has nothing to evict");
        c.install(0x0000);
        c.install(0x1000);
        c.install(0x2000);
        let mut d = c.clone();
        assert_eq!(c.evict_any(5), d.evict_any(5), "same salt, same victim");
        // Evicting drains the cache one line at a time.
        let mut e = Cache::new(cfg(), 4);
        e.install(0x0000);
        e.install(0x1000);
        assert!(e.evict_any(0).is_some());
        assert!(e.evict_any(1).is_some());
        assert_eq!(e.evict_any(2), None);
    }

    #[test]
    fn flush_all_empties() {
        let mut c = Cache::new(cfg(), 4);
        c.install(0x0000);
        c.install(0x1000);
        c.flush_all();
        assert!(!c.probe(0x0000));
        assert!(!c.probe(0x1000));
    }
}
