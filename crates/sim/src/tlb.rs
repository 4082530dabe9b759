//! Fully-associative data TLB with LRU replacement.
//!
//! Address translation in this machine is identity (no page tables), but
//! the TLB is modeled faithfully for two reasons: a miss costs a
//! page-walk latency, and the set of resident entries is a traced
//! microarchitectural feature (TLB-ADDR, paper Table IV) — the TLBleed-style
//! channel the paper cites arises purely from *which* pages are resident.

const PAGE_SHIFT: u64 = 12;

/// The data TLB.
#[derive(Clone, Debug)]
pub struct Tlb {
    /// `(virtual page number, last-use stamp)` pairs.
    entries: Vec<(u64, u64)>,
    capacity: usize,
    stamp: u64,
    /// Fills and flushes so far (see [`Tlb::pages_version`]).
    changes: u64,
    /// Hits accumulated (for stats).
    pub hits: u64,
    /// Misses accumulated.
    pub misses: u64,
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            stamp: 0,
            changes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates the page of `addr`. Returns `true` on a hit; on a miss the
    /// entry is filled (evicting LRU) and `false` is returned so the caller
    /// can charge the walk latency.
    pub fn access(&mut self, addr: u64) -> bool {
        let vpn = addr >> PAGE_SHIFT;
        self.stamp += 1;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == vpn) {
            e.1 = self.stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.changes += 1;
        if self.entries.len() >= self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(_, s))| s)
                .expect("capacity > 0");
            self.entries.swap_remove(idx);
        }
        self.entries.push((vpn, self.stamp));
        false
    }

    /// Whether the page of `addr` is resident (no LRU update, no fill).
    pub fn probe(&self, addr: u64) -> bool {
        let vpn = addr >> PAGE_SHIFT;
        self.entries.iter().any(|(p, _)| *p == vpn)
    }

    /// Resident virtual page numbers in insertion order (the TLB-ADDR trace
    /// feature).
    pub fn resident_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|(p, _)| *p)
    }

    /// A version of [`Tlb::resident_pages`]: it changes with every fill and
    /// flush, the only ways the resident pages change.
    pub(crate) fn pages_version(&self) -> u64 {
        self.changes
    }

    /// Drops every entry.
    pub fn flush(&mut self) {
        self.changes += 1;
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4);
        assert!(!t.access(0x8000_0123));
        assert!(t.access(0x8000_0FFF)); // same page
        assert!(!t.access(0x8000_1000)); // next page
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.access(0x0000);
        t.access(0x1000);
        t.access(0x0000); // refresh page 0
        t.access(0x2000); // evicts page 1
        assert!(t.probe(0x0000));
        assert!(!t.probe(0x1000));
        assert!(t.probe(0x2000));
    }

    #[test]
    fn flush_clears() {
        let mut t = Tlb::new(2);
        t.access(0x5000);
        t.flush();
        assert!(!t.probe(0x5000));
        assert_eq!(t.resident_pages().count(), 0);
    }

    #[test]
    fn resident_pages_listed() {
        let mut t = Tlb::new(4);
        t.access(0x3000);
        t.access(0x7000);
        let pages: Vec<u64> = t.resident_pages().collect();
        assert_eq!(pages, vec![3, 7]);
    }
}
