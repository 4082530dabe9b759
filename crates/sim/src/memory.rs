use microsampler_stats::MulShift;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

const PAGE_SIZE: u64 = 4096;

type Page = Box<[u8; PAGE_SIZE as usize]>;

/// Sparse flat physical memory backed by 4 KiB pages.
///
/// Unwritten memory reads as zero. Addresses are full 64-bit; pages are
/// allocated on first write.
///
/// # Example
///
/// ```
/// use microsampler_sim::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x8000_0000, 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x8000_0000), 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x9000_0000), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// Pages by page number. Page numbers are simulated addresses and the
    /// map is never iterated, so it hashes with [`MulShift`].
    pages: HashMap<u64, Page, BuildHasherDefault<MulShift>>,
}

impl Memory {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// The page holding `addr`, allocated (zeroed) on first use.
    fn page_mut(&mut self, addr: u64) -> &mut Page {
        self.pages.entry(addr / PAGE_SIZE).or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(page) => page[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr % PAGE_SIZE) as usize] = value;
    }

    /// The in-page offset of `addr` when `addr .. addr + len` lies inside
    /// one page (the common case, served with one page lookup).
    fn in_page(addr: u64, len: u64) -> Option<usize> {
        let off = addr % PAGE_SIZE;
        (off + len <= PAGE_SIZE).then_some(off as usize)
    }

    /// Reads `N` little-endian bytes as an integer, `N <= 8`.
    pub fn read_le(&self, addr: u64, size: u64) -> u64 {
        debug_assert!(size <= 8);
        if let Some(off) = Memory::in_page(addr, size) {
            let Some(page) = self.pages.get(&(addr / PAGE_SIZE)) else { return 0 };
            let mut bytes = [0u8; 8];
            bytes[..size as usize].copy_from_slice(&page[off..off + size as usize]);
            return u64::from_le_bytes(bytes);
        }
        let mut v = 0u64;
        for i in 0..size {
            v |= (self.read_u8(addr + i) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `size` bytes of `value` little-endian.
    pub fn write_le(&mut self, addr: u64, size: u64, value: u64) {
        debug_assert!(size <= 8);
        if let Some(off) = Memory::in_page(addr, size) {
            self.page_mut(addr)[off..off + size as usize]
                .copy_from_slice(&value.to_le_bytes()[..size as usize]);
            return;
        }
        for i in 0..size {
            self.write_u8(addr + i, (value >> (8 * i)) as u8);
        }
    }

    /// Reads a 32-bit little-endian word.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_le(addr, 4) as u32
    }

    /// Reads a 64-bit little-endian word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_le(addr, 8, value);
    }

    /// Copies a byte slice into memory, one page lookup per page touched.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr % PAGE_SIZE) as usize;
            let len = bytes.len().min(PAGE_SIZE as usize - off);
            self.page_mut(addr)[off..off + len].copy_from_slice(&bytes[..len]);
            addr = addr.wrapping_add(len as u64);
            bytes = &bytes[len..];
        }
    }

    /// Reads `len` bytes into a new vector.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| self.read_u8(addr + i)).collect()
    }

    /// A 64-bit digest of one cache line's content, used by the LFB-Data
    /// trace feature (equal lines hash equal; distinct lines almost surely
    /// differ).
    pub fn line_digest(&self, line_addr: u64, line_bytes: u64) -> u64 {
        let fnv = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        let basis = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        match Memory::in_page(line_addr, line_bytes) {
            Some(off) => match self.pages.get(&(line_addr / PAGE_SIZE)) {
                Some(page) => {
                    page[off..off + line_bytes as usize].iter().fold(basis, |h, &b| fnv(h, b))
                }
                None => (0..line_bytes).fold(basis, |h, _| fnv(h, 0)),
            },
            None => (0..line_bytes).fold(basis, |h, i| fnv(h, self.read_u8(line_addr + i))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(u64::MAX - 8), 0);
    }

    #[test]
    fn byte_roundtrip_across_pages() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 1;
        m.write_u8(addr, 0xAB);
        m.write_u8(addr + 1, 0xCD);
        assert_eq!(m.read_u8(addr), 0xAB);
        assert_eq!(m.read_u8(addr + 1), 0xCD);
        assert_eq!(m.read_le(addr, 2), 0xCDAB);
    }

    #[test]
    fn le_roundtrip() {
        let mut m = Memory::new();
        for size in 1..=8u64 {
            let v = 0x0102_0304_0506_0708u64;
            m.write_le(100, size, v);
            let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
            assert_eq!(m.read_le(100, size), v & mask, "size {size}");
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..100).collect();
        m.write_bytes(5000, &data);
        assert_eq!(m.read_bytes(5000, 100), data);
    }

    /// The byte-at-a-time definitions the page-granular paths replace.
    fn bytewise_read(m: &Memory, addr: u64, size: u64) -> u64 {
        (0..size).fold(0, |v, i| v | (m.read_u8(addr + i) as u64) << (8 * i))
    }

    fn bytewise_digest(m: &Memory, addr: u64, len: u64) -> u64 {
        (0..len).fold(0xcbf2_9ce4_8422_2325u64, |h, i| {
            (h ^ m.read_u8(addr + i) as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    proptest::proptest! {
        /// Accesses within 48 bytes of a page boundary (so many cross it)
        /// agree with the byte loop, on written and never-written pages.
        /// Each step writes either one `write_le` word or, when `bulk` is
        /// set, `len` bytes through `write_bytes`.
        #[test]
        fn page_granular_access_equals_byte_loop(
            ops in proptest::collection::vec(
                (
                    0u64..48,
                    1u64..=8,
                    proptest::prelude::any::<u64>(),
                    1u64..=64,
                    proptest::prelude::any::<bool>(),
                ),
                1..40,
            ),
            page in 1u64..4,
        ) {
            let base = page * PAGE_SIZE - 24;
            let (mut fast, mut bytewise) = (Memory::new(), Memory::new());
            for &(off, size, value, len, bulk) in &ops {
                let addr = base + off;
                // Reads first, so the first ones see never-written pages.
                let read = bytewise_read(&bytewise, addr, size);
                proptest::prop_assert_eq!(fast.read_le(addr, size), read);
                let digest = bytewise_digest(&bytewise, addr, len);
                proptest::prop_assert_eq!(fast.line_digest(addr, len), digest);
                let bytes: Vec<u8> = if bulk {
                    (0..len).map(|i| (value >> (8 * (i % 8))) as u8 ^ i as u8).collect()
                } else {
                    value.to_le_bytes()[..size as usize].to_vec()
                };
                if bulk {
                    fast.write_bytes(addr, &bytes);
                } else {
                    fast.write_le(addr, size, value);
                }
                for (a, &b) in (addr..).zip(&bytes) {
                    bytewise.write_u8(a, b);
                }
            }
            for addr in base..base + 48 + 64 {
                proptest::prop_assert_eq!(fast.read_u8(addr), bytewise.read_u8(addr));
            }
        }
    }

    #[test]
    fn line_digest_distinguishes_content() {
        let mut m = Memory::new();
        let d0 = m.line_digest(0, 64);
        m.write_u8(63, 1);
        let d1 = m.line_digest(0, 64);
        assert_ne!(d0, d1);
        // Identical content on a different line address digests the same.
        m.write_u8(64 + 63, 1);
        assert_eq!(m.line_digest(64, 64), d1);
    }
}
