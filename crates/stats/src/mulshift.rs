use std::hash::Hasher;

/// Multiply-shift hasher for maps and sets keyed by values that are never
/// adversarial and already spread: simulated addresses, PCs and page
/// numbers (the simulator's page map and fold set) and snapshot hashes
/// (the [`ContingencyTable`](crate::ContingencyTable) column index). One
/// multiply is enough; folding the high half down spreads the well-mixed
/// high bits into the low bits a table indexes by.
///
/// ```
/// use microsampler_stats::MulShift;
/// use std::collections::HashMap;
/// use std::hash::BuildHasherDefault;
/// let mut m: HashMap<u64, &str, BuildHasherDefault<MulShift>> = HashMap::default();
/// m.insert(0x8000_0000, "text");
/// assert_eq!(m[&0x8000_0000], "text");
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct MulShift(u64);

impl Hasher for MulShift {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let p = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = p ^ (p >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
