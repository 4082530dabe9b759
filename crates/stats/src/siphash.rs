//! SipHash — the snapshot hash used by MicroSampler.
//!
//! The paper hashes each microarchitectural iteration snapshot with
//! "Python's default SipHash" (a 64-bit PRF). CPython uses SipHash-1-3 for
//! its string hash; the original SipHash paper recommends SipHash-2-4. Both
//! parameterizations are provided; the framework defaults to 1-3 and the
//! choice is benchmarked as an ablation.

/// Streaming SipHash state with configurable compression (`C`) and
/// finalization (`D`) round counts.
///
/// # Example
///
/// ```
/// use microsampler_stats::SipHasher;
/// let mut h = SipHasher::new_1_3(0, 0);
/// h.write(b"snapshot bytes");
/// let digest: u64 = h.finish();
/// assert_eq!(digest, SipHasher::new_1_3(0, 0).hash(b"snapshot bytes"));
/// ```
#[derive(Clone, Debug)]
pub struct SipHasher {
    v: Lanes,
    c_rounds: u32,
    d_rounds: u32,
    buf: [u8; 8],
    buf_len: usize,
    total_len: u64,
}

/// The four 64-bit state words.
#[derive(Clone, Copy, Debug)]
struct Lanes {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

impl Lanes {
    #[inline]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    /// Absorbs one message block. `c_rounds >= 1` (checked at
    /// construction), so the first round needs no loop test and
    /// SipHash-1-3 never enters the loop.
    #[inline]
    fn compress(&mut self, m: u64, c_rounds: u32) {
        self.v3 ^= m;
        self.round();
        for _ in 1..c_rounds {
            self.round();
        }
        self.v0 ^= m;
    }
}

impl SipHasher {
    /// Creates a SipHash-1-3 instance (CPython's parameterization).
    pub fn new_1_3(k0: u64, k1: u64) -> SipHasher {
        SipHasher::with_rounds(k0, k1, 1, 3)
    }

    /// Creates a SipHash-2-4 instance (the reference parameterization).
    pub fn new_2_4(k0: u64, k1: u64) -> SipHasher {
        SipHasher::with_rounds(k0, k1, 2, 4)
    }

    /// Creates a SipHash instance with explicit round counts.
    ///
    /// # Panics
    ///
    /// Panics if either round count is zero.
    pub fn with_rounds(k0: u64, k1: u64, c_rounds: u32, d_rounds: u32) -> SipHasher {
        assert!(c_rounds > 0 && d_rounds > 0, "round counts must be positive");
        SipHasher {
            v: Lanes {
                v0: k0 ^ 0x736f_6d65_7073_6575,
                v1: k1 ^ 0x646f_7261_6e64_6f6d,
                v2: k0 ^ 0x6c79_6765_6e65_7261,
                v3: k1 ^ 0x7465_6462_7974_6573,
            },
            c_rounds,
            d_rounds,
            buf: [0; 8],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs bytes into the hash state.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.total_len = self.total_len.wrapping_add(bytes.len() as u64);
        if self.buf_len > 0 {
            let take = bytes.len().min(8 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len == 8 {
                let m = u64::from_le_bytes(self.buf);
                self.v.compress(m, self.c_rounds);
                self.buf_len = 0;
            }
            if bytes.is_empty() {
                return;
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.v.compress(u64::from_le_bytes(chunk.try_into().unwrap()), self.c_rounds);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Absorbs a `u64` in little-endian byte order: the same digest as
    /// `write(&v.to_le_bytes())`. On a block boundary the word *is* the
    /// next message block and is compressed directly; otherwise it goes
    /// through the byte buffer.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        if self.buf_len == 0 {
            self.total_len = self.total_len.wrapping_add(8);
            self.v.compress(v, self.c_rounds);
        } else {
            self.write(&v.to_le_bytes());
        }
    }

    /// Absorbs every word of `words` as [`SipHasher::write_u64`] would.
    /// On a block boundary the state stays in registers for the whole
    /// slice.
    pub fn write_u64s(&mut self, words: &[u64]) {
        if self.buf_len != 0 {
            for &w in words {
                self.write(&w.to_le_bytes());
            }
            return;
        }
        self.total_len = self.total_len.wrapping_add(8 * words.len() as u64);
        let mut v = self.v;
        for &m in words {
            v.compress(m, self.c_rounds);
        }
        self.v = v;
    }

    /// Finalizes and returns the 64-bit digest. Consumes the hasher.
    pub fn finish(mut self) -> u64 {
        let mut last = [0u8; 8];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        last[7] = self.total_len as u8;
        let m = u64::from_le_bytes(last);
        self.v.compress(m, self.c_rounds);
        self.v.v2 ^= 0xFF;
        for _ in 0..self.d_rounds {
            self.v.round();
        }
        self.v.v0 ^ self.v.v1 ^ self.v.v2 ^ self.v.v3
    }

    /// One-shot hash of a byte slice (consumes the hasher's initial state).
    pub fn hash(self, bytes: &[u8]) -> u64 {
        let mut h = self;
        h.write(bytes);
        h.finish()
    }
}

/// One-shot SipHash-1-3 with the given 128-bit key.
pub fn siphash13(k0: u64, k1: u64, bytes: &[u8]) -> u64 {
    SipHasher::new_1_3(k0, k1).hash(bytes)
}

/// One-shot SipHash-2-4 with the given 128-bit key.
pub fn siphash24(k0: u64, k1: u64, bytes: &[u8]) -> u64 {
    SipHasher::new_2_4(k0, k1).hash(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First entries of the official SipHash-2-4 test vectors from the
    /// reference implementation (key = 00..0f, input = 0, 1, 2, ... bytes).
    const SIP24_VECTORS: [u64; 8] = [
        0x726f_db47_dd0e_0e31,
        0x74f8_39c5_93dc_67fd,
        0x0d6c_8009_d9a9_4f5a,
        0x8567_6696_d7fb_7e2d,
        0xcf27_94e0_2771_87b7,
        0x1876_5564_cd99_a68d,
        0xcbc9_466e_58fe_e3ce,
        0xab02_00f5_8b01_d137,
    ];

    fn reference_key() -> (u64, u64) {
        let k: Vec<u8> = (0u8..16).collect();
        (
            u64::from_le_bytes(k[..8].try_into().unwrap()),
            u64::from_le_bytes(k[8..].try_into().unwrap()),
        )
    }

    #[test]
    fn siphash24_reference_vectors() {
        let (k0, k1) = reference_key();
        for (len, &expect) in SIP24_VECTORS.iter().enumerate() {
            let input: Vec<u8> = (0..len as u8).collect();
            assert_eq!(siphash24(k0, k1, &input), expect, "length {len}");
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let (k0, k1) = reference_key();
        let data: Vec<u8> = (0..100u8).collect();
        for split in [0usize, 1, 3, 7, 8, 9, 50, 99, 100] {
            let mut h = SipHasher::new_2_4(k0, k1);
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), siphash24(k0, k1, &data), "split {split}");
        }
    }

    #[test]
    fn one_three_differs_from_two_four() {
        assert_ne!(siphash13(1, 2, b"abc"), siphash24(1, 2, b"abc"));
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(siphash13(0, 0, b"x"), siphash13(0, 1, b"x"));
        assert_ne!(siphash13(0, 0, b"x"), siphash13(1, 0, b"x"));
    }

    #[test]
    fn length_extension_distinct() {
        // "a" then "b" must differ from "ab" written at once only via the
        // length tag — they are the same stream, so they must be EQUAL.
        let mut h1 = SipHasher::new_1_3(0, 0);
        h1.write(b"a");
        h1.write(b"b");
        assert_eq!(h1.finish(), siphash13(0, 0, b"ab"));
        // But a trailing zero byte must change the digest.
        assert_ne!(siphash13(0, 0, b"ab"), siphash13(0, 0, b"ab\0"));
    }

    #[test]
    fn write_u64_matches_bytes() {
        let mut h1 = SipHasher::new_1_3(3, 4);
        h1.write_u64(0x0102_0304_0506_0708);
        let mut h2 = SipHasher::new_1_3(3, 4);
        h2.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rounds_panics() {
        SipHasher::with_rounds(0, 0, 0, 4);
    }
}
