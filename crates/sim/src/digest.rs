//! Row digests: the 64-bit summary of one snapshot row that a unit's two
//! SipHash streams absorb (see the [`crate::trace`] module docs).
//!
//! For a row of width `w` whose word `i` has low and high 32-bit halves
//! `lo_i` and `hi_i`,
//!
//! ```text
//! D(row) = mix((w + Σ_i lo_i·K^(2i+1) + hi_i·K^(2i+2)) mod p),   p = 2^61 − 1,
//! ```
//!
//! where [`K`] is a fixed point of GF(p) and `mix` is splitmix64's
//! bijective 64-bit finalizer.
//!
//! * Every limb is below `p`, so two distinct rows are two distinct
//!   polynomials in `K` of degree at most `2W` (rows of different widths
//!   differ in the constant term). Over the choice of `K` they share a
//!   digest with probability at most `2W/p`, about 2^-53 at `W = 128`.
//! * A zero word adds nothing, so a queue row's zero padding costs nothing
//!   to digest, and the width term keeps `[a]` and `[a, 0]` apart.
//! * The sum is linear in the positions: a queue that gains entries at its
//!   tail, loses them at either end and has words written in place keeps
//!   its row's sum current as it changes ([`RowSum`], [`PcDeque`]), and its
//!   digest costs one `mix` per cycle instead of a pass over the row.
//!
//! The powers of `K` for the first [`TABLE_WORDS`] words are a compile-time
//! table; wider rows (`pad_row` never truncates a ROB-PC row) compute the
//! rest as they go. Nothing is set up per machine or per process.

use std::collections::VecDeque;

/// The field's modulus, the Mersenne prime 2^61 − 1.
const P: u64 = (1 << 61) - 1;

/// The point the row polynomial is evaluated at (documented on
/// [`crate::TraceConfig`]).
const K: u64 = 0x0a4f_9c31_d2b7_6e85;

const _: () = assert!(1 < K && K < P, "K is a non-trivial field element");

/// Words whose powers of `K` are tabled.
pub(crate) const TABLE_WORDS: usize = 256;

/// `WORD_POWERS[i] = [K^(2i+1), K^(2i+2)]`: the weights of word `i`'s low
/// and high halves.
static WORD_POWERS: [[u64; 2]; TABLE_WORDS] = word_powers();

/// `K^-1` (`K^(p-2)` by Fermat).
const K_INV: u64 = pow_mod(K, P - 2);

/// `K^-2`, the factor that moves every term one word to the left.
const K_INV2: u64 = mul_mod(K_INV, K_INV);

/// `x mod p`, for any `x`.
const fn reduce(x: u128) -> u64 {
    let x = (x & P as u128) + (x >> 61);
    let x = ((x & P as u128) + (x >> 61)) as u64;
    if x >= P {
        x - P
    } else {
        x
    }
}

const fn mul_mod(a: u64, b: u64) -> u64 {
    reduce(a as u128 * b as u128)
}

const fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

const fn word_powers() -> [[u64; 2]; TABLE_WORDS] {
    let mut table = [[0; 2]; TABLE_WORDS];
    let mut k = 1;
    let mut i = 0;
    while i < TABLE_WORDS {
        k = mul_mod(k, K);
        table[i][0] = k;
        k = mul_mod(k, K);
        table[i][1] = k;
        i += 1;
    }
    table
}

/// `a + b mod p`, for `a, b < p`.
fn add_mod(a: u64, b: u64) -> u64 {
    let s = a + b;
    if s >= P {
        s - P
    } else {
        s
    }
}

fn sub_mod(a: u64, b: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + P - b
    }
}

/// The weights of word `i`'s two halves, from the table where it reaches.
fn powers_of_word(i: usize) -> [u64; 2] {
    match WORD_POWERS.get(i) {
        Some(&pair) => pair,
        None => {
            let k = pow_mod(K, 2 * i as u64 + 1);
            [k, mul_mod(k, K)]
        }
    }
}

/// What word `v` at position `i` adds to its row's sum.
fn term(v: u64, i: usize) -> u64 {
    let [k_lo, k_hi] = powers_of_word(i);
    reduce((v as u32 as u128) * k_lo as u128 + (v >> 32) as u128 * k_hi as u128)
}

/// splitmix64's finalizer, a bijection of `u64`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The digest of a row of `width` words whose sum is `sum`.
fn finish(width: usize, sum: u64) -> u64 {
    mix(reduce(width as u128 + sum as u128))
}

/// `D` of the row of `width` words that starts with `words` (at most
/// `width` of them) and is zero after them.
pub(crate) fn digest_of(width: usize, words: impl IntoIterator<Item = u64>) -> u64 {
    finish(width, sum_of(words))
}

/// The sum of the terms of `words`, the first at position 0.
fn sum_of(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut words = words.into_iter();
    // Each product is below 2^93, so the tabled words cannot overflow the
    // `u128`: one reduction per row. The table comes first in the zip, so
    // a word past its end is left in `words`.
    let mut acc = 0u128;
    for (&[k_lo, k_hi], v) in WORD_POWERS.iter().zip(words.by_ref()) {
        acc += (v as u32 as u128) * k_lo as u128 + (v >> 32) as u128 * k_hi as u128;
    }
    let mut sum = reduce(acc);
    let mut k = WORD_POWERS[TABLE_WORDS - 1][1];
    for v in words {
        k = mul_mod(k, K);
        let lo = mul_mod(v as u32 as u64, k);
        k = mul_mod(k, K);
        sum = add_mod(sum, add_mod(lo, mul_mod(v >> 32, k)));
    }
    sum
}

/// `D(row)`. Zero words add nothing, so the sum stops at the last
/// non-zero word: a zero-padded queue row costs only its entries.
pub(crate) fn row_digest(row: &[u64]) -> u64 {
    let used = row.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
    digest_of(row.len(), row[..used].iter().copied())
}

/// The sum `Σ_i term(v_i, i) mod p` of a row whose words change at known
/// positions, kept current by the owner's mutation sites so that the row's
/// digest costs one `mix` instead of a pass over the row:
///
/// | Mutation | Call | Sum |
/// |---|---|---|
/// | word `v` appears at `i` where a zero was (a push at the tail, a value written in place) | [`RowSum::add`] | `S + term(v, i)` |
/// | word `v` at `i` becomes zero (truncating the tail, a value overwritten) | [`RowSum::sub`] | `S − term(v, i)` |
/// | the head `v` leaves and every other word moves one left | [`RowSum::pop_front`] | `(S − term(v, 0))·K^-2` |
/// | any other removal | [`RowSum::forget`] | summed afresh at the next digest |
///
/// The sum is kept only from the first [`RowSum::digest`] until
/// [`RowSum::forget`]: until then every mutation is a no-op, so rows whose
/// digest is not read (untraced cycles, runs that record the row itself)
/// pay for no upkeep.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RowSum(Option<u64>);

impl RowSum {
    /// Word `v` appears at position `i`, which held zero.
    pub(crate) fn add(&mut self, v: u64, i: usize) {
        if let Some(sum) = &mut self.0 {
            *sum = add_mod(*sum, term(v, i));
        }
    }

    /// Word `v` at position `i` becomes zero.
    pub(crate) fn sub(&mut self, v: u64, i: usize) {
        if let Some(sum) = &mut self.0 {
            *sum = sub_mod(*sum, term(v, i));
        }
    }

    /// The head word `v` leaves and every other word moves one left.
    pub(crate) fn pop_front(&mut self, v: u64) {
        if let Some(sum) = &mut self.0 {
            // (S − term(v, 0))·K^-2, as S·K^-2 − (lo·K^-1 + hi): the two
            // products do not wait for each other.
            let head = reduce((v as u32 as u128) * K_INV as u128 + (v >> 32) as u128);
            *sum = sub_mod(mul_mod(*sum, K_INV2), head);
        }
    }

    /// Stops keeping the sum until the next [`RowSum::digest`].
    pub(crate) fn forget(&mut self) {
        self.0 = None;
    }

    /// `D` of the row of `width` words that starts with `words()` (at most
    /// `width` of them) and is zero after them. Starts keeping the sum,
    /// from `words()`, if it was not kept.
    pub(crate) fn digest<I: IntoIterator<Item = u64>>(
        &mut self,
        width: usize,
        words: impl FnOnce() -> I,
    ) -> u64 {
        finish(width, *self.0.get_or_insert_with(|| sum_of(words())))
    }
}

/// A queue of PCs whose row sum a [`RowSum`] keeps current: the ROB-PC
/// mirror, whose digest then costs one [`PcDeque::digest`] call per sampled
/// cycle instead of a copy and a pass over the row. The ROB pushes at the
/// tail ([`RowSum::add`] at `len`), pops the head ([`RowSum::pop_front`])
/// and truncates the tail ([`RowSum::sub`] per removed entry).
#[derive(Clone, Debug, Default)]
pub(crate) struct PcDeque {
    pcs: VecDeque<u64>,
    sum: RowSum,
}

impl PcDeque {
    pub(crate) fn with_capacity(capacity: usize) -> PcDeque {
        PcDeque { pcs: VecDeque::with_capacity(capacity), sum: RowSum::default() }
    }

    pub(crate) fn len(&self) -> usize {
        self.pcs.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.pcs.iter().copied()
    }

    pub(crate) fn as_slices(&self) -> (&[u64], &[u64]) {
        self.pcs.as_slices()
    }

    pub(crate) fn push_back(&mut self, pc: u64) {
        self.sum.add(pc, self.pcs.len());
        self.pcs.push_back(pc);
    }

    pub(crate) fn pop_front(&mut self) -> Option<u64> {
        let pc = self.pcs.pop_front()?;
        self.sum.pop_front(pc);
        Some(pc)
    }

    /// Keeps the first `len` entries.
    pub(crate) fn truncate(&mut self, len: usize) {
        while self.pcs.len() > len {
            let pc = self.pcs.pop_back().expect("longer than len");
            self.sum.sub(pc, self.pcs.len());
        }
    }

    /// `D` of the row these PCs form zero-padded to at least `min_width`
    /// words (never truncated). Starts keeping the sum if it was not kept.
    pub(crate) fn digest(&mut self, min_width: usize) -> u64 {
        let pcs = &self.pcs;
        self.sum.digest(pcs.len().max(min_width), || pcs.iter().copied())
    }

    /// Stops keeping the sum until the next [`PcDeque::digest`].
    pub(crate) fn forget_sum(&mut self) {
        self.sum.forget();
    }
}

/// `D(row)` written plainly: Horner's rule over the limbs in `u128` with a
/// `%` per step, and splitmix64's finalizer spelled out. Tests compare
/// every digest path against it.
#[cfg(test)]
pub(crate) fn reference_digest(row: &[u64]) -> u64 {
    let (p, k) = (P as u128, K as u128);
    // From the highest power down: Σ lo_i·K^(2i) + hi_i·K^(2i+1), then one
    // more factor of K.
    let mut acc = 0u128;
    for &v in row.iter().rev() {
        acc = (acc * k + (v >> 32) as u128) % p;
        acc = (acc * k + (v & 0xffff_ffff) as u128) % p;
    }
    let mut z = ((row.len() as u128 + acc * k % p) % p) as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::any;

    #[test]
    fn constants_are_what_they_claim() {
        assert_eq!(mul_mod(K_INV, K), 1, "K_INV is K^-1");
        assert_eq!(mul_mod(K_INV2, mul_mod(K, K)), 1, "K_INV2 is K^-2");
        let mut k = 1u128;
        for (i, pair) in WORD_POWERS.iter().enumerate() {
            k = k * K as u128 % P as u128;
            let lo = k as u64;
            k = k * K as u128 % P as u128;
            assert_eq!(*pair, [lo, k as u64], "word {i}");
        }
        assert_eq!(powers_of_word(TABLE_WORDS), [pow_mod(K, 513), pow_mod(K, 514)]);
        assert_eq!(reduce(u128::MAX), (u128::MAX % P as u128) as u64);
        assert_eq!(reduce(P as u128), 0);
    }

    #[test]
    fn the_width_term_and_each_limb_count() {
        let a = row_digest(&[7]);
        assert_ne!(a, row_digest(&[7, 0]), "a zero word widens the row");
        assert_ne!(row_digest(&[]), row_digest(&[0]));
        assert_ne!(a, row_digest(&[7 | 1 << 32]), "the high limb counts");
        assert_ne!(row_digest(&[1, 0]), row_digest(&[0, 1]), "positions count");
        assert_eq!(row_digest(&[u64::MAX; 3]), reference_digest(&[u64::MAX; 3]));
    }

    /// The rows the proptests build: words from a small alphabet (so rows
    /// repeat and differ in single words) or arbitrary.
    fn words(seeds: &[(bool, u64)]) -> Vec<u64> {
        const ALPHABET: [u64; 4] = [0, 1, 0x8000_0000_0000_0000, 0x8000_0001_0000_0004];
        seeds.iter().map(|&(small, v)| if small { ALPHABET[v as usize % 4] } else { v }).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// `row_digest` and `digest_of` over a zero-padded prefix equal the
        /// Horner reference, for rows past the power table too, and rows
        /// that differ only in trailing zeros, in width or in one high limb
        /// get different digests.
        #[test]
        fn digest_equals_the_horner_reference(
            seeds in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..300),
            zeros in 1usize..40,
            at in any::<usize>(),
            bit in 32u32..64,
        ) {
            let row = words(&seeds);
            let d = row_digest(&row);
            proptest::prop_assert_eq!(d, reference_digest(&row));
            let mut padded = row.clone();
            padded.resize(row.len() + zeros, 0);
            proptest::prop_assert_eq!(digest_of(padded.len(), row.iter().copied()), row_digest(&padded));
            proptest::prop_assert_eq!(row_digest(&padded), reference_digest(&padded));
            proptest::prop_assert_ne!(d, row_digest(&padded), "trailing zeros widen the row");
            if !row.is_empty() {
                let mut flipped = row.clone();
                flipped[at % row.len()] ^= 1 << bit;
                proptest::prop_assert_eq!(row_digest(&flipped), reference_digest(&flipped));
                proptest::prop_assert_ne!(d, row_digest(&flipped), "one high limb differs");
            }
        }

        /// Random pushes, pops of up to a few heads and truncations keep a
        /// `PcDeque`'s digest equal to the reference digest of its row
        /// zero-padded to the minimum width, at every step where it is read,
        /// while it grows past the minimum width and past the power table,
        /// and whether or not the sum was forgotten in between.
        #[test]
        fn pc_deque_digest_tracks_its_padded_row(
            steps in proptest::collection::vec(
                (0u8..4, 0usize..120, proptest::collection::vec((any::<bool>(), any::<u64>()), 0..40)),
                1..40,
            ),
            min_width in 0usize..48,
        ) {
            let mut deque = PcDeque::default();
            let mut model: Vec<u64> = Vec::new();
            for (op, n, seeds) in steps {
                match op {
                    0 | 1 => {
                        for pc in words(&seeds) {
                            deque.push_back(pc);
                            model.push(pc);
                        }
                    }
                    2 => {
                        for _ in 0..n % 6 {
                            proptest::prop_assert_eq!(
                                deque.pop_front(),
                                (!model.is_empty()).then(|| model.remove(0))
                            );
                        }
                    }
                    _ => {
                        let len = model.len().saturating_sub(n % 16);
                        deque.truncate(len);
                        model.truncate(len);
                    }
                }
                proptest::prop_assert!(deque.iter().eq(model.iter().copied()));
                // Read the digest at most steps; forget the sum at some.
                match n % 8 {
                    0 => deque.forget_sum(),
                    1 => {}
                    _ => {
                        let mut row = model.clone();
                        row.resize(model.len().max(min_width), 0);
                        proptest::prop_assert_eq!(deque.digest(min_width), reference_digest(&row));
                    }
                }
            }
        }

        /// Random pushes, head pops, words set in place, middle removals,
        /// tail truncations and forgets, applied to a row and to its
        /// `RowSum` the way the core's queues apply them, keep the sum's
        /// digest equal to the reference digest of the row re-summed from
        /// scratch, zero-padded to the minimum width, at every step where
        /// it is read.
        #[test]
        fn row_sum_tracks_its_resummed_row(
            steps in proptest::collection::vec(
                (0u8..8, any::<usize>(), (any::<bool>(), any::<u64>())),
                1..160,
            ),
            min_width in 0usize..40,
        ) {
            let mut sum = RowSum::default();
            let mut row: Vec<u64> = Vec::new();
            for (op, n, seed) in steps {
                let v = words(&[seed])[0];
                match op {
                    0..=2 => {
                        sum.add(v, row.len());
                        row.push(v);
                    }
                    3 if !row.is_empty() => sum.pop_front(row.remove(0)),
                    4 if !row.is_empty() => {
                        let i = n % row.len();
                        sum.sub(row[i], i);
                        sum.add(v, i);
                        row[i] = v;
                    }
                    5 if !row.is_empty() => {
                        row.remove(n % row.len());
                        sum.forget();
                    }
                    6 => {
                        let len = row.len().saturating_sub(n % 8);
                        while row.len() > len {
                            let w = row.pop().expect("longer than len");
                            sum.sub(w, row.len());
                        }
                    }
                    _ => sum.forget(),
                }
                if n % 3 != 0 {
                    let width = row.len().max(min_width);
                    let mut padded = row.clone();
                    padded.resize(width, 0);
                    let d = sum.digest(width, || row.iter().copied());
                    proptest::prop_assert_eq!(d, reference_digest(&padded));
                }
            }
        }

        #[test]
        fn reduce_equals_remainder(hi in any::<u64>(), lo in any::<u64>()) {
            let x = (hi as u128) << 64 | lo as u128;
            proptest::prop_assert_eq!(reduce(x), (x % P as u128) as u64);
        }
    }
}
