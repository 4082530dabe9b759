//! The OpenSSL constant-time primitives of paper Table V.
//!
//! 27 primitives across seven families (`eq`, `select`, `ge`, `lt`,
//! `cond_swap`, `lookup`, `is_zero`), each implemented in branchless RV64
//! assembly following OpenSSL's `constant_time_*` mask arithmetic, plus a
//! trial driver that streams inputs through the input CSR so traces stay
//! position-independent. Every primitive carries a Rust reference model;
//! [`Primitive::run`] verifies functional agreement while collecting the
//! labeled iteration traces for leakage analysis.

use crate::modexp::ModexpError;
use crate::secrets::SecretSpec;
use microsampler_isa::asm::assemble;
use microsampler_sim::{CoreConfig, Machine, RunResult, TraceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates the three scalar inputs and the secret-class label for one
/// trial.
type ScalarGen = fn(&mut StdRng) -> ([u64; 3], u64);
/// Reference model: inputs to the two output words.
type ScalarRef = fn([u64; 3]) -> (u64, u64);

/// How a primitive's program is built and checked.
enum Kind {
    /// Three scalar inputs via CSR, two scalar outputs.
    Scalar { body: &'static str, gen: ScalarGen, reference: ScalarRef },
    /// Two staged 4-word buffers, one scalar output.
    BigNum { roi: &'static str, gen: BnGen, reference: BnRef },
    /// Staged buffers conditionally swapped in memory, 8 output words.
    SwapBuff,
    /// A 16-entry table scanned with a secret index.
    Lookup,
}

type BnGen = fn(&mut StdRng) -> ([u64; 4], [u64; 4], u64);
type BnRef = fn(&[u64; 4], &[u64; 4]) -> u64;

/// One constant-time primitive under test.
pub struct Primitive {
    /// OpenSSL-style name, e.g. `constant_time_eq`.
    pub name: &'static str,
    kind: Kind,
}

impl std::fmt::Debug for Primitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Primitive").field("name", &self.name).finish()
    }
}

/// The outcome of running one primitive's trial batch.
#[derive(Clone, Debug)]
pub struct PrimitiveOutcome {
    /// Simulation result with labeled iteration traces.
    pub result: RunResult,
    /// Whether every trial's outputs matched the reference model.
    pub functional_ok: bool,
}

/// Number of leading trials run to warm caches, TLB and predictors. They
/// run untraced ([`TraceConfig::warmup_iterations`]), so the returned
/// traces hold only the measured trials (cold-start snapshots are
/// systematically different and would be spurious "features").
pub const WARMUP_TRIALS: usize = 8;

// --- reference helpers ----------------------------------------------------

fn mask64(b: bool) -> u64 {
    if b {
        u64::MAX
    } else {
        0
    }
}

fn mask32(b: bool) -> u64 {
    if b {
        0xFFFF_FFFF
    } else {
        0
    }
}

fn mask8(b: bool) -> u64 {
    if b {
        0xFF
    } else {
        0
    }
}

// --- input generators -------------------------------------------------------

fn gen_eq(rng: &mut StdRng) -> ([u64; 3], u64) {
    let a: u64 = rng.gen();
    let equal: bool = rng.gen();
    let b = if equal { a } else { rng.gen::<u64>() | 1 ^ a.rotate_left(1) };
    ([a, b, 0], (a == b) as u64)
}

fn gen_eq32(rng: &mut StdRng) -> ([u64; 3], u64) {
    let a: u64 = rng.gen::<u32>() as u64;
    let equal: bool = rng.gen();
    let b = if equal { a } else { (a as u32).wrapping_add(rng.gen_range(1..=u32::MAX)) as u64 };
    ([a, b, 0], (a == b) as u64)
}

fn gen_select(rng: &mut StdRng) -> ([u64; 3], u64) {
    let pick: bool = rng.gen();
    ([mask64(pick), rng.gen(), rng.gen()], pick as u64)
}

fn gen_cmp(rng: &mut StdRng) -> ([u64; 3], u64) {
    // Mix full-range values with near-equal pairs for boundary coverage.
    let a: u64 = rng.gen();
    let b: u64 = if rng.gen::<bool>() { rng.gen() } else { a.wrapping_add(rng.gen_range(0..3)) };
    ([a, b, 0], (a < b) as u64)
}

fn gen_cmp_s(rng: &mut StdRng) -> ([u64; 3], u64) {
    let (v, _) = gen_cmp(rng);
    ([v[0], v[1], 0], ((v[0] as i64) < (v[1] as i64)) as u64)
}

fn gen_cmp8_s(rng: &mut StdRng) -> ([u64; 3], u64) {
    let a: u64 = rng.gen::<u8>() as u64;
    let b: u64 = rng.gen::<u8>() as u64;
    ([a, b, 0], ((a as u8 as i8) >= (b as u8 as i8)) as u64)
}

fn gen_cmp32(rng: &mut StdRng) -> ([u64; 3], u64) {
    let a: u64 = rng.gen::<u32>() as u64;
    let b: u64 = rng.gen::<u32>() as u64;
    ([a, b, 0], ((a as u32) < (b as u32)) as u64)
}

fn gen_swap(rng: &mut StdRng) -> ([u64; 3], u64) {
    let do_swap: bool = rng.gen();
    ([mask64(do_swap), rng.gen(), rng.gen()], do_swap as u64)
}

fn gen_swap32(rng: &mut StdRng) -> ([u64; 3], u64) {
    let do_swap: bool = rng.gen();
    ([mask32(do_swap), rng.gen::<u32>() as u64, rng.gen::<u32>() as u64], do_swap as u64)
}

fn gen_is_zero(rng: &mut StdRng) -> ([u64; 3], u64) {
    let zero: bool = rng.gen();
    let v = if zero { 0 } else { rng.gen::<u64>() | 1 };
    ([v, 0, 0], zero as u64)
}

fn gen_is_zero8(rng: &mut StdRng) -> ([u64; 3], u64) {
    let zero: bool = rng.gen();
    let v = if zero { 0 } else { rng.gen_range(1..=255u64) };
    ([v, 0, 0], zero as u64)
}

fn gen_is_zero32(rng: &mut StdRng) -> ([u64; 3], u64) {
    let zero: bool = rng.gen();
    let v = if zero { 0 } else { rng.gen_range(1..=u32::MAX as u64) };
    ([v, 0, 0], zero as u64)
}

// --- the catalog -----------------------------------------------------------

impl Primitive {
    /// All 27 primitives of Table V (`CRYPTO_memcmp` is the separate
    /// [`crate::memcmp::MemcmpKernel`] case study).
    pub fn all() -> Vec<Primitive> {
        fn scalar(
            name: &'static str,
            body: &'static str,
            gen: ScalarGen,
            reference: ScalarRef,
        ) -> Primitive {
            Primitive { name, kind: Kind::Scalar { body, gen, reference } }
        }
        vec![
            // -- eq family --
            scalar("constant_time_eq", EQ_64, gen_eq, |v| (mask64(v[0] == v[1]), 0)),
            scalar("constant_time_eq_8", EQ_8, gen_eq, |v| (mask8(v[0] == v[1]), 0)),
            scalar("constant_time_eq_int", EQ_INT, gen_eq32, |v| {
                (mask32(v[0] as u32 == v[1] as u32), 0)
            }),
            scalar("constant_time_eq_int_8", EQ_INT_8, gen_eq32, |v| {
                (mask8(v[0] as u32 == v[1] as u32), 0)
            }),
            Primitive {
                name: "constant_time_eq_bn",
                kind: Kind::BigNum {
                    roi: EQ_BN_ROI,
                    gen: gen_bn_eq,
                    reference: |a, b| mask64(a == b),
                },
            },
            // -- select family --
            scalar("constant_time_select", SELECT_64, gen_select, |v| {
                ((v[0] & v[1]) | (!v[0] & v[2]), 0)
            }),
            scalar("constant_time_select_8", SELECT_8, gen_select, |v| {
                (((v[0] & v[1]) | (!v[0] & v[2])) & 0xFF, 0)
            }),
            scalar("constant_time_select_32", SELECT_32, gen_select, |v| {
                (((v[0] & v[1]) | (!v[0] & v[2])) & 0xFFFF_FFFF, 0)
            }),
            scalar("constant_time_select_64", SELECT_64, gen_select, |v| {
                ((v[0] & v[1]) | (!v[0] & v[2]), 0)
            }),
            // -- ge family --
            scalar("constant_time_ge", GE_64, gen_cmp, |v| (mask64(v[0] >= v[1]), 0)),
            scalar("constant_time_ge_s", GE_S, gen_cmp_s, |v| {
                (mask64((v[0] as i64) >= (v[1] as i64)), 0)
            }),
            scalar("constant_time_ge_8_s", GE_8_S, gen_cmp8_s, |v| {
                (mask8((v[0] as u8 as i8) >= (v[1] as u8 as i8)), 0)
            }),
            // -- lt family --
            scalar("constant_time_lt", LT_64_PRIM, gen_cmp, |v| (mask64(v[0] < v[1]), 0)),
            scalar("constant_time_lt_s", LT_S, gen_cmp_s, |v| {
                (mask64((v[0] as i64) < (v[1] as i64)), 0)
            }),
            scalar("constant_time_lt_32", LT_32, gen_cmp32, |v| {
                (mask32((v[0] as u32) < (v[1] as u32)), 0)
            }),
            scalar("constant_time_lt_64", LT_64_PRIM, gen_cmp, |v| (mask64(v[0] < v[1]), 0)),
            Primitive {
                name: "constant_time_lt_bn",
                kind: Kind::BigNum { roi: LT_BN_ROI, gen: gen_bn_lt, reference: bn_lt_ref },
            },
            // -- cond_swap family --
            scalar("constant_time_cond_swap", SWAP_64, gen_swap, swap_ref),
            scalar("constant_time_cond_swap_32", SWAP_32_BODY, gen_swap32, |v| {
                let t = (v[1] ^ v[2]) & v[0] & 0xFFFF_FFFF;
                (v[1] ^ t, v[2] ^ t)
            }),
            scalar("constant_time_cond_swap_64", SWAP_64, gen_swap, swap_ref),
            Primitive { name: "constant_time_cond_swap_buff", kind: Kind::SwapBuff },
            // -- lookup --
            Primitive { name: "constant_time_lookup", kind: Kind::Lookup },
            // -- is_zero family --
            scalar("constant_time_is_zero", IZ_64, gen_is_zero, |v| (mask64(v[0] == 0), 0)),
            scalar("constant_time_is_zero_s", IZ_64, gen_is_zero, |v| (mask64(v[0] == 0), 0)),
            scalar("constant_time_is_zero_8", IZ_8, gen_is_zero8, |v| (mask8(v[0] == 0), 0)),
            scalar("constant_time_is_zero_32", IZ_32, gen_is_zero32, |v| {
                (mask32(v[0] as u32 == 0), 0)
            }),
            scalar("constant_time_is_zero_64", IZ_64, gen_is_zero, |v| (mask64(v[0] == 0), 0)),
        ]
    }

    /// The complete assembly source (driver plus primitive body) this
    /// primitive runs — the same text the dynamic trials assemble, so the
    /// static analyzer sees exactly what the simulator executes.
    pub fn source(&self) -> String {
        match &self.kind {
            Kind::Scalar { body, .. } => format!("{SCALAR_DRIVER}\nprim:\n{body}\n    ret\n"),
            Kind::BigNum { roi, .. } => format!("{BN_DRIVER_PRE}\n{roi}\n{BN_DRIVER_POST}"),
            Kind::SwapBuff => SWAP_BUFF_PROGRAM.to_string(),
            Kind::Lookup => LOOKUP_PROGRAM.to_string(),
        }
    }

    /// Taint sources for static analysis. Every primitive's secrets enter
    /// through the input CSR; the buffer-staging kernels additionally hold
    /// secret bytes in named `.data` regions.
    pub fn secret_spec(&self) -> SecretSpec {
        match &self.kind {
            Kind::Scalar { .. } => SecretSpec::csr_only(),
            Kind::BigNum { .. } => SecretSpec::csr_and_regions(&[("abn", 32), ("bbn", 32)]),
            Kind::SwapBuff => SecretSpec::csr_and_regions(&[("abuf", 32), ("bbuf", 32)]),
            // The lookup table itself is public; the secret is the index,
            // which arrives through the CSR.
            Kind::Lookup => SecretSpec::csr_only(),
        }
    }

    /// Runs [`WARMUP_TRIALS`] untraced warm-up trials, then `trials`
    /// labeled trials, and verifies every output against the reference
    /// model. `trace.warmup_iterations` is overridden with
    /// [`WARMUP_TRIALS`].
    ///
    /// # Errors
    ///
    /// Propagates assembler and simulator errors.
    pub fn run(
        &self,
        config: CoreConfig,
        trials: usize,
        seed: u64,
        trace: TraceConfig,
    ) -> Result<PrimitiveOutcome, ModexpError> {
        let trace = TraceConfig { warmup_iterations: WARMUP_TRIALS, ..trace };
        match &self.kind {
            Kind::Scalar { gen, reference, .. } => {
                self.run_scalar(config, trials, seed, trace, *gen, *reference)
            }
            Kind::BigNum { gen, reference, .. } => {
                self.run_bignum(config, trials, seed, trace, *gen, *reference)
            }
            Kind::SwapBuff => self.run_swap_buff(config, trials, seed, trace),
            Kind::Lookup => self.run_lookup(config, trials, seed, trace),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_scalar(
        &self,
        config: CoreConfig,
        trials: usize,
        seed: u64,
        trace: TraceConfig,
        gen: ScalarGen,
        reference: ScalarRef,
    ) -> Result<PrimitiveOutcome, ModexpError> {
        let program = assemble(&self.source())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let total = WARMUP_TRIALS + trials;
        let mut words = vec![total as u64];
        let mut expected = Vec::with_capacity(total * 2);
        for _ in 0..total {
            let (inputs, label) = gen(&mut rng);
            words.extend(inputs);
            words.push(label);
            let (r0, r1) = reference(inputs);
            expected.push(r0);
            expected.push(r1);
        }
        let mut machine = Machine::with_trace_config(config, &program, trace);
        machine.push_inputs(words);
        let result = machine.run(500_000 + total as u64 * 20_000)?;
        let outputs = machine.take_outputs();
        Ok(PrimitiveOutcome { functional_ok: outputs == expected, result })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_bignum(
        &self,
        config: CoreConfig,
        trials: usize,
        seed: u64,
        trace: TraceConfig,
        gen: BnGen,
        reference: BnRef,
    ) -> Result<PrimitiveOutcome, ModexpError> {
        let program = assemble(&self.source())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let total = WARMUP_TRIALS + trials;
        let mut words = vec![total as u64];
        let mut expected = Vec::with_capacity(total);
        for _ in 0..total {
            let (a, b, label) = gen(&mut rng);
            words.extend(a);
            words.extend(b);
            words.push(label);
            expected.push(reference(&a, &b));
        }
        let mut machine = Machine::with_trace_config(config, &program, trace);
        machine.push_inputs(words);
        let result = machine.run(500_000 + total as u64 * 30_000)?;
        let outputs = machine.take_outputs();
        Ok(PrimitiveOutcome { functional_ok: outputs == expected, result })
    }

    fn run_swap_buff(
        &self,
        config: CoreConfig,
        trials: usize,
        seed: u64,
        trace: TraceConfig,
    ) -> Result<PrimitiveOutcome, ModexpError> {
        let program = assemble(&self.source())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let total = WARMUP_TRIALS + trials;
        let mut words = vec![total as u64];
        let mut expected = Vec::with_capacity(total * 8);
        for _ in 0..total {
            let do_swap: bool = rng.gen();
            let a: [u64; 4] = rng.gen();
            let b: [u64; 4] = rng.gen();
            words.extend(a);
            words.extend(b);
            words.push(mask64(do_swap));
            words.push(do_swap as u64); // label
            let (ea, eb) = if do_swap { (b, a) } else { (a, b) };
            expected.extend(ea);
            expected.extend(eb);
        }
        let mut machine = Machine::with_trace_config(config, &program, trace);
        machine.push_inputs(words);
        let result = machine.run(500_000 + total as u64 * 30_000)?;
        let outputs = machine.take_outputs();
        Ok(PrimitiveOutcome { functional_ok: outputs == expected, result })
    }

    fn run_lookup(
        &self,
        config: CoreConfig,
        trials: usize,
        seed: u64,
        trace: TraceConfig,
    ) -> Result<PrimitiveOutcome, ModexpError> {
        let program = assemble(&self.source())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let table: Vec<u64> = (0..16).map(|_| rng.gen()).collect();
        let total = WARMUP_TRIALS + trials;
        let mut words = table.clone();
        words.push(total as u64);
        let mut expected = Vec::with_capacity(total);
        for _ in 0..total {
            let idx = rng.gen_range(0..16u64);
            words.push(idx); // secret index doubles as the label
            expected.push(table[idx as usize]);
        }
        let mut machine = Machine::with_trace_config(config, &program, trace);
        machine.push_inputs(words);
        let result = machine.run(500_000 + total as u64 * 60_000)?;
        let outputs = machine.take_outputs();
        Ok(PrimitiveOutcome { functional_ok: outputs == expected, result })
    }
}

fn swap_ref(v: [u64; 3]) -> (u64, u64) {
    let t = (v[1] ^ v[2]) & v[0];
    (v[1] ^ t, v[2] ^ t)
}

fn gen_bn_eq(rng: &mut StdRng) -> ([u64; 4], [u64; 4], u64) {
    let a: [u64; 4] = rng.gen();
    if rng.gen() {
        (a, a, 1)
    } else {
        let mut b = a;
        b[rng.gen_range(0..4usize)] ^= rng.gen::<u64>() | 1;
        (a, b, (a == b) as u64)
    }
}

fn gen_bn_lt(rng: &mut StdRng) -> ([u64; 4], [u64; 4], u64) {
    let a: [u64; 4] = rng.gen();
    let b: [u64; 4] = if rng.gen() {
        rng.gen()
    } else {
        let mut b = a;
        let i = rng.gen_range(0..4usize);
        b[i] = b[i].wrapping_add(1);
        b
    };
    let label = bn_lt_ref(&a, &b);
    (a, b, label)
}

/// Little-endian limb comparison: 1 when `a < b`.
fn bn_lt_ref(a: &[u64; 4], b: &[u64; 4]) -> u64 {
    let mut borrow = 0u64;
    for i in 0..4 {
        let lt = (a[i] < b[i]) as u64;
        let eq = (a[i] == b[i]) as u64;
        borrow = lt | (eq & borrow);
    }
    borrow
}

// --- scalar primitive bodies -----------------------------------------------
// Bodies are assembled from string literals with `concat!`. Each implements
// the corresponding OpenSSL `constant_time_*` mask arithmetic and ends with
// results in a0 (and a1 for two-output primitives; others zero it).

/// `constant_time_eq`: `is_zero(a ^ b)` (OpenSSL's definition).
const EQ_64: &str = concat!(
    "    xor  a0, a0, a1\n",
    "    not  t0, a0\n    addi t1, a0, -1\n    and  t0, t0, t1\n    srai a0, t0, 63\n",
    "    li a1, 0\n"
);

const EQ_8: &str = concat!(
    "    xor  a0, a0, a1\n",
    "    not  t0, a0\n    addi t1, a0, -1\n    and  t0, t0, t1\n    srai a0, t0, 63\n",
    "    andi a0, a0, 0xff\n",
    "    li a1, 0\n"
);

const EQ_INT: &str = concat!(
    "    sext.w a0, a0\n    sext.w a1, a1\n    xor a0, a0, a1\n",
    "    sext.w a0, a0\n    not   t0, a0\n    addiw t1, a0, -1\n    and   t0, t0, t1\n",
    "    sraiw a0, t0, 31\n    slli  a0, a0, 32\n    srli  a0, a0, 32\n",
    "    li a1, 0\n"
);

const EQ_INT_8: &str = concat!(
    "    sext.w a0, a0\n    sext.w a1, a1\n    xor a0, a0, a1\n",
    "    sext.w a0, a0\n    not   t0, a0\n    addiw t1, a0, -1\n    and   t0, t0, t1\n",
    "    sraiw a0, t0, 31\n",
    "    andi a0, a0, 0xff\n",
    "    li a1, 0\n"
);

const SELECT_64: &str = concat!(
    "    and t0, a0, a1\n    not t1, a0\n    and t1, t1, a2\n    or a0, t0, t1\n",
    "    li a1, 0\n"
);

const SELECT_8: &str = concat!(
    "    and t0, a0, a1\n    not t1, a0\n    and t1, t1, a2\n    or a0, t0, t1\n",
    "    andi a0, a0, 0xff\n",
    "    li a1, 0\n"
);

const SELECT_32: &str = concat!(
    "    and t0, a0, a1\n    not t1, a0\n    and t1, t1, a2\n    or a0, t0, t1\n",
    "    slli a0, a0, 32\n    srli a0, a0, 32\n",
    "    li a1, 0\n"
);

const LT_64_PRIM: &str = concat!(
    "    xor  t0, a0, a1\n    sub  t2, a0, a1\n    xor  t2, t2, a1\n",
    "    or   t0, t0, t2\n    xor  t0, t0, a0\n    srai a0, t0, 63\n",
    "    li a1, 0\n"
);

const GE_64: &str = concat!(
    "    xor  t0, a0, a1\n    sub  t2, a0, a1\n    xor  t2, t2, a1\n",
    "    or   t0, t0, t2\n    xor  t0, t0, a0\n    srai a0, t0, 63\n",
    "    not  a0, a0\n",
    "    li a1, 0\n"
);

const LT_S: &str = concat!(
    "    li   t3, 1\n    slli t3, t3, 63\n    xor  a0, a0, t3\n    xor  a1, a1, t3\n",
    "    xor  t0, a0, a1\n    sub  t2, a0, a1\n    xor  t2, t2, a1\n",
    "    or   t0, t0, t2\n    xor  t0, t0, a0\n    srai a0, t0, 63\n",
    "    li a1, 0\n"
);

const GE_S: &str = concat!(
    "    li   t3, 1\n    slli t3, t3, 63\n    xor  a0, a0, t3\n    xor  a1, a1, t3\n",
    "    xor  t0, a0, a1\n    sub  t2, a0, a1\n    xor  t2, t2, a1\n",
    "    or   t0, t0, t2\n    xor  t0, t0, a0\n    srai a0, t0, 63\n",
    "    not  a0, a0\n",
    "    li a1, 0\n"
);

const GE_8_S: &str = concat!(
    "    slli a0, a0, 56\n    slli a1, a1, 56\n", // 8-bit values into the sign position
    "    li   t3, 1\n    slli t3, t3, 63\n    xor  a0, a0, t3\n    xor  a1, a1, t3\n",
    "    xor  t0, a0, a1\n    sub  t2, a0, a1\n    xor  t2, t2, a1\n",
    "    or   t0, t0, t2\n    xor  t0, t0, a0\n    srai a0, t0, 63\n",
    "    not  a0, a0\n",
    "    andi a0, a0, 0xff\n",
    "    li a1, 0\n"
);

const LT_32: &str = concat!(
    // Inputs already zero-extended 32-bit values; 64-bit compare is exact.
    "    xor  t0, a0, a1\n    sub  t2, a0, a1\n    xor  t2, t2, a1\n",
    "    or   t0, t0, t2\n    xor  t0, t0, a0\n    srai a0, t0, 63\n",
    "    slli a0, a0, 32\n    srli a0, a0, 32\n",
    "    li a1, 0\n"
);

const SWAP_64: &str = concat!(
    "    mv   t1, a1\n    xor  t0, a1, a2\n    and  t0, t0, a0\n",
    "    xor  a0, t1, t0\n    xor  a1, a2, t0\n"
);

const SWAP_32_BODY: &str = concat!(
    "    mv   t1, a1\n    xor  t0, a1, a2\n    and  t0, t0, a0\n",
    "    slli t0, t0, 32\n    srli t0, t0, 32\n",
    "    xor  a0, t1, t0\n    xor  a1, a2, t0\n"
);

const IZ_64: &str = concat!(
    "    not  t0, a0\n    addi t1, a0, -1\n    and  t0, t0, t1\n    srai a0, t0, 63\n",
    "    li a1, 0\n"
);

const IZ_8: &str = concat!(
    "    andi a0, a0, 0xff\n",
    "    not  t0, a0\n    addi t1, a0, -1\n    and  t0, t0, t1\n    srai a0, t0, 63\n",
    "    andi a0, a0, 0xff\n",
    "    li a1, 0\n"
);

const IZ_32: &str = concat!(
    "    sext.w a0, a0\n    not   t0, a0\n    addiw t1, a0, -1\n    and   t0, t0, t1\n",
    "    sraiw a0, t0, 31\n    slli  a0, a0, 32\n    srli  a0, a0, 32\n",
    "    li a1, 0\n"
);

// --- drivers ----------------------------------------------------------------

/// Scalar driver: trials count, then per trial 3 inputs + label via the
/// input CSR, two outputs via the output CSR.
const SCALAR_DRIVER: &str = r#"
.text
_start:
    csrw 0x8c0, zero
    csrr s0, 0x8c8          # trials
p_loop:
    beqz s0, p_done
    csrr a0, 0x8c8
    csrr a1, 0x8c8
    csrr a2, 0x8c8
    csrr s1, 0x8c8          # label
    csrw 0x8c2, s1          # ITER_START
    call prim
    csrw 0x8c3, zero        # ITER_END
    csrw 0x8c9, a0
    csrw 0x8c9, a1
    addi s0, s0, -1
    j p_loop
p_done:
    csrw 0x8c1, zero
    ecall
"#;

/// BigNum driver prefix: stages two 4-word buffers, reads the label, opens
/// the iteration and loads buffer base pointers into a0/a1.
const BN_DRIVER_PRE: &str = r#"
.data
abn: .zero 32
bbn: .zero 32
.text
_start:
    csrw 0x8c0, zero
    csrr s0, 0x8c8
bn_loop:
    beqz s0, bn_done
    la   t0, abn
    li   t1, 8              # stage both buffers back to back
bn_stage:
    csrr t2, 0x8c8
    sd   t2, 0(t0)
    addi t0, t0, 8
    addi t1, t1, -1
    bgtz t1, bn_stage
    csrr s1, 0x8c8          # label
    csrw 0x8c2, s1
    la   a0, abn
    la   a1, bbn
"#;

/// BigNum driver suffix: closes the iteration and reports `a0`.
const BN_DRIVER_POST: &str = r#"
    csrw 0x8c3, zero
    csrw 0x8c9, a0
    addi s0, s0, -1
    j bn_loop
bn_done:
    csrw 0x8c1, zero
    ecall
"#;

/// `constant_time_eq_bn` region of interest: OR-fold of limb XORs, then
/// the is-zero mask.
const EQ_BN_ROI: &str = r#"
    li   t0, 0
    li   t3, 4
eqbn_loop:
    ld   t1, 0(a0)
    ld   t2, 0(a1)
    xor  t1, t1, t2
    or   t0, t0, t1
    addi a0, a0, 8
    addi a1, a1, 8
    addi t3, t3, -1
    bgtz t3, eqbn_loop
    mv   a0, t0
    not  t0, a0
    addi t1, a0, -1
    and  t0, t0, t1
    srai a0, t0, 63
"#;

/// `constant_time_lt_bn` region of interest: branchless borrow chain over
/// the four little-endian limbs.
const LT_BN_ROI: &str = r#"
    li   t0, 0              # borrow
    li   t3, 4
ltbn_loop:
    ld   t1, 0(a0)
    ld   t2, 0(a1)
    sltu t4, t1, t2         # a_i < b_i
    xor  t5, t1, t2
    seqz t5, t5             # a_i == b_i
    and  t5, t5, t0
    or   t0, t4, t5
    addi a0, a0, 8
    addi a1, a1, 8
    addi t3, t3, -1
    bgtz t3, ltbn_loop
    mv   a0, t0
"#;

/// `constant_time_cond_swap_buff`: stages two 4-word buffers plus a mask,
/// swaps in memory inside the iteration, reports both buffers.
const SWAP_BUFF_PROGRAM: &str = r#"
.data
abuf: .zero 32
bbuf: .zero 32
.text
_start:
    csrw 0x8c0, zero
    csrr s0, 0x8c8
sw_loop:
    beqz s0, sw_done
    la   t0, abuf
    li   t1, 8
sw_stage:
    csrr t2, 0x8c8
    sd   t2, 0(t0)
    addi t0, t0, 8
    addi t1, t1, -1
    bgtz t1, sw_stage
    csrr s2, 0x8c8          # mask
    csrr s1, 0x8c8          # label
    csrw 0x8c2, s1
    la   a0, abuf
    la   a1, bbuf
    li   t3, 4
sw_body:
    ld   t1, 0(a0)
    ld   t2, 0(a1)
    xor  t0, t1, t2
    and  t0, t0, s2
    xor  t1, t1, t0
    xor  t2, t2, t0
    sd   t1, 0(a0)
    sd   t2, 0(a1)
    addi a0, a0, 8
    addi a1, a1, 8
    addi t3, t3, -1
    bgtz t3, sw_body
    csrw 0x8c3, zero
    la   t0, abuf           # report both buffers
    li   t1, 8
sw_out:
    ld   t2, 0(t0)
    csrw 0x8c9, t2
    addi t0, t0, 8
    addi t1, t1, -1
    bgtz t1, sw_out
    addi s0, s0, -1
    j sw_loop
sw_done:
    csrw 0x8c1, zero
    ecall
"#;

/// `constant_time_lookup`: a 16-entry table scanned in full with a
/// mask-accumulated select; the secret index is the class label.
const LOOKUP_PROGRAM: &str = r#"
.data
tbl: .zero 128
.text
_start:
    la   t0, tbl            # stage the (public) table once
    li   t1, 16
lk_fill:
    csrr t2, 0x8c8
    sd   t2, 0(t0)
    addi t0, t0, 8
    addi t1, t1, -1
    bgtz t1, lk_fill
    csrw 0x8c0, zero
    csrr s0, 0x8c8          # trials
lk_loop:
    beqz s0, lk_done
    csrr s1, 0x8c8          # secret index (also the label)
    csrw 0x8c2, s1
    la   t0, tbl
    li   t1, 0              # i
    li   t2, 0              # acc
lk_scan:
    xor  t3, t1, s1         # eq-mask(i, idx)
    not  t4, t3
    addi t5, t3, -1
    and  t4, t4, t5
    srai t4, t4, 63
    ld   t5, 0(t0)
    and  t5, t5, t4
    or   t2, t2, t5
    addi t0, t0, 8
    addi t1, t1, 1
    slti t3, t1, 16
    bnez t3, lk_scan
    csrw 0x8c3, zero
    csrw 0x8c9, t2
    addi s0, s0, -1
    j lk_loop
lk_done:
    csrw 0x8c1, zero
    ecall
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_27_primitives_with_unique_names() {
        let all = Primitive::all();
        assert_eq!(all.len(), 27);
        let mut names: Vec<&str> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 27, "duplicate primitive names");
    }

    #[test]
    fn every_primitive_is_functionally_correct() {
        for p in Primitive::all() {
            let outcome = p
                .run(CoreConfig::small_boom(), 6, 0xC0FFEE, TraceConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(outcome.functional_ok, "{} outputs diverged from the reference", p.name);
            assert_eq!(outcome.result.iterations.len(), 6, "{}", p.name);
        }
    }

    #[test]
    fn bn_lt_reference_cases() {
        assert_eq!(bn_lt_ref(&[0, 0, 0, 0], &[1, 0, 0, 0]), 1);
        assert_eq!(bn_lt_ref(&[1, 0, 0, 0], &[0, 0, 0, 0]), 0);
        assert_eq!(bn_lt_ref(&[5, 5, 5, 5], &[5, 5, 5, 5]), 0);
        // Most-significant limb dominates.
        assert_eq!(bn_lt_ref(&[u64::MAX, 0, 0, 0], &[0, 0, 0, 1]), 1);
        assert_eq!(bn_lt_ref(&[0, 0, 0, 1], &[u64::MAX, u64::MAX, u64::MAX, 0]), 0);
    }

    #[test]
    fn labels_match_secret_classes() {
        let p = &Primitive::all()[0]; // constant_time_eq
        let outcome = p.run(CoreConfig::small_boom(), 10, 5, TraceConfig::default()).unwrap();
        // Labels are 0/1 and both classes appear over 10 trials with this
        // seed (gen_eq flips a coin per trial).
        let labels: std::collections::BTreeSet<u64> =
            outcome.result.iterations.iter().map(|i| i.label).collect();
        assert!(labels.iter().all(|&l| l <= 1));
    }

    #[test]
    fn lookup_labels_are_indices() {
        let lookup =
            Primitive::all().into_iter().find(|p| p.name == "constant_time_lookup").unwrap();
        let outcome = lookup.run(CoreConfig::small_boom(), 8, 9, TraceConfig::default()).unwrap();
        assert!(outcome.functional_ok);
        for it in &outcome.result.iterations {
            assert!(it.label < 16);
        }
    }
}
