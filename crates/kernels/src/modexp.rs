//! Square-and-multiply modular exponentiation — the paper's central case
//! study, in five flavors (Listings 1–6).
//!
//! All variants share one driver skeleton: for every key bit (MSB first) an
//! iteration squares the accumulator, computes the multiply candidate, and
//! then "assigns" the result with a variant-specific conditional-copy. Each
//! iteration is bracketed with `ITER_START`/`ITER_END` markers labeled with
//! the key bit being processed — the secret class for the statistical
//! analysis.
//!
//! Working buffers (`rbuf`, `tbuf`) sit on one data page; the `dummy`
//! buffer used by the libgcrypt-style variants is padded onto a different
//! page (the paper notes the TLBleed consequence of dst/dummy mapping to
//! different pages).

use microsampler_isa::asm::{assemble, AsmError};
use microsampler_isa::Program;
use microsampler_sim::{CoreConfig, Machine, RunResult, SimError, TraceConfig, UnitSet};

/// Which conditional-assignment implementation the modexp driver uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModexpVariant {
    /// Listing 1: naive square-and-multiply with a secret-dependent branch
    /// (the known-leaky baseline).
    Naive,
    /// Listing 2: register-level constant-time conditional move
    /// (`b = -b; t = (r^a) & b; r ^= t`).
    CtCmov,
    /// Listings 3/4 (`ME-V1-CV`): libgcrypt-style conditional copy where
    /// the compiler preloads `dst` before checking `ctl`, leaving a
    /// two-instruction imbalance on the `ctl == 0` path.
    V1CompilerVuln,
    /// Listing 5 (`ME-V1-MV`): branchless `ctl` check, but `memmove`
    /// targets `dst` or `dummy` depending on the secret.
    V1MicroarchVuln,
    /// Listing 6 (`ME-V2-Safe`): BearSSL byte-wise branchless conditional
    /// copy — same addresses and instructions regardless of the secret.
    V2Safe,
}

impl ModexpVariant {
    /// Paper case-study name.
    pub fn name(self) -> &'static str {
        match self {
            ModexpVariant::Naive => "SAM-Naive",
            ModexpVariant::CtCmov => "SAM-CT-CMOV",
            ModexpVariant::V1CompilerVuln => "ME-V1-CV",
            ModexpVariant::V1MicroarchVuln => "ME-V1-MV",
            ModexpVariant::V2Safe => "ME-V2-Safe",
        }
    }

    /// All variants.
    pub const ALL: [ModexpVariant; 5] = [
        ModexpVariant::Naive,
        ModexpVariant::CtCmov,
        ModexpVariant::V1CompilerVuln,
        ModexpVariant::V1MicroarchVuln,
        ModexpVariant::V2Safe,
    ];
}

/// A configured modular-exponentiation kernel.
#[derive(Clone, Debug)]
pub struct ModexpKernel {
    /// Conditional-assignment flavor.
    pub variant: ModexpVariant,
    /// Key length in bytes (one iteration per bit).
    pub key_bytes: usize,
    /// The (public) base.
    pub base: u64,
    /// The (public) modulus; must fit in 32 bits so 64-bit multiplies
    /// cannot overflow.
    pub modulus: u64,
}

impl ModexpKernel {
    /// A kernel with the default base/modulus used across the evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `key_bytes` is zero or larger than 256.
    pub fn new(variant: ModexpVariant, key_bytes: usize) -> ModexpKernel {
        assert!(key_bytes > 0 && key_bytes <= 256, "key length out of range");
        ModexpKernel { variant, key_bytes, base: 0x9E3779B9, modulus: 0xFFFF_FFFB }
    }

    /// Assembles the kernel program.
    ///
    /// # Errors
    ///
    /// Returns the assembler error if the generated source is invalid
    /// (a bug — exercised by tests for every variant).
    pub fn program(&self) -> Result<Program, AsmError> {
        assemble(&self.source())
    }

    /// The generated assembly source (useful for inspection and docs).
    pub fn source(&self) -> String {
        let ccopy = match self.variant {
            ModexpVariant::Naive => NAIVE_ASSIGN,
            ModexpVariant::CtCmov => CMOV_ASSIGN,
            ModexpVariant::V1CompilerVuln => V1_CV_ASSIGN,
            ModexpVariant::V1MicroarchVuln => V1_MV_ASSIGN,
            ModexpVariant::V2Safe => V2_SAFE_ASSIGN,
        };
        let memmove = match self.variant {
            ModexpVariant::V1CompilerVuln | ModexpVariant::V1MicroarchVuln => MEMMOVE,
            _ => "",
        };
        format!(
            r#"
            .equ KEYLEN, {keylen}
            .data
            rbuf:   .zero 32
            tbuf:   .zero 32
                    .zero 4032          # pad: dummy lands on the next page
            dummy:  .zero 32
            key:    .zero {keylen}
            .text
            _start:
                csrw 0x8c0, zero        # SCR start
                li   s0, {base}         # base
                li   s1, {modulus}      # modulus
                la   s2, rbuf
                la   s3, tbuf
                la   s4, dummy
                la   s5, key
                li   t0, 1
                sd   t0, 0(s2)          # r = 1
                li   s6, 0              # key byte index (MSB first)
            byte_loop:
                add  t0, s5, s6
                lbu  s7, 0(t0)          # current key byte
                li   s8, 7              # bit index, 7 down to 0
            bit_loop:
                srl  t0, s7, s8
                andi s9, t0, 1          # current key bit = the secret class
                csrw 0x8c2, s9          # ITER_START, label = bit
                ld   t0, 0(s2)
                mul  t1, t0, t0
                remu t1, t1, s1         # r = r*r mod m (always)
                sd   t1, 0(s2)
                mul  t2, t1, s0
                remu t2, t2, s1         # t = a*r mod m (always)
                sd   t2, 0(s3)
                mv   a0, s9             # ctl
                mv   a1, s2             # dst = rbuf
                mv   a2, s4             # dummy
                mv   a3, s3             # src = tbuf
                li   a4, 32             # len
                call ccopy
                csrw 0x8c3, zero        # ITER_END
                addi s8, s8, -1
                bgez s8, bit_loop
                addi s6, s6, 1
                li   t0, KEYLEN
                blt  s6, t0, byte_loop
                csrw 0x8c1, zero        # SCR end
                ld   a0, 0(s2)          # result
                ecall
            {ccopy}
            {memmove}
            "#,
            keylen = self.key_bytes,
            base = self.base,
            modulus = self.modulus,
        )
    }

    /// Runs the kernel with `key` on `config`, returning the run result.
    ///
    /// # Errors
    ///
    /// Propagates assembler and simulator errors.
    pub fn run(
        &self,
        config: CoreConfig,
        key: &[u8],
        trace: TraceConfig,
    ) -> Result<RunResult, ModexpError> {
        let mut machine = self.machine(config, key, trace)?;
        let result = machine.run(cycle_budget(self.key_bytes))?;
        Ok(result)
    }

    /// Builds a loaded machine (key written to memory) without running it —
    /// used by harnesses that want to warm/flush caches first.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors.
    pub fn machine(
        &self,
        config: CoreConfig,
        key: &[u8],
        trace: TraceConfig,
    ) -> Result<Machine, ModexpError> {
        Ok(self.machine_from(&self.program()?, config, key, trace))
    }

    /// [`ModexpKernel::machine`] from this kernel's already assembled
    /// [`ModexpKernel::program`], so a key sweep assembles once.
    pub fn machine_from(
        &self,
        program: &Program,
        config: CoreConfig,
        key: &[u8],
        trace: TraceConfig,
    ) -> Machine {
        assert_eq!(key.len(), self.key_bytes, "key length must match the kernel");
        let mut machine = Machine::with_trace_config(config, program, trace);
        machine.write_mem(program.symbol_addr("key"), key);
        machine
    }

    /// Reference result (golden Rust model).
    pub fn reference(&self, key: &[u8]) -> u64 {
        modexp_reference(self.base, self.modulus, key)
    }
}

/// Errors from building or running a modexp kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModexpError {
    /// The generated assembly failed to assemble (a kernel bug).
    Asm(AsmError),
    /// The simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for ModexpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModexpError::Asm(e) => write!(f, "kernel assembly failed: {e}"),
            ModexpError::Sim(e) => write!(f, "kernel simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ModexpError {}

impl From<AsmError> for ModexpError {
    fn from(e: AsmError) -> ModexpError {
        ModexpError::Asm(e)
    }
}

impl From<SimError> for ModexpError {
    fn from(e: SimError) -> ModexpError {
        ModexpError::Sim(e)
    }
}

/// Default cycle budget for a modexp run of `key_bytes`: a generous
/// per-bit allowance on top of a fixed floor. Public so sweep harnesses
/// driving [`ModexpKernel::machine`] directly use the same budget.
pub fn cycle_budget(key_bytes: usize) -> u64 {
    2_000_000 + key_bytes as u64 * 8 * 30_000
}

/// The Fig. 6 timing-distribution experiment: `ME-V1-MV`'s secret-selected
/// `memmove` destination, restructured so the iteration's output buffer is
/// *only* written by the `memmove` (the accumulator chain lives in
/// registers). The output and dummy buffers are flushed from the L1D
/// before every iteration — modeling the cache pressure of the paper's
/// full bignum workload — and, when `warm_dst` is set, the destination
/// buffer is re-touched before the iteration starts ("dst initialized",
/// Fig. 6b).
#[derive(Clone, Debug)]
pub struct Fig6Kernel {
    /// Warm the destination buffer before each iteration (Fig. 6b) or
    /// leave both buffers cold (Fig. 6a).
    pub warm_dst: bool,
    /// Key length in bytes.
    pub key_bytes: usize,
    /// Public base.
    pub base: u64,
    /// Public modulus (must fit 32 bits).
    pub modulus: u64,
}

impl Fig6Kernel {
    /// Creates the experiment kernel.
    pub fn new(warm_dst: bool, key_bytes: usize) -> Fig6Kernel {
        Fig6Kernel { warm_dst, key_bytes, base: 0x9E3779B9, modulus: 0xFFFF_FFFB }
    }

    /// The generated assembly source.
    pub fn source(&self) -> String {
        let warm = if self.warm_dst {
            "    ld   t0, 0(s2)          # re-touch dst: Fig 6b 'initialized'"
        } else {
            "    nop                     # Fig 6a: both buffers stay cold"
        };
        format!(
            r#"
            .data
            .align 6
            tbuf:  .zero 64
            .align 6
            obuf:  .zero 64
                   .zero 3904
            .align 6
            dummy: .zero 64
            key:   .zero {keylen}
            .text
            _start:
                csrw 0x8c0, zero
                li   s0, {base}
                li   s1, {modulus}
                la   s2, obuf
                la   s3, tbuf
                la   s4, dummy
                la   s5, key
                li   s10, 1             # r lives in a register
                li   s6, 0
            byte_loop:
                add  t0, s5, s6
                lbu  s7, 0(t0)
                li   s8, 7
            bit_loop:
                srl  t0, s7, s8
                andi s9, t0, 1
                csrw 0x8c5, s2          # flush dst line (cache pressure)
                csrw 0x8c5, s4          # flush dummy line
            {warm}
                csrw 0x8c2, s9          # ITER_START
                mul  t1, s10, s10
                remu t1, t1, s1         # r2 = r*r mod m
                mul  t2, t1, s0
                remu t2, t2, s1         # t = a*r2 mod m
                sd   t2, 0(s3)          # tbuf holds the candidate
                neg  t3, s9             # register cmov keeps the value chain
                xor  t4, t1, t2
                and  t4, t4, t3
                xor  s10, t1, t4        # r = bit ? t : r2
                neg  t0, s9             # branchless destination select
                xor  t5, s2, s4
                and  t5, t5, t0
                xor  a0, s4, t5         # dst = bit ? obuf : dummy
                mv   a1, s3
                li   a2, 32
                call memmove
                fence                   # drain the stores: the iteration's
                                        # time includes its memory effects
                csrw 0x8c3, zero        # ITER_END
                addi s8, s8, -1
                bgez s8, bit_loop
                addi s6, s6, 1
                li   t0, {keylen}
                blt  s6, t0, byte_loop
                csrw 0x8c1, zero
                mv   a0, s10
                ecall
            {memmove}
            "#,
            keylen = self.key_bytes,
            base = self.base,
            modulus = self.modulus,
            warm = warm,
            memmove = MEMMOVE,
        )
    }

    /// Assembles the kernel.
    ///
    /// # Errors
    ///
    /// Returns the assembler error on an internal source bug.
    pub fn program(&self) -> Result<Program, AsmError> {
        assemble(&self.source())
    }

    /// Runs with `key` and returns per-iteration `(label, cycles)` pairs —
    /// the data behind the Fig. 6 distributions — plus the full result.
    /// Its callers read cycle counts and snapshot hashes only, so no
    /// unit's features are collected ([`UnitSet::NONE`]).
    ///
    /// # Errors
    ///
    /// Propagates assembler and simulator errors.
    pub fn run(&self, config: CoreConfig, key: &[u8]) -> Result<RunResult, ModexpError> {
        assert_eq!(key.len(), self.key_bytes, "key length must match the kernel");
        let program = self.program()?;
        let trace = TraceConfig { features: UnitSet::NONE, ..TraceConfig::default() };
        let mut machine = Machine::with_trace_config(config, &program, trace);
        machine.write_mem(program.symbol_addr("key"), key);
        let result = machine.run(cycle_budget(self.key_bytes))?;
        Ok(result)
    }

    /// Reference result.
    pub fn reference(&self, key: &[u8]) -> u64 {
        modexp_reference(self.base, self.modulus, key)
    }
}

/// Square-and-multiply reference model (MSB-first over the key bytes).
pub fn modexp_reference(base: u64, modulus: u64, key: &[u8]) -> u64 {
    assert!(modulus > 0 && modulus <= u32::MAX as u64 + 1, "modulus must fit in 32 bits");
    let mut r: u64 = 1;
    for &byte in key {
        for j in (0..8).rev() {
            r = r.wrapping_mul(r) % modulus;
            let t = r.wrapping_mul(base) % modulus;
            if (byte >> j) & 1 == 1 {
                r = t;
            }
        }
    }
    r
}

/// Listing 1: branch on the secret bit; copy only when set.
const NAIVE_ASSIGN: &str = r#"
ccopy:                      # a0=ctl a1=dst a2=dummy a3=src a4=len
    beqz a0, na_skip        # secret-dependent control flow!
    ld   t0, 0(a3)
    sd   t0, 0(a1)          # r = t (only when bit is 1)
na_skip:
    ret
"#;

/// Listing 2: branchless register-level conditional move.
const CMOV_ASSIGN: &str = r#"
ccopy:                      # a0=ctl a1=dst a2=dummy a3=src a4=len
    ld   t1, 0(a1)          # r
    ld   t2, 0(a3)          # t
    neg  t0, a0             # b = -ctl (all-ones or zero)
    xor  t3, t1, t2         # r ^ t
    and  t3, t3, t0         # (r ^ t) & b   <- fast-bypass candidate
    xor  t1, t1, t3         # r ^= ...
    sd   t1, 0(a1)
    ret
"#;

/// Listing 4 (`ME-V1-CV`): the compiler preloads `dst` into the first
/// argument register before checking `ctl`; the `ctl == 0` path executes
/// two extra instructions.
const V1_CV_ASSIGN: &str = r#"
ccopy:                      # a0=ctl a1=dst a2=dummy a3=src a4=len
    mv   a6, a0             # ctl
    mv   a5, a2             # dummy
    mv   a0, a1             # compiler preloads dst as memmove's first arg
    mv   a2, a4             # len
    mv   a1, a3             # src
    beqz a6, cv_dummy
cv_do:
    j    memmove            # tail call
cv_dummy:
    mv   a0, a5             # patch in dummy: two extra instructions
    j    cv_do
"#;

/// Listing 5 (`ME-V1-MV`): branchless select of the destination, then an
/// unconditional `memmove` — but the *address* depends on the secret.
const V1_MV_ASSIGN: &str = r#"
ccopy:                      # a0=ctl a1=dst a2=dummy a3=src a4=len
    neg  t0, a0             # mask = -ctl
    xor  t1, a1, a2         # dst ^ dummy
    and  t1, t1, t0
    xor  a0, a2, t1         # dest = ctl ? dst : dummy
    mv   a1, a3             # src
    mv   a2, a4             # len
    j    memmove            # tail call
"#;

/// Listing 6 (`ME-V2-Safe`): BearSSL's byte-wise branchless conditional
/// copy. Every byte of `dst` is rewritten with a mask-selected value, so
/// addresses and instructions are identical for both key-bit classes.
const V2_SAFE_ASSIGN: &str = r#"
ccopy:                      # a0=ctl a1=dst a2=dummy a3=src a4=len
    mv   a2, a3             # src
    mv   a3, a4
    add  a3, a3, a2         # end = src + len
    negw a0, a0             # mask
bs_loop:
    bne  a2, a3, bs_body
    ret
bs_body:
    lbu  a4, 0(a1)          # dst byte
    lbu  a5, 0(a2)          # src byte
    addi a2, a2, 1
    addi a1, a1, 1
    xor  a5, a5, a4
    and  a5, a5, a0         # <- fast-bypass candidate when mask == 0
    xor  a5, a5, a4
    sb   a5, -1(a1)
    j    bs_loop
"#;

/// Forward `memmove` (8-byte chunks, then a byte tail). The regions used by
/// the kernels never overlap in the copy direction.
const MEMMOVE: &str = r#"
memmove:                    # a0=dst a1=src a2=len
    beqz a2, mm_ret
mm_chunk:
    sltiu t0, a2, 8
    bnez t0, mm_bytes
    ld   t1, 0(a1)
    sd   t1, 0(a0)
    addi a0, a0, 8
    addi a1, a1, 8
    addi a2, a2, -8
    j    mm_chunk
mm_bytes:
    beqz a2, mm_ret
    lbu  t1, 0(a1)
    sb   t1, 0(a0)
    addi a0, a0, 1
    addi a1, a1, 1
    addi a2, a2, -1
    j    mm_bytes
mm_ret:
    ret
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::random_keys;
    use microsampler_isa::Reg;
    use microsampler_sim::interp::{Interp, StopReason};

    #[test]
    fn all_variants_assemble() {
        for v in ModexpVariant::ALL {
            let k = ModexpKernel::new(v, 2);
            k.program().unwrap_or_else(|e| panic!("{}: {e}", v.name()));
        }
    }

    #[test]
    fn reference_model_basics() {
        // 3^5 mod 7 = 243 mod 7 = 5; key 0b00000101.
        assert_eq!(modexp_reference(3, 7, &[0b101]), 5);
        // Exponent zero => 1.
        assert_eq!(modexp_reference(123, 97, &[0]), 1);
        // 2^8 mod 257 = 256.
        assert_eq!(modexp_reference(2, 257, &[0b1000]), 256);
    }

    /// Every variant must compute the exact square-and-multiply result on
    /// the golden interpreter for random keys.
    #[test]
    fn variants_match_reference_on_interpreter() {
        for v in ModexpVariant::ALL {
            let kernel = ModexpKernel::new(v, 2);
            let program = kernel.program().unwrap();
            for key in random_keys(4, 2, 99) {
                let mut interp = Interp::new(&program);
                interp.mem.write_bytes(program.symbol_addr("key"), &key);
                let stop = interp.run(10_000_000).unwrap();
                assert_eq!(stop, StopReason::Ecall, "{}", v.name());
                assert_eq!(
                    interp.reg(Reg::new(10)),
                    kernel.reference(&key),
                    "{} key {key:02x?}",
                    v.name()
                );
            }
        }
    }

    /// And on the out-of-order core (both configs, fast bypass on and off).
    #[test]
    fn variants_match_reference_on_core() {
        for v in ModexpVariant::ALL {
            let kernel = ModexpKernel::new(v, 1);
            for key in random_keys(2, 1, 7) {
                for cfg in [
                    CoreConfig::small_boom(),
                    CoreConfig::mega_boom(),
                    CoreConfig::mega_boom().with_fast_bypass(),
                ] {
                    let name = format!("{} on {}", v.name(), cfg.name);
                    let mut m = kernel.machine(cfg, &key, TraceConfig::default()).unwrap();
                    let r = m.run(10_000_000).unwrap_or_else(|e| panic!("{name}: {e}"));
                    assert_eq!(r.exit_code, kernel.reference(&key), "{name} key {key:02x?}");
                    // One iteration per key bit, correctly labeled.
                    assert_eq!(r.iterations.len(), 8, "{name}");
                    for (i, iter) in r.iterations.iter().enumerate() {
                        let bit = (key[0] >> (7 - i)) & 1;
                        assert_eq!(iter.label, bit as u64, "{name} iteration {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_bypass_fires_only_for_zero_mask() {
        // V2Safe computes its mask once per ccopy call, so it is available
        // at rename for every AND in the byte loop; the mask is zero
        // exactly when the key bit is 0.
        let kernel = ModexpKernel::new(ModexpVariant::V2Safe, 1);
        let key = [0b1111_0000u8];
        let mut m = kernel
            .machine(CoreConfig::mega_boom().with_fast_bypass(), &key, TraceConfig::default())
            .unwrap();
        let r = m.run(10_000_000).unwrap();
        assert_eq!(r.exit_code, kernel.reference(&key));
        assert!(r.stats.fast_bypasses > 0, "fast bypass should trigger for zero bits");
    }

    #[test]
    fn dummy_is_on_a_different_page() {
        let kernel = ModexpKernel::new(ModexpVariant::V1MicroarchVuln, 1);
        let p = kernel.program().unwrap();
        let rbuf = p.symbol_addr("rbuf");
        let dummy = p.symbol_addr("dummy");
        assert_ne!(rbuf >> 12, dummy >> 12, "dst and dummy must map to different pages");
    }

    #[test]
    fn fig6_kernel_is_functionally_correct() {
        for warm in [false, true] {
            let kernel = Fig6Kernel::new(warm, 1);
            for key in random_keys(2, 1, 21) {
                let r = kernel.run(CoreConfig::mega_boom(), &key).unwrap();
                assert_eq!(r.exit_code, kernel.reference(&key), "warm={warm} key={key:02x?}");
                assert_eq!(r.iterations.len(), 8);
            }
        }
    }

    #[test]
    fn fig6_warm_dst_separates_timing_by_class() {
        let key = [0b0101_0110u8, 0b1001_1010];
        let kernel = Fig6Kernel::new(true, 2);
        let r = kernel.run(CoreConfig::mega_boom(), &key).unwrap();
        let avg = |label: u64| {
            let xs: Vec<u64> =
                r.iterations.iter().filter(|i| i.label == label).map(|i| i.cycles()).collect();
            xs.iter().sum::<u64>() as f64 / xs.len() as f64
        };
        // Iterations that memmove into the warmed dst must be faster.
        assert!(
            avg(1) + 2.0 < avg(0),
            "warm-dst iterations should be faster: bit1 {} vs bit0 {}",
            avg(1),
            avg(0)
        );
        // And without warming the distributions must overlap.
        let cold = Fig6Kernel::new(false, 2).run(CoreConfig::mega_boom(), &key).unwrap();
        let avgc = |label: u64| {
            let xs: Vec<u64> =
                cold.iterations.iter().filter(|i| i.label == label).map(|i| i.cycles()).collect();
            xs.iter().sum::<u64>() as f64 / xs.len() as f64
        };
        assert!(
            (avgc(1) - avgc(0)).abs() < 3.0,
            "cold runs should overlap: {} vs {}",
            avgc(1),
            avgc(0)
        );
    }

    #[test]
    #[should_panic(expected = "key length")]
    fn key_length_mismatch_panics() {
        let kernel = ModexpKernel::new(ModexpVariant::V2Safe, 4);
        let _ = kernel.machine(CoreConfig::small_boom(), &[1, 2], TraceConfig::default());
    }
}
