//! Extension case study: table-based byte substitution (S-box), the
//! textbook secret-dependent-memory-access vulnerability the paper's
//! introduction motivates (AES T-table attacks, Osvik–Shamir–Tromer).
//!
//! Two implementations of `y = SBOX[x]` over a 256-byte table:
//!
//! * [`SboxKernel::table_lookup`] — direct indexing: the accessed cache
//!   line reveals the top bits of the secret byte. MicroSampler flags the
//!   load-address side (LQ-ADDR, Cache-ADDR).
//! * [`SboxKernel::constant_time_scan`] — reads every table byte and
//!   mask-selects the match: same addresses for every secret.
//!
//! Iterations are labeled with the *cache line* of the secret index
//! (index / 64, four classes) — the granularity a cache attacker observes.

use crate::modexp::ModexpError;
use microsampler_isa::asm::assemble;
use microsampler_sim::{CoreConfig, Machine, RunResult, TraceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which S-box implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SboxImpl {
    /// Direct `SBOX[x]` indexing (leaky).
    TableLookup,
    /// Constant-time full-table scan (safe).
    ConstantTimeScan,
}

/// The S-box case-study kernel.
#[derive(Clone, Debug)]
pub struct SboxKernel {
    imp: SboxImpl,
}

/// Leading warm-up trials, run untraced
/// ([`TraceConfig::warmup_iterations`]).
const WARMUP: usize = 8;

impl SboxKernel {
    /// The leaky direct-lookup variant.
    pub fn table_lookup() -> SboxKernel {
        SboxKernel { imp: SboxImpl::TableLookup }
    }

    /// The constant-time scan variant.
    pub fn constant_time_scan() -> SboxKernel {
        SboxKernel { imp: SboxImpl::ConstantTimeScan }
    }

    /// Which implementation this is.
    pub fn implementation(&self) -> SboxImpl {
        self.imp
    }

    fn source(&self) -> String {
        let body = match self.imp {
            SboxImpl::TableLookup => TABLE_LOOKUP_BODY,
            SboxImpl::ConstantTimeScan => CT_SCAN_BODY,
        };
        format!("{DRIVER}\nsub_byte:\n{body}\n")
    }

    /// Runs `trials` random byte substitutions; labels are the cache line
    /// (`index / 64`) of each secret index. Outputs are checked against
    /// the substitution table.
    ///
    /// # Errors
    ///
    /// Propagates assembler and simulator errors; returns
    /// `functional_ok = false` on reference mismatch.
    pub fn run(
        &self,
        config: CoreConfig,
        trials: usize,
        seed: u64,
        trace: TraceConfig,
    ) -> Result<(RunResult, bool), ModexpError> {
        let program = assemble(&self.source())?;
        let mut rng = StdRng::seed_from_u64(seed);
        // A fixed public substitution table (any permutation works).
        let table: Vec<u8> = {
            let mut t: Vec<u8> = (0..=255).collect();
            for i in (1..256).rev() {
                t.swap(i, rng.gen_range(0..=i));
            }
            t
        };
        let total = WARMUP + trials;
        let mut words = vec![total as u64];
        let mut expected = Vec::with_capacity(total);
        for _ in 0..total {
            let idx: u8 = rng.gen();
            words.push(idx as u64);
            words.push((idx / 64) as u64); // label = cache line touched
            expected.push(table[idx as usize] as u64);
        }
        let trace = TraceConfig { warmup_iterations: WARMUP, ..trace };
        let mut machine = Machine::with_trace_config(config, &program, trace);
        machine.write_mem(program.symbol_addr("sbox"), &table);
        machine.push_inputs(words);
        let result = machine.run(500_000 + total as u64 * 60_000)?;
        let outputs = machine.take_outputs();
        Ok((result, outputs == expected))
    }
}

const DRIVER: &str = r#"
.data
.align 6
sbox: .zero 256
.text
_start:
    csrw 0x8c0, zero
    la   s2, sbox
    csrr s0, 0x8c8          # trials
sb_loop:
    beqz s0, sb_done
    csrr s1, 0x8c8          # secret index
    csrr s3, 0x8c8          # label (cache line of the index)
    csrw 0x8c2, s3          # ITER_START
    mv   a0, s1
    call sub_byte
    csrw 0x8c3, zero        # ITER_END
    csrw 0x8c9, a0
    addi s0, s0, -1
    j    sb_loop
sb_done:
    csrw 0x8c1, zero
    ecall
"#;

/// Direct indexing: one load whose address is the secret.
const TABLE_LOOKUP_BODY: &str = r#"
    add  t0, s2, a0
    lbu  a0, 0(t0)
    ret
"#;

/// Constant-time scan: read all 256 bytes, mask-select the match.
const CT_SCAN_BODY: &str = r#"
    li   t0, 0              # i
    li   t1, 0              # acc
ct_loop:
    add  t2, s2, t0
    lbu  t3, 0(t2)          # table[i], every i
    xor  t4, t0, a0         # eq mask via is_zero
    not  t5, t4
    addi t6, t4, -1
    and  t5, t5, t6
    srai t5, t5, 63
    and  t3, t3, t5
    or   t1, t1, t3
    addi t0, t0, 1
    slti t2, t0, 256
    bnez t2, ct_loop
    mv   a0, t1
    ret
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use microsampler_sim::UnitId;

    #[test]
    fn both_variants_functionally_correct() {
        for kernel in [SboxKernel::table_lookup(), SboxKernel::constant_time_scan()] {
            let (result, ok) =
                kernel.run(CoreConfig::mega_boom(), 12, 5, TraceConfig::default()).unwrap();
            assert!(ok, "{:?} output mismatch", kernel.implementation());
            assert_eq!(result.iterations.len(), 12);
            for it in &result.iterations {
                assert!(it.label < 4, "labels are cache-line indices");
            }
        }
    }

    #[test]
    fn leaky_variant_touches_distinct_lines_per_class() {
        let (result, ok) = SboxKernel::table_lookup()
            .run(CoreConfig::mega_boom(), 32, 9, TraceConfig::default())
            .unwrap();
        assert!(ok);
        // The load addresses inside each window must differ by class.
        use std::collections::BTreeMap;
        let mut per_class: BTreeMap<u64, std::collections::BTreeSet<u64>> = BTreeMap::new();
        for it in &result.iterations {
            let lines: std::collections::BTreeSet<u64> =
                it.unit(UnitId::LqAddr).order.as_deref().unwrap().iter().map(|a| a >> 6).collect();
            per_class.entry(it.label).or_default().extend(lines);
        }
        assert!(per_class.len() >= 3, "several classes observed");
    }
}
