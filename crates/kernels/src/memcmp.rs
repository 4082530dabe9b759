//! OpenSSL `CRYPTO_memcmp` (paper Listing 7) with the dependent control
//! flow of Listing 8 — the `CT-MEM-CMP` case study.
//!
//! Trials are streamed through the input CSR so every trial's working data
//! lands in the *same* fixed buffers (no trial-position addresses leak into
//! the traces). Each trial:
//!
//! 1. stages two 32-byte inputs into `abuf`/`bbuf` (outside the iteration),
//! 2. opens an iteration labeled with the secret class (fully-equal or not),
//! 3. calls `CRYPTO_memcmp` and records the return into a saved register —
//!    the paper's "few instructions that use the return value",
//! 4. closes the iteration, then branches to `equal`/`inequal` exactly as
//!    Listing 8 does.
//!
//! The transient-execution phenomenon the paper reports — a mispredicted
//! loop-exit branch inside `CRYPTO_memcmp` causing a premature speculative
//! return whose partial result transiently steers the Listing-8 branch —
//! happens *inside* the sampled window and shows up in the ROB-PC trace.

use crate::inputs::{pack_words, MemcmpTrial};
use crate::modexp::ModexpError;
use microsampler_isa::asm::assemble;
use microsampler_isa::Program;
use microsampler_sim::{CoreConfig, Machine, RunResult, TraceConfig};

/// Assembly of the CT-MEM-CMP case study.
pub const CT_MEMCMP_SOURCE: &str = r#"
.data
abuf: .zero 32
bbuf: .zero 32
.text
_start:
    csrw 0x8c0, zero        # SCR start
    csrr s0, 0x8c8          # number of trials
trial_loop:
    beqz s0, done
    la   t0, abuf           # stage input a (4 words via the input CSR)
    li   t1, 4
stage_a:
    csrr t2, 0x8c8
    sd   t2, 0(t0)
    addi t0, t0, 8
    addi t1, t1, -1
    bgtz t1, stage_a
    la   t0, bbuf           # stage input b
    li   t1, 4
stage_b:
    csrr t2, 0x8c8
    sd   t2, 0(t0)
    addi t0, t0, 8
    addi t1, t1, -1
    bgtz t1, stage_b
    csrr s1, 0x8c8          # secret class label
    fence                   # settle stores/fetch so the window start does
    nop                     # not inherit the previous trial's alignment
    nop
    nop
    nop
    nop
    nop
    nop
    nop

    csrw 0x8c2, s1          # ITER_START
    la   a0, abuf
    la   a1, bbuf
    li   a2, 32
    call crypto_memcmp
    mv   s2, a0             # the return value lands
    csrw 0x8c3, zero        # ITER_END

    beqz s2, is_eq          # Listing 8: dependent control flow
    call inequal_fn
    j    joined
is_eq:
    call equal_fn
joined:
    csrw 0x8c9, a0          # report the taken path for functional checks
    addi s0, s0, -1
    j    trial_loop
done:
    csrw 0x8c1, zero        # SCR end
    ecall

# Listing 7: OpenSSL constant-time CRYPTO_memcmp.
crypto_memcmp:              # a0=a, a1=b, a2=len
    li   t0, 0
    beqz a2, cm_done
cm_loop:
    lbu  t1, 0(a0)
    lbu  t2, 0(a1)
    addi a0, a0, 1
    addi a1, a1, 1
    addi a2, a2, -1
    xor  t1, t1, t2
    or   t0, t0, t1
    bgtz a2, cm_loop        # the mispredict-prone loop-exit branch
cm_done:
    mv   a0, t0
    ret

equal_fn:
    li   a0, 0
    ret
inequal_fn:
    li   a0, 1
    ret
"#;

/// The CT-MEM-CMP kernel.
#[derive(Clone, Debug, Default)]
pub struct MemcmpKernel;

impl MemcmpKernel {
    /// Assembles the kernel.
    ///
    /// # Errors
    ///
    /// Returns the assembler error on an internal source bug.
    pub fn program(&self) -> Result<Program, ModexpError> {
        Ok(assemble(CT_MEMCMP_SOURCE)?)
    }

    /// Runs `trials` on `config`. Each trial becomes one labeled iteration.
    ///
    /// # Errors
    ///
    /// Propagates assembler and simulator errors.
    pub fn run(
        &self,
        config: CoreConfig,
        trials: &[MemcmpTrial],
        trace: TraceConfig,
    ) -> Result<RunResult, ModexpError> {
        self.run_with_outputs(config, trials, trace).map(|(result, _)| result)
    }

    /// Runs and also returns the per-trial taken paths (0 = `equal`,
    /// 1 = `inequal`) for functional verification.
    ///
    /// # Errors
    ///
    /// Propagates assembler and simulator errors.
    pub fn run_with_outputs(
        &self,
        config: CoreConfig,
        trials: &[MemcmpTrial],
        trace: TraceConfig,
    ) -> Result<(RunResult, Vec<u64>), ModexpError> {
        let program = self.program()?;
        let mut machine = Machine::with_trace_config(config, &program, trace);
        let mut words = vec![trials.len() as u64];
        for t in trials {
            words.extend(pack_words(&t.a));
            words.extend(pack_words(&t.b));
            words.push(t.label);
        }
        machine.push_inputs(words);
        let result = machine.run(1_000_000 + trials.len() as u64 * 40_000)?;
        let outputs = machine.take_outputs();
        Ok((result, outputs))
    }

    /// Reference: 0 when the buffers are equal, nonzero otherwise (the
    /// OR-fold of XORed bytes, like the assembly).
    pub fn reference(&self, t: &MemcmpTrial) -> u64 {
        let fold = t.a.iter().zip(&t.b).fold(0u8, |acc, (x, y)| acc | (x ^ y));
        (fold != 0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::memcmp_trials;
    use microsampler_sim::UnitId;

    #[test]
    fn source_assembles() {
        MemcmpKernel.program().unwrap();
    }

    #[test]
    fn paths_match_reference() {
        let trials = memcmp_trials(12, 3);
        let (result, outputs) = MemcmpKernel
            .run_with_outputs(CoreConfig::mega_boom(), &trials, TraceConfig::default())
            .unwrap();
        assert_eq!(outputs.len(), trials.len());
        for (t, &path) in trials.iter().zip(&outputs) {
            assert_eq!(path, MemcmpKernel.reference(t), "trial {t:?}");
        }
        assert_eq!(result.iterations.len(), trials.len());
        for (t, iter) in trials.iter().zip(&result.iterations) {
            assert_eq!(iter.label, t.label);
        }
    }

    #[test]
    fn transient_double_calls_visible_in_rob() {
        // Over enough trials, at least some iterations must show the
        // equal/inequal function PCs inside the *memcmp* window — i.e.
        // speculative fetch reached the dependent calls while the loop was
        // still running or immediately around its return.
        let trials = memcmp_trials(32, 11);
        let p = MemcmpKernel.program().unwrap();
        let equal_pc = p.symbol_addr("equal_fn");
        let inequal_pc = p.symbol_addr("inequal_fn");
        let result =
            MemcmpKernel.run(CoreConfig::mega_boom(), &trials, TraceConfig::default()).unwrap();
        let windows_with_calls = result
            .iterations
            .iter()
            .filter(|it| {
                let pcs = it.unit(UnitId::RobPc).order.as_deref().unwrap();
                pcs.contains(&equal_pc) || pcs.contains(&inequal_pc)
            })
            .count();
        assert!(
            windows_with_calls > 0,
            "no iteration window ever contained the dependent call PCs"
        );
    }
}
