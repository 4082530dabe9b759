//! Seeded-leaky kernels: negative controls for the static analyzer.
//!
//! Each fixture plants a textbook constant-time violation — one per
//! violation class, including the transient-only CT-SPEC class — inside
//! an otherwise well-formed trial driver (same CSR marker protocol as
//! the real kernels). The static pass must flag every fixture; the
//! Table V primitives must stay clean.

use crate::secrets::SecretSpec;
use microsampler_isa::asm::assemble;
use microsampler_sim::{CoreConfig, Machine, RunResult, SimError, TraceConfig};

/// A deliberately leaky kernel with its expected static finding.
pub struct LeakyFixture {
    /// Short name used by `repro lint` and the lint baseline.
    pub name: &'static str,
    /// Full assembly source (driver included).
    pub source: &'static str,
    /// Taint sources.
    pub spec: SecretSpec,
    /// Violation class the static pass must report: 1 = secret-tainted
    /// branch, 2 = secret-tainted address, 3 = secret operand to a
    /// variable-latency mul/div, 4 = transient-only (Spectre-v1)
    /// transmitter.
    pub expected_class: u8,
    /// Mnemonic of the violating instruction (the reported PC must
    /// disassemble to this).
    pub expected_mnemonic: &'static str,
}

/// All seeded-leaky fixtures (the lint baseline set).
pub fn all() -> Vec<LeakyFixture> {
    vec![
        LeakyFixture {
            name: "leaky_branchy_memcmp",
            source: BRANCHY_MEMCMP,
            spec: SecretSpec::csr_and_regions(&[("key", 16)]),
            expected_class: 1,
            expected_mnemonic: "bne",
        },
        LeakyFixture {
            name: "leaky_sbox_index",
            source: SBOX_INDEX,
            spec: SecretSpec::csr_only(),
            expected_class: 2,
            expected_mnemonic: "lbu",
        },
        LeakyFixture {
            name: "leaky_modexp_divisor",
            source: MODEXP_DIVISOR,
            spec: SecretSpec::csr_only(),
            expected_class: 3,
            expected_mnemonic: "remu",
        },
        LeakyFixture {
            name: "leaky_spectre_bounds",
            source: SPECTRE_BOUNDS,
            spec: SecretSpec::csr_only(),
            expected_class: 4,
            expected_mnemonic: "lbu",
        },
        LeakyFixture {
            name: "leaky_spectre_store",
            source: SPECTRE_STORE,
            spec: SecretSpec::csr_and_regions(&[("skey", 8)]),
            expected_class: 4,
            expected_mnemonic: "sb",
        },
    ]
}

/// A fixture deliberately *excluded* from [`all`] and therefore from
/// `lint-baseline.json`: the CI lint gate lints it against the checked-in
/// baseline and must fail with "missing from baseline", proving the gate
/// actually rejects unbaselined findings.
pub fn gate_selftest() -> LeakyFixture {
    LeakyFixture {
        name: "gate_selftest_unbaselined",
        source: GATE_SELFTEST,
        spec: SecretSpec::csr_only(),
        expected_class: 1,
        expected_mnemonic: "bne",
    }
}

/// Looks up a fixture by name (including the gate self-test fixture).
pub fn by_name(name: &str) -> Option<LeakyFixture> {
    all().into_iter().chain(std::iter::once(gate_selftest())).find(|f| f.name == name)
}

/// Secret labels used by [`run_fixture`]: four classes whose low six bits
/// all differ, so a Spectre fixture's transient secret-indexed load
/// touches a distinct cache line per class.
pub const FIXTURE_LABELS: [u64; 4] = [0x05, 0x1a, 0x27, 0x38];

/// Runs a fixture dynamically: `trials` iterations with secret labels
/// cycling through [`FIXTURE_LABELS`] (rotated by `seed`).
///
/// Unlike the Table V primitive drivers there are no warm-up trials — for
/// the transient fixtures the first mispredict in each fresh predictor
/// history context *is* the signal, so every iteration is kept.
pub fn run_fixture(
    f: &LeakyFixture,
    config: CoreConfig,
    trials: u64,
    seed: u64,
    trace: TraceConfig,
) -> Result<RunResult, SimError> {
    let program = assemble(f.source).expect("fixture sources assemble");
    let mut m = Machine::with_trace_config(config, &program, trace);
    let mut words = vec![trials];
    words.extend(
        (0..trials).map(|i| FIXTURE_LABELS[((i + seed) % FIXTURE_LABELS.len() as u64) as usize]),
    );
    m.push_inputs(words);
    m.run(4_000_000 + trials * 50_000)
}

/// Early-exit byte compare against a secret key in `.data`: the `bne` on
/// a key byte is a class-1 violation (secret-tainted branch condition),
/// the pattern behind every classic string-compare timing attack.
const BRANCHY_MEMCMP: &str = r#"
.data
key: .byte 0x3a, 0x91, 0x5e, 0xc7, 0x08, 0x44, 0xd2, 0x6f
     .byte 0x19, 0xaa, 0x0b, 0x7c, 0xe1, 0x53, 0x2d, 0x90
.text
_start:
    csrw 0x8c0, zero
    csrr s0, 0x8c8          # trials
mc_trial:
    beqz s0, mc_done
    csrr s1, 0x8c8          # guess byte (doubles as the label)
    csrw 0x8c2, s1
    la   t0, key
    li   t2, 16
    li   a0, 0
mc_scan:
    lbu  t3, 0(t0)          # secret key byte
    bne  t3, s1, mc_fail    # LEAK: branch on a secret comparison
    addi t0, t0, 1
    addi t2, t2, -1
    bgtz t2, mc_scan
    j    mc_end
mc_fail:
    li   a0, 1
mc_end:
    csrw 0x8c3, zero
    csrw 0x8c9, a0
    addi s0, s0, -1
    j    mc_trial
mc_done:
    csrw 0x8c1, zero
    ecall
"#;

/// Direct table indexing with a secret byte: the `lbu` through a
/// secret-derived pointer is a class-2 violation (secret-tainted
/// effective address), the AES T-table cache-attack pattern.
const SBOX_INDEX: &str = r#"
.data
sbox: .zero 256
.text
_start:
    csrw 0x8c0, zero
    csrr s0, 0x8c8          # trials
sb_trial:
    beqz s0, sb_done
    csrr s1, 0x8c8          # secret index (doubles as the label)
    csrw 0x8c2, s1
    la   t0, sbox
    add  t0, t0, s1
    lbu  a0, 0(t0)          # LEAK: load address depends on the secret
    csrw 0x8c3, zero
    csrw 0x8c9, a0
    addi s0, s0, -1
    j    sb_trial
sb_done:
    csrw 0x8c1, zero
    ecall
"#;

/// Square-and-reduce loop with the modulus taken from the secret input:
/// the `remu` with a secret divisor is a class-3 violation (secret
/// operand to a variable-latency divide).
const MODEXP_DIVISOR: &str = r#"
.text
_start:
    csrw 0x8c0, zero
    csrr s0, 0x8c8          # trials
mx_trial:
    beqz s0, mx_done
    csrr s2, 0x8c8          # secret modulus (doubles as the label)
    csrw 0x8c2, s2
    li   t1, 7              # base
    li   t2, 5              # square-and-reduce rounds
mx_round:
    mul  t1, t1, t1
    remu t1, t1, s2         # LEAK: divider latency keyed by the secret
    addi t2, t2, -1
    bgtz t2, mx_round
    csrw 0x8c3, zero
    csrw 0x8c9, t1
    addi s0, s0, -1
    j    mx_trial
mx_done:
    csrw 0x8c1, zero
    ecall
"#;

/// Spectre-v1 bounds-check-bypass gadget. Architecturally the always-taken
/// guard (`bnez` on a constant built by a slow `mul` chain, so it resolves
/// late) skips the secret-indexed load entirely — the architectural path
/// is constant time. Under a mispredict, the wrong-path `lbu` indexes a
/// 4 KiB table with the secret's low six bits (one cache line per class)
/// and its fill survives the squash: a class-4 CT-SPEC transmitter. The
/// secret-keyed chaff branches *before* ITER_START give every label class
/// its own global-history context in the gshare PHT, so fresh/adversarial
/// predictor state mispredicts the guard per-class.
const SPECTRE_BOUNDS: &str = r#"
.data
table: .zero 4096
.text
_start:
    csrw 0x8c0, zero
    csrr s0, 0x8c8          # trials
sv_trial:
    beqz s0, sv_done
    csrr s1, 0x8c8          # secret label
    andi t5, s1, 1          # chaff: secret- and trial-keyed branches
    beqz t5, sv_c1          # before ITER_START steer the guard's
sv_c1:
    andi t5, s1, 2          # gshare history into a context unique to
    beqz t5, sv_c2          # (trial, class); fresh contexts are
sv_c2:
    andi t5, s1, 4          # untrained, so an adversarially polarized
    beqz t5, sv_c3          # PHT keeps mispredicting the guard on a
sv_c3:
    andi t5, s0, 1          # class-correlated subset of iterations
    beqz t5, sv_c4          # (not sampled, not a reportable finding)
sv_c4:
    andi t5, s0, 2
    beqz t5, sv_c5
sv_c5:
    andi t5, s0, 4
    beqz t5, sv_c6
sv_c6:
    andi t5, s0, 8
    beqz t5, sv_c7
sv_c7:
    andi t5, s0, 16
    beqz t5, sv_c8
sv_c8:
    andi t5, s0, 32
    beqz t5, sv_c9
sv_c9:
    csrw 0x8c2, s1          # ITER_START
    la   t1, table
    li   t4, 1
    mul  t6, t4, t4         # delay chain: the guard resolves ~9 cycles
    mul  t6, t6, t6         # late, letting the wrong-path load reach
    mul  t6, t6, t6         # the dcache before the squash
    bnez t6, sv_safe        # always taken; the mispredictable guard
    andi t2, s1, 63         # -- transient (wrong-path) arm --
    slli t2, t2, 6
    add  t3, t1, t2
    lbu  a0, 0(t3)          # LEAK (transient): secret-indexed load
sv_safe:
    lbu  a0, 0(t1)
    csrw 0x8c3, zero        # ITER_END
    csrw 0x8c9, a0
    addi s0, s0, -1
    j    sv_trial
sv_done:
    csrw 0x8c1, zero
    ecall
"#;

/// Spectre-v1 gadget with a two-stage transient payload: the wrong path
/// loads a label-indexed byte from the secret `.data` key region, then
/// both branches on it and stores to a key-byte-indexed buffer slot. The
/// transient `lbu`, `bnez`, and `sb` are all class-4 CT-SPEC
/// transmitters; the expected mnemonic pins the store.
const SPECTRE_STORE: &str = r#"
.data
skey: .byte 0x9d, 0x13, 0x77, 0xe4, 0x28, 0x5b, 0xc0, 0x3f
buf:  .zero 4096
.text
_start:
    csrw 0x8c0, zero
    csrr s0, 0x8c8          # trials
st_trial:
    beqz s0, st_done
    csrr s1, 0x8c8          # label (only steers history below)
    andi t5, s1, 1          # chaff: per-(trial, class) history
    beqz t5, st_c1          # contexts, pre-region (not sampled) —
st_c1:
    andi t5, s1, 2          # see leaky_spectre_bounds
    beqz t5, st_c2
st_c2:
    andi t5, s0, 1
    beqz t5, st_c3
st_c3:
    andi t5, s0, 2
    beqz t5, st_c4
st_c4:
    andi t5, s0, 4
    beqz t5, st_c5
st_c5:
    andi t5, s0, 8
    beqz t5, st_c6
st_c6:
    andi t5, s0, 16
    beqz t5, st_c7
st_c7:
    andi t5, s0, 32
    beqz t5, st_c8
st_c8:
    csrw 0x8c2, s1          # ITER_START
    la   t0, skey
    la   t1, buf
    li   t4, 5
    mul  t6, t4, t4         # delay chain for late guard resolution
    mul  t6, t6, t6
    bnez t6, st_safe        # always taken; the mispredictable guard
    andi t2, s1, 7          # -- transient arm: pick a key byte
    add  t3, t0, t2
    lbu  t2, 0(t3)          # LEAK (transient): label-indexed key load
    bnez t2, st_skip        # LEAK (transient): branch on the secret
    addi t2, t2, 1
st_skip:
    andi t2, t2, 63
    slli t2, t2, 6
    add  t3, t1, t2
    sb   t2, 0(t3)          # LEAK (transient): secret-indexed store
st_safe:
    sb   zero, 0(t1)
    csrw 0x8c3, zero        # ITER_END
    csrw 0x8c9, zero
    addi s0, s0, -1
    j    st_trial
st_done:
    csrw 0x8c1, zero
    ecall
"#;

/// Plain architectural CT-BRANCH leak used only as the CI gate self-test
/// (see [`gate_selftest`]): it is kept out of the baseline on purpose.
const GATE_SELFTEST: &str = r#"
.text
_start:
    csrw 0x8c0, zero
    csrr s0, 0x8c8          # trials
gs_trial:
    beqz s0, gs_done
    csrr s1, 0x8c8          # secret bit
    csrw 0x8c2, s1
    li   a0, 0
    bne  s1, zero, gs_one   # LEAK: branch on the secret
    j    gs_out
gs_one:
    li   a0, 1
gs_out:
    csrw 0x8c3, zero
    csrw 0x8c9, a0
    addi s0, s0, -1
    j    gs_trial
gs_done:
    csrw 0x8c1, zero
    ecall
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_assemble_and_run() {
        for f in all().into_iter().chain(std::iter::once(gate_selftest())) {
            let program = assemble(f.source).unwrap_or_else(|e| panic!("{}: {e}", f.name));
            f.spec.resolve(&program); // symbol references hold
            let trials = 4u64;
            let r = run_fixture(&f, CoreConfig::small_boom(), trials, 0, TraceConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", f.name));
            assert_eq!(r.iterations.len(), trials as usize, "{}", f.name);
        }
    }

    #[test]
    fn fixture_names_resolve() {
        assert!(by_name("leaky_sbox_index").is_some());
        assert!(by_name("nope").is_none());
        let classes: Vec<u8> = all().iter().map(|f| f.expected_class).collect();
        assert_eq!(classes, vec![1, 2, 3, 4, 4]);
        // The gate self-test resolves by name but stays out of the
        // baseline set.
        assert!(by_name("gate_selftest_unbaselined").is_some());
        assert!(all().iter().all(|f| f.name != "gate_selftest_unbaselined"));
    }

    #[test]
    fn fixture_labels_hit_distinct_cache_lines() {
        for (i, a) in FIXTURE_LABELS.iter().enumerate() {
            for b in &FIXTURE_LABELS[i + 1..] {
                assert_ne!(a & 63, b & 63, "labels {a:#x} and {b:#x} alias");
            }
        }
    }
}
