//! Speculation-specific behaviors: wrong-path visibility, non-speculative
//! I/O CSRs, fences, and the attacker-model flush CSRs.

use microsampler_isa::asm::assemble;
use microsampler_isa::Reg;
use microsampler_sim::{CoreConfig, Machine, TraceConfig, UnitId};

fn reg(n: u8) -> Reg {
    Reg::new(n)
}

/// Wrong-path instructions must appear in the ROB trace and then vanish
/// without architectural effect.
#[test]
fn wrong_path_instructions_visible_then_squashed() {
    // The branch below alternates and is hard to predict; the wrong path
    // multiplies a poison value, which must never commit.
    let p = assemble(
        r#"
        csrw 0x8c0, zero
        li   s0, 0           # accumulator
        li   s1, 1           # lcg
        li   t3, 40
        li   t4, 1103515245
        csrw 0x8c2, zero     # one big iteration window
        loop:
            mul  s1, s1, t4
            addi s1, s1, 1234
            srli t0, s1, 17
            andi t0, t0, 1
            beqz t0, skip
            addi s0, s0, 1
        wrongish:
            nop
        skip:
            addi t3, t3, -1
            bgtz t3, loop
        csrw 0x8c3, zero
        csrw 0x8c1, zero
        mv   a0, s0
        ecall
        "#,
    )
    .unwrap();
    let mut m = Machine::with_trace_config(CoreConfig::mega_boom(), &p, TraceConfig::default());
    let r = m.run(1_000_000).unwrap();
    assert!(r.stats.branch_mispredicts > 0, "the pattern must mispredict sometimes");
    assert!(r.stats.squashed > 0);
    // Architectural result equals the golden model.
    let mut golden = microsampler_sim::interp::Interp::new(&p);
    golden.run(10_000_000).unwrap();
    assert_eq!(m.reg(reg(10)), golden.reg(reg(10)));
}

/// Input-CSR reads are non-speculative: a wrong-path `csrr` must not
/// consume from the host queue.
#[test]
fn wrong_path_csrr_does_not_pop_input_queue() {
    // beqz on a slow-to-resolve value (load) with a wrong-path csrr behind
    // it. The predictor's cold prediction is not-taken, so the fall-through
    // (csrr) path is fetched speculatively while the branch waits on the
    // load — but the queue must only be popped by the committed reads.
    let p = assemble(
        r#"
        .data
        flag: .dword 1
        .text
        la   t0, flag
        ld   t1, 0(t0)       # slow: resolves after fetch runs ahead
        bnez t1, taken       # actually taken; cold predict = not taken
        csrr a1, 0x8c8       # WRONG PATH csrr
        csrr a2, 0x8c8
        j    out
        taken:
        csrr a0, 0x8c8       # the only committed csrr
        out:
        ecall
        "#,
    )
    .unwrap();
    for cfg in [CoreConfig::mega_boom(), CoreConfig::small_boom()] {
        let mut m = Machine::with_trace_config(cfg, &p, TraceConfig::default());
        m.push_inputs([111, 222, 333]);
        m.run(100_000).unwrap();
        assert_eq!(m.reg(reg(10)), 111, "committed csrr pops the first word");
        // A second run cannot verify queue state directly, but the wrong
        // path not popping means 222 must still be next if we had read
        // again; instead we assert the wrong-path destination regs were
        // never architecturally written.
        assert_eq!(m.reg(reg(11)), 0);
        assert_eq!(m.reg(reg(12)), 0);
    }
}

/// Output CSR publishes at commit only: wrong-path writes never appear.
#[test]
fn wrong_path_csrw_output_never_published() {
    let p = assemble(
        r#"
        .data
        flag: .dword 1
        .text
        la   t0, flag
        ld   t1, 0(t0)
        bnez t1, taken
        li   t2, 666
        csrw 0x8c9, t2       # wrong path output
        j    out
        taken:
        li   t2, 42
        csrw 0x8c9, t2
        out:
        ecall
        "#,
    )
    .unwrap();
    let mut m = Machine::with_trace_config(CoreConfig::mega_boom(), &p, TraceConfig::default());
    m.run(100_000).unwrap();
    assert_eq!(m.take_outputs(), vec![42]);
}

/// `fence` drains the store queue: after it renames, every older store has
/// fully left the STQ (miss latency included in the fence's shadow).
#[test]
fn fence_waits_for_store_drain() {
    let src_with_fence = r#"
        .data
        buf: .zero 64
        .text
        la  t0, buf
        csrw 0x8c5, t0       # flush the line so the store misses
        li  t1, 7
        sd  t1, 0(t0)
        fence
        ecall
    "#;
    let src_without = r#"
        .data
        buf: .zero 64
        .text
        la  t0, buf
        csrw 0x8c5, t0
        li  t1, 7
        sd  t1, 0(t0)
        nop
        ecall
    "#;
    let run = |src: &str| {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(CoreConfig::mega_boom(), &p);
        m.run(100_000).unwrap().cycles
    };
    let fenced = run(src_with_fence);
    let unfenced = run(src_without);
    assert!(
        fenced >= unfenced + 10,
        "fence must absorb the store-miss drain ({fenced} vs {unfenced})"
    );
}

/// The flush CSRs actually evict: a reload after `CSR_FLUSH_LINE` misses.
#[test]
fn flush_line_causes_reload_miss() {
    let p = assemble(
        r#"
        .data
        buf: .zero 64
        .text
        la   t0, buf
        ld   t1, 0(t0)       # miss 1: cold
        add  t5, t0, t1      # t1 is 0: same address, but dependent
        ld   t2, 0(t5)       # hit (serialized after the fill)
        csrw 0x8c5, t0       # flush the line
        and  t6, t2, zero
        add  t6, t6, t0      # dependent address: issues after the flush commits
        ld   t3, 0(t6)       # miss 2
        ecall
        "#,
    )
    .unwrap();
    let mut m = Machine::new(CoreConfig::mega_boom(), &p);
    let r = m.run(100_000).unwrap();
    assert!(r.stats.l1d_misses >= 2, "flush must force a re-miss ({:?})", r.stats);
    assert!(r.stats.l1d_hits >= 1);
}

/// The TLB flush CSR empties the TLB (visible through the TLB-ADDR trace).
#[test]
fn flush_tlb_clears_resident_entries() {
    let p = assemble(
        r#"
        .data
        buf: .zero 64
        .text
        csrw 0x8c0, zero
        la   t0, buf
        csrw 0x8c2, zero
        ld   t1, 0(t0)       # populate the TLB
        csrw 0x8c3, zero
        csrw 0x8c7, zero     # flush TLB
        csrw 0x8c2, zero
        nop
        nop
        csrw 0x8c3, zero
        csrw 0x8c1, zero
        ecall
        "#,
    )
    .unwrap();
    let mut m = Machine::with_trace_config(CoreConfig::mega_boom(), &p, TraceConfig::default());
    let r = m.run(100_000).unwrap();
    assert_eq!(r.iterations.len(), 2);
    let features = |i: usize| r.iterations[i].unit(UnitId::TlbAddr).order.as_deref().unwrap();
    let (before, after) = (features(0), features(1));
    assert!(!before.is_empty(), "first window should see the data page resident");
    assert!(after.is_empty(), "flushed TLB should be empty in the second window");
}

/// Markers never fire from the wrong path: a wrong-path ITER_START must
/// not open an iteration.
#[test]
fn wrong_path_markers_do_not_fire() {
    let p = assemble(
        r#"
        .data
        flag: .dword 1
        .text
        csrw 0x8c0, zero
        la   t0, flag
        ld   t1, 0(t0)
        bnez t1, taken       # taken; cold-predicted not-taken
        li   t2, 99
        csrw 0x8c2, t2       # WRONG PATH iteration start
        taken:
        csrw 0x8c1, zero
        ecall
        "#,
    )
    .unwrap();
    let mut m = Machine::with_trace_config(CoreConfig::mega_boom(), &p, TraceConfig::default());
    let r = m.run(100_000).unwrap();
    assert!(r.iterations.is_empty(), "wrong-path markers must not create iterations");
}

/// Deep call chains exercise RAS wrap-around without corrupting
/// architectural state.
#[test]
fn deep_recursion_beyond_ras_depth() {
    let p = assemble(
        r#"
        _start:
            li a0, 20        # deeper than any RAS config
            call sum
            ecall
        sum:
            addi sp, sp, -16
            sd   ra, 8(sp)
            sd   a0, 0(sp)
            beqz a0, base
            addi a0, a0, -1
            call sum
            ld   t0, 0(sp)
            add  a0, a0, t0
            j    done
        base:
            li   a0, 0
        done:
            ld   ra, 8(sp)
            addi sp, sp, 16
            ret
        "#,
    )
    .unwrap();
    for cfg in [CoreConfig::small_boom(), CoreConfig::mega_boom()] {
        let mut m = Machine::new(cfg, &p);
        let r = m.run(1_000_000).unwrap();
        assert_eq!(m.reg(reg(10)), (1..=20).sum::<u64>());
        // Overflowing the circular RAS costs mispredicts but not much else.
        assert!(r.stats.jalr_mispredicts > 0, "RAS overflow should mispredict");
    }
}
