//! Differential tests: the out-of-order core's committed architectural
//! state must match the golden-model interpreter exactly, for every
//! configuration — including with speculation, squash and fast bypass.

use microsampler_isa::asm::assemble;
use microsampler_isa::{encode, AluOp, Inst, Program, Reg};
use microsampler_sim::interp::{Interp, StopReason};
use microsampler_sim::{CoreConfig, Machine};
use proptest::prelude::*;

/// Runs a program on the interpreter and on every core config, comparing
/// all 32 architectural registers and a memory window.
fn check(src: &str, mem_window: Option<(u64, usize)>) {
    let p = assemble(src).unwrap_or_else(|e| panic!("assembly failed: {e}\n{src}"));
    check_program(&p, mem_window, src);
}

fn check_program(p: &Program, mem_window: Option<(u64, usize)>, context: &str) {
    let mut golden = Interp::new(p);
    let stop = golden.run(10_000_000).expect("golden model runs");
    assert_eq!(stop, StopReason::Ecall, "golden model must reach ecall");
    for cfg in [
        CoreConfig::small_boom(),
        CoreConfig::mega_boom(),
        CoreConfig::small_boom().with_fast_bypass(),
        CoreConfig::mega_boom().with_fast_bypass(),
    ] {
        let name = format!("{}{}", cfg.name, if cfg.fast_bypass { "+FB" } else { "" });
        let mut m = Machine::new(cfg, p);
        m.run(50_000_000).unwrap_or_else(|e| panic!("[{name}] {e}\n{context}"));
        for r in Reg::all() {
            assert_eq!(m.reg(r), golden.reg(r), "[{name}] register {r} mismatch\n{context}");
        }
        if let Some((addr, len)) = mem_window {
            assert_eq!(
                m.read_mem(addr, len),
                golden.mem.read_bytes(addr, len),
                "[{name}] memory mismatch at {addr:#x}"
            );
        }
    }
}

#[test]
fn fibonacci() {
    check(
        r#"
        li a0, 0
        li a1, 1
        li t0, 30
        loop:
            add t1, a0, a1
            mv a0, a1
            mv a1, t1
            addi t0, t0, -1
            bgtz t0, loop
        ecall
        "#,
        None,
    );
}

#[test]
fn nested_calls_and_memory() {
    check(
        r#"
        .data
        table: .zero 256
        .text
        _start:
            la s0, table
            li s1, 16
        fill:
            mul t0, s1, s1
            sub t1, s1, zero
            slli t1, t1, 3
            add t1, t1, s0
            sd t0, -8(t1)
            addi s1, s1, -1
            bgtz s1, fill
            li s1, 16
            li a0, 0
        sum:
            slli t1, s1, 3
            add t1, t1, s0
            ld t0, -8(t1)
            add a0, a0, t0
            addi s1, s1, -1
            bgtz s1, sum
            ecall
        "#,
        None,
    );
}

#[test]
fn data_dependent_branches_lcg() {
    check(
        r#"
        li s0, 0
        li s1, 12345
        li t3, 500
        li t4, 1103515245
        li t5, 12345
        loop:
            mul s1, s1, t4
            add s1, s1, t5
            srli t0, s1, 13
            andi t0, t0, 3
            beqz t0, zero_case
            addi t0, t0, -1
            beqz t0, one_case
            addi s0, s0, 100
            j next
        zero_case:
            addi s0, s0, 1
            j next
        one_case:
            addi s0, s0, 10
        next:
            addi t3, t3, -1
            bgtz t3, loop
        mv a0, s0
        ecall
        "#,
        None,
    );
}

#[test]
fn byte_memory_operations() {
    check(
        r#"
        .data
        src: .byte 1, 2, 3, 4, 5, 6, 7, 8
        dst: .zero 8
        .text
        la t0, src
        la t1, dst
        li t2, 8
        copy:
            lbu t3, 0(t0)
            slli t4, t3, 1
            sb t4, 0(t1)
            addi t0, t0, 1
            addi t1, t1, 1
            addi t2, t2, -1
            bgtz t2, copy
        ecall
        "#,
        Some((microsampler_isa::DATA_BASE, 16)),
    );
}

#[test]
fn function_calls_with_stack() {
    check(
        r#"
        _start:
            li a0, 10
            call fact
            ecall
        fact:
            addi sp, sp, -16
            sd ra, 8(sp)
            sd a0, 0(sp)
            li t0, 1
            ble a0, t0, base
            addi a0, a0, -1
            call fact
            ld t0, 0(sp)
            mul a0, a0, t0
            j done
        base:
            li a0, 1
        done:
            ld ra, 8(sp)
            addi sp, sp, 16
            ret
        "#,
        None,
    );
}

#[test]
fn division_chain() {
    check(
        r#"
        li a0, 1000000007
        li a1, 13
        li t0, 6
        loop:
            divu a2, a0, a1
            remu a3, a0, a1
            mul a0, a2, a1
            add a0, a0, a3
            srli a0, a0, 1
            addi t0, t0, -1
            bgtz t0, loop
        ecall
        "#,
        None,
    );
}

#[test]
fn cmov_constant_time_pattern() {
    // The paper's Listing 2 conditional-copy shape, exercised with both
    // mask values — critical for the fast-bypass configurations.
    check(
        r#"
        li s0, 0xAAAA
        li s1, 0x5555
        li s2, 1          # ctl = 1
        neg t0, s2        # mask = -ctl
        xor t1, s0, s1
        and t1, t1, t0    # fast-bypass candidate when mask == 0
        xor s0, s0, t1    # s0 = ctl ? s1 : s0
        li s2, 0          # ctl = 0
        neg t0, s2
        xor t1, s0, s1
        and t1, t1, t0
        xor s3, s0, t1
        mv a0, s0
        mv a1, s3
        ecall
        "#,
        None,
    );
}

#[test]
fn memcmp_like_loop_with_dependent_branch() {
    check(
        r#"
        .data
        a: .byte 1, 2, 3, 4, 5, 6, 7, 8
        b: .byte 1, 2, 3, 9, 5, 6, 7, 8
        .text
        la t0, a
        la t1, b
        li t2, 8
        li a0, 0
        loop:
            lbu t3, 0(t0)
            lbu t4, 0(t1)
            addi t0, t0, 1
            addi t1, t1, 1
            addi t2, t2, -1
            xor t3, t3, t4
            or a0, a0, t3
            bgtz t2, loop
        beqz a0, equal
        li a1, 111
        j out
        equal:
        li a1, 222
        out:
        ecall
        "#,
        None,
    );
}

#[test]
fn store_load_aliasing() {
    check(
        r#"
        .data
        buf: .zero 64
        .text
        la t0, buf
        li t1, 0x1122334455667788
        sd t1, 0(t0)
        lw t2, 0(t0)       # partial-width reload
        lw t3, 4(t0)
        lbu t4, 7(t0)
        sh t2, 32(t0)
        lhu t5, 32(t0)
        add a0, t2, t3
        add a1, t4, t5
        ecall
        "#,
        Some((microsampler_isa::DATA_BASE, 40)),
    );
}

fn addi(rd: u8, rs1: u8, imm: i64) -> u32 {
    encode(&Inst::OpImm { op: AluOp::Add, rd: Reg::new(rd), rs1: Reg::new(rs1), imm })
}

/// Self-modifying code: the program stores a new instruction over one of
/// its own, then jumps to it. The store commits while a divide chain is
/// still computing the jump target, and the mispredicted `jalr` refetches
/// from the patched address, so the core must execute the new word — as
/// the interpreter does.
#[test]
fn store_into_text_then_execute_it() {
    check(
        &format!(
            r#"
        _start:
            j main
        patch:
            addi a0, a0, 1          # overwritten with addi a0, a0, 100
            ecall
        main:
            li a0, 5
            la t0, patch
            li t1, {new_word}
            sw t1, 0(t0)
            li t3, 1000
            li t4, 10
            div t3, t3, t4
            div t3, t3, t4
            div t3, t3, t4          # t3 = 1, late
            mul t2, t0, t3          # the patch address, known only now
            jalr zero, 0(t2)
        "#,
            new_word = addi(10, 10, 100),
        ),
        None,
    );
}

/// A harness write into the text section after the machine is built must
/// be what fetch executes: a whole replaced word, and a single byte that
/// changes an immediate.
#[test]
fn fetch_sees_write_mem_into_text() {
    let p = assemble("addi a0, zero, 1\naddi a1, zero, 1\necall\n").unwrap();
    let patches: [(u64, Vec<u8>); 2] = [
        (p.text_base, addi(10, 0, 42).to_le_bytes().to_vec()),
        // Byte 3 of an I-type word holds imm[11:4]: 1 becomes 0x21.
        (p.text_base + 7, vec![0x02]),
    ];
    let mut golden = Interp::new(&p);
    for (addr, bytes) in &patches {
        golden.mem.write_bytes(*addr, bytes);
    }
    golden.run(1_000).expect("golden model runs");
    assert_eq!((golden.reg(Reg::new(10)), golden.reg(Reg::new(11))), (42, 0x21));
    for cfg in [CoreConfig::small_boom(), CoreConfig::mega_boom()] {
        let mut m = Machine::new(cfg, &p);
        for (addr, bytes) in &patches {
            m.write_mem(*addr, bytes);
        }
        m.run(100_000).expect("patched program runs");
        assert_eq!(m.reg(Reg::new(10)), 42);
        assert_eq!(m.reg(Reg::new(11)), 0x21);
    }
}

/// Straight-line random ALU programs (no control flow, so they always
/// terminate) must match the golden model on every configuration.
fn alu_program(ops: &[(u8, u8, u8, u8, i16)]) -> String {
    let mut src = String::new();
    // Seed registers deterministically.
    for i in 5..32 {
        src.push_str(&format!("li x{i}, {}\n", (i as i64).wrapping_mul(0x9E37_79B9)));
    }
    const MNEMONICS: [&str; 18] = [
        "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu", "addw", "subw",
        "mul", "mulh", "divu", "remu", "sllw", "sraw",
    ];
    for &(op, rd, rs1, rs2, _) in ops {
        let m = MNEMONICS[(op as usize) % MNEMONICS.len()];
        // Avoid clobbering x0-x4 (zero/ra/sp/gp/tp).
        let rd = 5 + (rd % 27);
        let rs1 = 5 + (rs1 % 27);
        let rs2 = 5 + (rs2 % 27);
        src.push_str(&format!("{m} x{rd}, x{rs1}, x{rs2}\n"));
    }
    src.push_str("ecall\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_straight_line_alu(ops in proptest::collection::vec(any::<(u8, u8, u8, u8, i16)>(), 1..60)) {
        let src = alu_program(&ops);
        check(&src, None);
    }
}
