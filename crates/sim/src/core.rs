//! The out-of-order pipeline.
//!
//! One [`Core::tick`] call advances the machine by one cycle. Stages run in
//! reverse pipeline order (commit → memory → issue/execute → rename →
//! fetch) so same-cycle structural effects propagate conservatively, then
//! the tracer samples the post-cycle state of every tracked structure.

use crate::cache::{Access, Cache};
use crate::config::{CoreConfig, PrefetcherKind};
use crate::digest::{row_digest, PcDeque, RowSum};
use crate::fault::{FaultCounts, FaultPlan};
use crate::interp;
use crate::memory::Memory;
use crate::pipeline::{PipelineStats, WATCHDOG_NEAR_MISS_CYCLES};
use crate::predictor::{Btb, Gshare, ReturnAddressStack};
use crate::tlb::Tlb;
use crate::trace::{TraceConfig, Tracer, UnitId};
use crate::CoreStats;
use microsampler_isa::{
    CsrOp, Inst, Program, Reg, CSR_CYCLE, CSR_EXIT, CSR_FLUSH_DCACHE, CSR_FLUSH_LINE,
    CSR_FLUSH_TLB, CSR_INPUT, CSR_ITER_END, CSR_ITER_START, CSR_OUTPUT, CSR_SCR_END, CSR_SCR_START,
    STACK_TOP,
};
use std::collections::VecDeque;

type PReg = u16;

/// A fast-bypassed operation riding on another instruction's ROB entry.
#[derive(Clone, Debug)]
struct FusedOp {
    pc: u64,
    stale_prd: Option<PReg>,
    arch_rd: Option<Reg>,
    prd: Option<PReg>,
}

/// A rename-map checkpoint taken at a branch or indirect jump.
#[derive(Clone, Debug)]
struct Checkpoint {
    map: [PReg; 32],
    ras: (usize, usize),
}

#[derive(Clone, Debug)]
struct Uop {
    seq: u64,
    pc: u64,
    inst: Inst,
    prd: Option<PReg>,
    stale_prd: Option<PReg>,
    ps1: Option<PReg>,
    ps2: Option<PReg>,
    issued: bool,
    completed: bool,
    result: u64,
    // Branch/jump prediction state.
    pred_taken: bool,
    pred_target: u64,
    hist_before: u64,
    // Fused fast-bypass ops (in program order, all *older* than this uop).
    fused: Vec<FusedOp>,
}

/// An issue-queue entry: a uop and the operands it waits for, so an entry
/// that is not ready never touches the ROB. A store waits for its address
/// operand only (`ps2` is `None`); the LSU picks up its data.
#[derive(Clone, Copy, Debug)]
struct IqEntry {
    seq: u64,
    ps1: Option<PReg>,
    ps2: Option<PReg>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LdState {
    WaitAddr,
    Ready,
    Pending,
    Done,
}

#[derive(Clone, Debug)]
struct LdqEntry {
    seq: u64,
    pc: u64,
    addr: Option<u64>,
    size: u64,
    state: LdState,
    done_cycle: u64,
    extra_delay: u64,
    tlb_done: bool,
    /// The STQ version ([`Core::stq_version`]) at which an older store last
    /// blocked this load; the load skips its STQ scan until it moves.
    blocked: Option<u64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StState {
    WaitAddr,
    WaitData,
    Ready,
    Draining,
    Drained,
}

#[derive(Clone, Debug)]
struct StqEntry {
    seq: u64,
    pc: u64,
    addr: Option<u64>,
    size: u64,
    /// The physical register the store's data comes from.
    data_reg: PReg,
    data: Option<u64>,
    state: StState,
    drain_done: u64,
    tlb_done: bool,
    committed: bool,
}

#[derive(Clone, Debug)]
struct FetchEntry {
    pc: u64,
    inst: Inst,
    pred_taken: bool,
    pred_target: u64,
    hist_before: u64,
    ras_cp: (usize, usize),
}

/// A multiply or divide executing in a long-latency unit.
#[derive(Clone, Copy, Debug)]
struct LongOp {
    seq: u64,
    pc: u64,
    done_cycle: u64,
    value: u64,
}

#[derive(Clone, Debug)]
struct PendingSquash {
    branch_seq: u64,
    apply_at: u64,
    redirect_to: u64,
    actual_taken: bool,
}

/// Counters the SQ, LQ and EUU-MUL trace rows are versioned by. Each
/// only grows, and every mutation of what a row shows bumps one, so the
/// sum of a row's counters changes whenever the row may have changed.
#[derive(Clone, Copy, Debug, Default)]
struct RowVersions {
    /// Store-queue entries joined or left (SQ-PC; SQ-ADDR with `stq_addrs`).
    stq_entries: u64,
    /// Store addresses written at issue.
    stq_addrs: u64,
    /// Load-queue entries joined or left (LQ-PC; LQ-ADDR with `ldq_addrs`).
    ldq_entries: u64,
    /// Load addresses written at issue.
    ldq_addrs: u64,
    /// Multiplies entering or leaving `mul_inflight` (EUU-MUL).
    muls: u64,
}

/// What the LSU's per-entry loops can act on, kept where LDQ and STQ
/// entries change state so that [`Core::lsu_tick`] runs a loop only when it
/// can act. `apply_squash` recounts all but `stq_data`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LsuCounts {
    /// LDQ entries in [`LdState::Ready`].
    ready_loads: usize,
    /// STQ entries in [`StState::WaitData`].
    wait_data: usize,
    /// STQ entries in [`StState::Draining`].
    draining: usize,
    /// No [`LdState::Pending`] load completes before this cycle.
    loads_due: u64,
    /// No [`StState::Drained`] store retires before this cycle.
    stores_due: u64,
    /// Store data captured (only grows): with the SQ row versions, the
    /// STQ version blocked loads wait on.
    stq_data: u64,
}

impl Default for LsuCounts {
    /// Empty queues: nothing to act on, nothing due.
    fn default() -> LsuCounts {
        LsuCounts {
            ready_loads: 0,
            wait_data: 0,
            draining: 0,
            loads_due: u64::MAX,
            stores_due: u64::MAX,
            stq_data: 0,
        }
    }
}

/// The digest sums of the four queue rows, kept current where the queues
/// change while their digests are read (see [`RowSum`]).
#[derive(Clone, Copy, Debug, Default)]
struct QueueSums {
    sq_addr: RowSum,
    sq_pc: RowSum,
    lq_addr: RowSum,
    lq_pc: RowSum,
}

impl QueueSums {
    fn forget(&mut self) {
        for sum in [&mut self.sq_addr, &mut self.sq_pc, &mut self.lq_addr, &mut self.lq_pc] {
            sum.forget();
        }
    }
}

/// How a load stands against the older stores in the STQ.
enum Disambiguation {
    /// An older store's address or data is unknown, or it overlaps the
    /// load only in part: wait.
    Blocked,
    /// The youngest older store that overlaps covers the load.
    Forward(u64),
    /// No older store overlaps: read the cache.
    Memory,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CoreExit {
    Ecall,
    ExitCsr(u64),
}

pub(crate) struct Core {
    pub cfg: CoreConfig,
    pub mem: Memory,
    pub cycle: u64,
    pub stats: CoreStats,
    /// Pipeline occupancy/stall profiling counters (always on — pure
    /// integer counters, so they stay bit-identical regardless of `obs`
    /// enablement or thread count).
    pub pipeline: PipelineStats,
    /// Snapshot of `pipeline` at the last `ITER_START`/`ITER_END` marker;
    /// per-iteration deltas are measured against it.
    iter_pipeline_base: PipelineStats,
    pub tracer: Tracer,
    pub arch_regs: [u64; 32],
    // Front end.
    fetch_pc: u64,
    fetch_buffer: VecDeque<FetchEntry>,
    gshare: Gshare,
    btb: Btb,
    ras: ReturnAddressStack,
    redirect_bubble: u64,
    icache_stall_until: u64,
    l1i: Cache,
    // Rename.
    map: [PReg; 32],
    free_pregs: Vec<PReg>,
    prf: Vec<u64>,
    /// Cycle at which each physical register's value becomes usable by
    /// consumers (models the one-cycle producer→consumer bypass);
    /// `u64::MAX` while its producer has not written it.
    ready_at: Vec<u64>,
    pending_fusion: Vec<FusedOp>,
    // Back end.
    rob: VecDeque<Uop>,
    /// The ROB-PC row before padding: each uop's fused PCs, then its PC,
    /// in ROB order, with the row's digest sum kept current. Kept in step
    /// with `rob` by the only three sites that add or remove uops
    /// (`rename`, `commit`, `apply_squash`).
    rob_pcs: PcDeque,
    rob_base_seq: u64,
    next_seq: u64,
    /// The rename-map checkpoint of every branch and indirect jump in the
    /// ROB, in seq order.
    checkpoints: VecDeque<(u64, Checkpoint)>,
    /// In seq order: rename pushes rising seqs, and squash and issue keep
    /// the order.
    iq: Vec<IqEntry>,
    ldq: VecDeque<LdqEntry>,
    stq: VecDeque<StqEntry>,
    lsu: LsuCounts,
    /// Sums of the SQ-ADDR, SQ-PC, LQ-ADDR and LQ-PC rows.
    sums: QueueSums,
    l1d: Cache,
    tlb: Tlb,
    pending_squashes: Vec<PendingSquash>,
    // Execution unit occupancy for the current cycle (EUU traces).
    alu_busy: Vec<u64>,
    agu_busy: Vec<u64>,
    mul_inflight: Vec<LongOp>,
    div_busy: Option<LongOp>,
    /// Long ops finishing this cycle (scratch reused every cycle).
    long_done: Vec<LongOp>,
    // Per-cycle trace scratch.
    nlp_issued: Vec<u64>,
    dcache_reqs: Vec<u64>,
    /// Row buffer every sampled unit row is built in (no per-cycle
    /// allocation once it has grown to the widest row).
    trace_row: Vec<u64>,
    /// Versions of the SQ, LQ and EUU-MUL rows (see
    /// [`Tracer::repeat_unchanged`]).
    versions: RowVersions,
    // Fault injection (None unless `cfg.faults` is set).
    fault_plan: Option<FaultPlan>,
    /// The LSU neither drains stores nor starts new loads while
    /// `cycle < lsu_stall_until` (injected MSHR-stall windows; `u64::MAX`
    /// is the permanent wedge).
    lsu_stall_until: u64,
    /// Faults actually injected so far.
    pub fault_counts: FaultCounts,
    // Progress watchdog.
    last_commit_cycle: u64,
    text_base: u64,
    text_len: u64,
    /// The text section decoded once at load: slot `i` holds the word at
    /// `decode_base() + 4 * i` (`None`: undecodable). Memory writes that
    /// land in the text section re-decode the words they touch
    /// ([`Core::write_mem`], [`Core::commit_store`]), so fetch always sees
    /// what a decode of memory would give.
    decoded: Vec<Option<Inst>>,
    pub exit: Option<CoreExit>,
    /// Words served to non-speculative `csrr` reads of [`CSR_INPUT`].
    pub input_queue: VecDeque<u64>,
    /// Words written via [`CSR_OUTPUT`] (pushed at commit).
    pub outputs: Vec<u64>,
    /// Per-cycle state dump to stderr (debugging aid).
    pub debug: bool,
}

impl Core {
    pub fn new(cfg: CoreConfig, program: &Program, trace_cfg: TraceConfig) -> Core {
        cfg.validate();
        let mut mem = Memory::new();
        mem.write_bytes(program.text_base, &program.text);
        mem.write_bytes(program.data_base, &program.data);
        let mut map = [0 as PReg; 32];
        let mut prf = vec![0u64; cfg.prf_regs];
        let mut ready_at = vec![u64::MAX; cfg.prf_regs];
        for (i, m) in map.iter_mut().enumerate() {
            *m = i as PReg;
            ready_at[i] = 0;
        }
        prf[Reg::SP.index()] = STACK_TOP;
        let free_pregs: Vec<PReg> = (32..cfg.prf_regs as PReg).rev().collect();
        let mut arch_regs = [0u64; 32];
        arch_regs[Reg::SP.index()] = STACK_TOP;
        let text_len = program.text.len() as u64;
        // Decoded after the data section is written too, in case the two
        // overlap.
        let base = program.text_base & !3;
        let decoded = (0..(program.text_base + text_len - base).div_ceil(4))
            .map(|i| microsampler_isa::decode(mem.read_u32(base + 4 * i)).ok())
            .collect();
        Core {
            fetch_pc: program.entry,
            fetch_buffer: VecDeque::new(),
            gshare: match (cfg.bpred_adversarial_init, cfg.bpred_random_init) {
                (Some(seed), _) => Gshare::new_adversarial(cfg.bpred_entries, seed),
                (None, Some(seed)) => Gshare::new_randomized(cfg.bpred_entries, seed),
                (None, None) => Gshare::new(cfg.bpred_entries),
            },
            btb: Btb::new(cfg.btb_entries),
            ras: ReturnAddressStack::new(cfg.ras_entries),
            redirect_bubble: 0,
            icache_stall_until: 0,
            l1i: Cache::new(cfg.l1i, cfg.l1i.mshrs),
            map,
            free_pregs,
            prf,
            ready_at,
            pending_fusion: Vec::new(),
            rob: VecDeque::with_capacity(cfg.rob_entries),
            rob_pcs: PcDeque::with_capacity(cfg.rob_entries),
            rob_base_seq: 0,
            next_seq: 0,
            checkpoints: VecDeque::new(),
            iq: Vec::with_capacity(cfg.iq_entries),
            ldq: VecDeque::with_capacity(cfg.ldq_entries),
            stq: VecDeque::with_capacity(cfg.stq_entries),
            lsu: LsuCounts::default(),
            sums: QueueSums::default(),
            l1d: Cache::new(cfg.l1d, cfg.lfb_entries),
            tlb: Tlb::new(cfg.tlb_entries),
            pending_squashes: Vec::new(),
            alu_busy: vec![0; cfg.n_alus],
            agu_busy: vec![0; cfg.n_agus],
            mul_inflight: Vec::new(),
            div_busy: None,
            long_done: Vec::new(),
            nlp_issued: Vec::new(),
            dcache_reqs: Vec::new(),
            trace_row: Vec::new(),
            versions: RowVersions::default(),
            fault_plan: cfg.faults.map(FaultPlan::new),
            lsu_stall_until: 0,
            fault_counts: FaultCounts::default(),
            last_commit_cycle: 0,
            text_base: program.text_base,
            text_len,
            decoded,
            arch_regs,
            mem,
            cycle: 0,
            stats: CoreStats::default(),
            pipeline: PipelineStats::default(),
            iter_pipeline_base: PipelineStats::default(),
            tracer: Tracer::new(trace_cfg),
            cfg,
            exit: None,
            input_queue: VecDeque::new(),
            outputs: Vec::new(),
            debug: false,
        }
    }

    fn debug_dump(&self) {
        microsampler_obs::diag_debug!(
            "c{} fpc={:#x} bub={} fb={} iq={:?} squash={:?}",
            self.cycle,
            self.fetch_pc,
            self.redirect_bubble,
            self.fetch_buffer.len(),
            self.iq,
            self.pending_squashes.iter().map(|p| (p.branch_seq, p.apply_at)).collect::<Vec<_>>(),
        );
        for u in &self.rob {
            microsampler_obs::diag_debug!(
                "  rob seq={} pc={:#x} {:?} issued={} done={}",
                u.seq,
                u.pc,
                u.inst,
                u.issued,
                u.completed
            );
        }
        for e in &self.stq {
            microsampler_obs::diag_debug!(
                "  stq seq={} addr={:?} state={:?}",
                e.seq,
                e.addr,
                e.state
            );
        }
        for e in &self.ldq {
            microsampler_obs::diag_debug!(
                "  ldq seq={} addr={:?} state={:?}",
                e.seq,
                e.addr,
                e.state
            );
        }
    }

    fn rob_index(&self, seq: u64) -> Option<usize> {
        let idx = seq.checked_sub(self.rob_base_seq)? as usize;
        (idx < self.rob.len()).then_some(idx)
    }

    fn preg_of(&self, r: Reg) -> PReg {
        if r.is_zero() {
            0
        } else {
            self.map[r.index()]
        }
    }

    fn read_preg(&self, p: PReg) -> u64 {
        if p == 0 {
            0
        } else {
            self.prf[p as usize]
        }
    }

    fn preg_ready(&self, p: Option<PReg>) -> bool {
        match p {
            None => true,
            Some(0) => true,
            Some(p) => self.ready_at[p as usize] <= self.cycle,
        }
    }

    /// Advances one cycle. Sets `self.exit` when the program stops.
    pub fn tick(&mut self) {
        self.cycle += 1;
        self.pipeline.cycles += 1;
        if self.cycle - self.last_commit_cycle == WATCHDOG_NEAR_MISS_CYCLES {
            self.pipeline.watchdog_near_misses += 1;
        }
        self.alu_busy.iter_mut().for_each(|b| *b = 0);
        self.agu_busy.iter_mut().for_each(|b| *b = 0);
        self.nlp_issued.clear();
        self.dcache_reqs.clear();

        self.l1d.tick(self.cycle);
        self.l1i.tick(self.cycle);
        self.inject_faults();
        self.apply_squash();
        self.commit();
        if self.exit.is_some() {
            return;
        }
        self.complete_long_ops();
        self.lsu_tick();
        self.issue();
        self.pipeline.mul_busy += !self.mul_inflight.is_empty() as u64;
        self.pipeline.div_busy += self.div_busy.is_some() as u64;
        self.rename();
        self.fetch();
        if cfg!(debug_assertions) {
            self.check_kept_state();
        }
        self.sample_trace();
        if self.debug {
            self.debug_dump();
        }
    }

    /// Debug builds, every cycle: what the core keeps in step with its
    /// queues equals what a recount gives. The LSU counts match
    /// [`Core::count_lsu`] (their due cycles may be early, never late); the
    /// IQ is in seq order and carries its uops' operands; the checkpoint
    /// ring holds exactly the ROB's branches and indirect jumps.
    fn check_kept_state(&self) {
        let (kept, counted) = (self.lsu, self.count_lsu());
        assert!(
            kept.loads_due <= counted.loads_due && kept.stores_due <= counted.stores_due,
            "LSU due cycles {kept:?} later than a recount's {counted:?}"
        );
        assert_eq!(
            LsuCounts { loads_due: 0, stores_due: 0, ..kept },
            LsuCounts { loads_due: 0, stores_due: 0, ..counted },
            "the kept LSU counts differ from a recount"
        );
        assert!(self.iq.windows(2).all(|w| w[0].seq < w[1].seq), "the IQ is in seq order");
        for e in &self.iq {
            let u = &self.rob[self.rob_index(e.seq).expect("IQ entries are in the ROB")];
            let ps2 = if u.inst.is_store() { None } else { u.ps2 };
            assert_eq!((e.ps1, e.ps2), (u.ps1, ps2), "IQ operands of seq {}", e.seq);
        }
        let branches =
            self.rob.iter().filter(|u| matches!(u.inst, Inst::Branch { .. } | Inst::Jalr { .. }));
        assert!(
            self.checkpoints.iter().map(|&(seq, _)| seq).eq(branches.map(|u| u.seq)),
            "the checkpoint ring differs from the ROB's branches"
        );
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Applies this cycle's scheduled fault perturbations (no-op without
    /// `cfg.faults`). Runs before squash/commit so injected squashes obey
    /// the normal `branch_kill_delay` pipeline timing.
    fn inject_faults(&mut self) {
        let Some(plan) = self.fault_plan else { return };
        let cycle = self.cycle;
        if plan.wedge_at(cycle) {
            self.lsu_stall_until = u64::MAX;
        }
        if let Some(len) = plan.mshr_stall_at(cycle) {
            self.lsu_stall_until = self.lsu_stall_until.max(cycle + len);
            self.fault_counts.mshr_stalls += 1;
        }
        if let Some(salt) = plan.evict_salt_at(cycle) {
            if self.l1d.evict_any(salt).is_some() {
                self.fault_counts.cache_evictions += 1;
            }
        }
        if plan.squash_at(cycle) {
            self.inject_spurious_squash();
        }
    }

    /// Re-squashes the oldest resolved in-flight conditional branch to
    /// its *correct* target: younger work is killed and replayed down the
    /// path it was already on, so the perturbation is architecturally
    /// invisible — only the microarchitectural trace changes.
    fn inject_spurious_squash(&mut self) {
        let victim = self.rob.iter().find_map(|u| {
            if !u.completed {
                return None;
            }
            let Inst::Branch { offset, .. } = u.inst else { return None };
            if self.pending_squashes.iter().any(|ps| ps.branch_seq == u.seq) {
                return None;
            }
            let taken = u.result & 1 == 1;
            let target = if taken { u.pc.wrapping_add(offset as u64) } else { u.pc + 4 };
            Some((u.seq, target, taken))
        });
        if let Some((seq, target, taken)) = victim {
            self.schedule_squash(seq, target, taken);
            self.fault_counts.spurious_squashes += 1;
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.completed {
                break;
            }
            // A mispredicted branch stalls at commit until its squash has
            // been applied — the checkpoint it carries is needed for
            // recovery.
            if self.pending_squashes.iter().any(|ps| ps.branch_seq == head.seq) {
                break;
            }
            // Stores must have drained their STQ slot requirements met at
            // commit time; the drain itself continues in the background.
            let head = self.rob.pop_front().expect("head exists");
            for _ in 0..1 + head.fused.len() {
                self.rob_pcs.pop_front();
            }
            if self.checkpoints.front().is_some_and(|&(seq, _)| seq == head.seq) {
                self.checkpoints.pop_front();
            }
            self.rob_base_seq = head.seq + 1;
            self.last_commit_cycle = self.cycle;
            self.stats.committed += 1 + head.fused.len() as u64;
            self.pipeline.committed += 1 + head.fused.len() as u64;
            // Free stale physical registers.
            for f in &head.fused {
                if let Some(stale) = f.stale_prd {
                    self.free_pregs.push(stale);
                }
                if let (Some(rd), Some(prd)) = (f.arch_rd, f.prd) {
                    self.arch_regs[rd.index()] = self.read_preg(prd);
                }
            }
            if let Some(stale) = head.stale_prd {
                self.free_pregs.push(stale);
            }
            if let (Some(rd), Some(prd)) = (head.inst.rd(), head.prd) {
                self.arch_regs[rd.index()] = self.read_preg(prd);
            }
            match head.inst {
                Inst::Branch { .. } => {
                    self.stats.branches += 1;
                    let taken = head.result & 1 == 1;
                    self.gshare.train(head.pc, head.hist_before, taken);
                }
                Inst::Jalr { .. } => {
                    self.btb.update(head.pc, head.result);
                }
                Inst::Load { .. } if self.ldq.front().map(|e| e.seq) == Some(head.seq) => {
                    let e = self.ldq.pop_front().expect("head load exists");
                    self.sums.lq_pc.pop_front(e.pc);
                    self.sums.lq_addr.pop_front(e.addr.unwrap_or(0));
                    self.versions.ldq_entries += 1;
                }
                Inst::Store { .. } => {
                    self.commit_store(head.seq);
                }
                Inst::Csr { op: CsrOp::Rw, csr, .. } => {
                    self.commit_marker(csr, head.result);
                }
                Inst::Ecall => {
                    self.exit = Some(CoreExit::Ecall);
                    return;
                }
                _ => {}
            }
            if self.exit.is_some() {
                return;
            }
        }
    }

    fn commit_store(&mut self, seq: u64) {
        let Some(entry) = self.stq.iter_mut().find(|e| e.seq == seq) else { return };
        let addr = entry.addr.expect("committed store has an address");
        let data = entry.data.expect("committed store has data");
        let size = entry.size;
        entry.committed = true;
        entry.state = StState::Draining;
        self.lsu.draining += 1;
        self.mem.write_le(addr, size, data);
        self.redecode(addr, size);
    }

    /// Writes memory from outside the pipeline (harness initialization).
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) {
        self.mem.write_bytes(addr, bytes);
        self.redecode(addr, bytes.len() as u64);
    }

    /// Address of decode slot 0: the text base rounded down to a word, so
    /// every word-aligned PC in the text section has a slot.
    fn decode_base(&self) -> u64 {
        self.text_base & !3
    }

    /// Re-decodes every text word overlapping `addr .. addr + len` after a
    /// memory write (self-modifying code and harness patches).
    fn redecode(&mut self, addr: u64, len: u64) {
        let base = self.decode_base();
        let text_end = base + 4 * self.decoded.len() as u64;
        if len == 0 || addr >= text_end || addr.saturating_add(len) <= base {
            return;
        }
        let first = addr.saturating_sub(base) / 4;
        let last = (addr.saturating_add(len).min(text_end) - base).div_ceil(4);
        for i in first..last {
            let word = self.mem.read_u32(base + 4 * i);
            self.decoded[i as usize] = microsampler_isa::decode(word).ok();
        }
    }

    fn commit_marker(&mut self, csr: u16, value: u64) {
        match csr {
            CSR_SCR_START => self.tracer.scr_start(self.cycle),
            CSR_SCR_END => self.tracer.scr_end(self.cycle),
            CSR_ITER_START => {
                let delta = self.pipeline.delta_since(&self.iter_pipeline_base);
                self.tracer.set_pipeline(delta);
                self.tracer.iter_start(self.cycle, value);
                self.iter_pipeline_base = self.pipeline;
            }
            CSR_ITER_END => {
                let delta = self.pipeline.delta_since(&self.iter_pipeline_base);
                self.tracer.set_pipeline(delta);
                self.tracer.iter_end(self.cycle);
                self.iter_pipeline_base = self.pipeline;
            }
            CSR_EXIT => self.exit = Some(CoreExit::ExitCsr(value)),
            CSR_FLUSH_LINE => self.l1d.flush_line(value),
            CSR_FLUSH_DCACHE => self.l1d.flush_all(),
            CSR_FLUSH_TLB => self.tlb.flush(),
            CSR_OUTPUT => self.outputs.push(value),
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    fn apply_squash(&mut self) {
        // Per-branch kill: of the squashes whose kill latency has elapsed,
        // apply the oldest. Pending squashes belonging to branches that the
        // applied squash removes are dropped; an *older* branch's pending
        // squash survives and will re-squash later (its instruction is
        // older than everything this squash killed).
        let now = self.cycle;
        let ready = self
            .pending_squashes
            .iter()
            .filter(|ps| ps.apply_at <= now)
            .min_by_key(|ps| ps.branch_seq)
            .cloned();
        let Some(ps) = ready else { return };
        self.pending_squashes.retain(|p| p.branch_seq < ps.branch_seq);
        let Some(branch_idx) = self.rob_index(ps.branch_seq) else {
            // The branch is gone (killed by an even older squash earlier).
            return;
        };
        // Restore rename state from the branch's checkpoint, and drop the
        // checkpoints of the younger branches.
        let kept = self.checkpoints.partition_point(|&(seq, _)| seq <= ps.branch_seq);
        self.checkpoints.truncate(kept);
        let &(seq, ref cp) = self.checkpoints.back().expect("branch carries a checkpoint");
        debug_assert_eq!(seq, ps.branch_seq, "the squashing branch's checkpoint");
        self.map = cp.map;
        self.ras.restore(cp.ras);
        self.gshare.repair(self.rob[branch_idx].hist_before, ps.actual_taken);
        // Drop younger uops, freeing their physical registers.
        while self.rob.len() > branch_idx + 1 {
            let u = self.rob.pop_back().expect("len checked");
            self.rob_pcs.truncate(self.rob_pcs.len() - 1 - u.fused.len());
            self.stats.squashed += 1 + u.fused.len() as u64;
            if let Some(p) = u.prd {
                self.free_pregs.push(p);
            }
            for f in &u.fused {
                if let Some(p) = f.prd {
                    self.free_pregs.push(p);
                }
            }
        }
        for f in self.pending_fusion.drain(..) {
            if let Some(p) = f.prd {
                self.free_pregs.push(p);
            }
        }
        // Sequence numbers continue contiguously after the branch so the
        // seq ↔ ROB-index invariant holds for the correct path.
        self.next_seq = ps.branch_seq + 1;
        let cutoff = ps.branch_seq;
        self.iq.truncate(self.iq.partition_point(|e| e.seq <= cutoff));
        // The squashed loads and stores are the youngest, so each queue
        // loses its tail (committed stores are older than any uncommitted
        // one).
        let held = (self.ldq.len(), self.stq.len(), self.mul_inflight.len());
        while let Some(e) = self.ldq.back().filter(|e| e.seq > cutoff) {
            let i = self.ldq.len() - 1;
            self.sums.lq_pc.sub(e.pc, i);
            self.sums.lq_addr.sub(e.addr.unwrap_or(0), i);
            self.ldq.pop_back();
        }
        while let Some(e) = self.stq.back().filter(|e| e.seq > cutoff && !e.committed) {
            let i = self.stq.len() - 1;
            self.sums.sq_pc.sub(e.pc, i);
            self.sums.sq_addr.sub(e.addr.unwrap_or(0), i);
            self.stq.pop_back();
        }
        debug_assert!(
            self.ldq.iter().all(|e| e.seq <= cutoff),
            "squashed loads are the LDQ's tail"
        );
        debug_assert!(
            self.stq.iter().all(|e| e.seq <= cutoff || e.committed),
            "squashed stores are the STQ's tail"
        );
        self.mul_inflight.retain(|op| op.seq <= cutoff);
        self.versions.ldq_entries += (held.0 - self.ldq.len()) as u64;
        self.versions.stq_entries += (held.1 - self.stq.len()) as u64;
        self.versions.muls += (held.2 - self.mul_inflight.len()) as u64;
        self.lsu = self.count_lsu();
        if self.div_busy.map(|op| op.seq > cutoff).unwrap_or(false) {
            self.div_busy = None;
        }
        // Redirect the front end.
        self.fetch_buffer.clear();
        self.fetch_pc = ps.redirect_to;
        self.redirect_bubble = 2;
    }

    fn schedule_squash(&mut self, branch_seq: u64, redirect_to: u64, actual_taken: bool) {
        let apply_at = self.cycle + self.cfg.branch_kill_delay;
        if self.pending_squashes.iter().any(|ps| ps.branch_seq == branch_seq) {
            return;
        }
        self.pending_squashes.push(PendingSquash {
            branch_seq,
            apply_at,
            redirect_to,
            actual_taken,
        });
    }

    // ------------------------------------------------------------------
    // Execute / writeback
    // ------------------------------------------------------------------

    fn complete_long_ops(&mut self) {
        let now = self.cycle;
        let mut done = std::mem::take(&mut self.long_done);
        self.mul_inflight.retain(|op| {
            if op.done_cycle <= now {
                done.push(*op);
                false
            } else {
                true
            }
        });
        self.versions.muls += done.len() as u64;
        if let Some(op) = self.div_busy {
            if op.done_cycle <= now {
                done.push(op);
                self.div_busy = None;
            }
        }
        for op in done.drain(..) {
            let Some(idx) = self.rob_index(op.seq) else {
                continue; // squashed while executing
            };
            if let Some(prd) = self.rob[idx].prd {
                self.write_preg(prd, op.value);
            }
            self.rob[idx].completed = true;
        }
        self.long_done = done;
    }

    /// Writes a physical register whose value is usable immediately
    /// (completed fills and long-latency results — the latency has already
    /// been charged).
    fn write_preg(&mut self, prd: PReg, value: u64) {
        self.write_preg_at(prd, value, self.cycle);
    }

    /// Writes a physical register usable from the *next* cycle (single-
    /// cycle ALU results produced during this cycle's issue).
    fn write_preg_next_cycle(&mut self, prd: PReg, value: u64) {
        self.write_preg_at(prd, value, self.cycle + 1);
    }

    fn write_preg_at(&mut self, prd: PReg, value: u64, ready_at: u64) {
        if prd != 0 {
            self.prf[prd as usize] = value;
            self.ready_at[prd as usize] = ready_at;
        }
    }

    // ------------------------------------------------------------------
    // Load/store unit
    // ------------------------------------------------------------------

    /// Runs each per-entry loop only when [`LsuCounts`] says it can act.
    fn lsu_tick(&mut self) {
        let now = self.cycle;
        // Complete pending loads.
        if self.lsu.loads_due <= now {
            let mut due = u64::MAX;
            for i in 0..self.ldq.len() {
                let e = &self.ldq[i];
                if e.state != LdState::Pending {
                    continue;
                }
                if e.done_cycle <= now {
                    let size = e.size;
                    let raw = self.mem.read_le(e.addr.expect("pending load has addr"), size);
                    self.finish_load_with_value(i, raw & mask(size));
                } else {
                    due = due.min(e.done_cycle);
                }
            }
            self.lsu.loads_due = due;
        }
        // An injected MSHR-stall window (or the permanent wedge) freezes
        // new LSU work: no store drains, no new load issues. Completions
        // already in flight and store-data capture still proceed.
        let stalled = self.cycle < self.lsu_stall_until;
        if stalled {
            self.pipeline.fault_stall_cycles += 1;
        }
        // Drain committed stores.
        if !stalled && self.lsu.draining > 0 {
            self.drain_stores(now);
        }
        if self.lsu.stores_due <= now {
            self.retire_drained_stores(now);
        }
        // Mark stores ready when address and data are both known.
        if self.lsu.wait_data > 0 {
            self.capture_store_data();
        }
        // Start memory accesses for ready loads (up to 2 per cycle).
        if !stalled && self.lsu.ready_loads > 0 {
            let (mut started, mut unvisited) = (0, self.lsu.ready_loads);
            for i in 0..self.ldq.len() {
                if started >= 2 || unvisited == 0 {
                    break;
                }
                if self.ldq[i].state == LdState::Ready {
                    unvisited -= 1;
                    started += self.try_start_load(i) as usize;
                }
            }
        }
    }

    /// Sends every draining store's write to the cache; a `Retry` leaves
    /// the store draining for the next cycle.
    fn drain_stores(&mut self, now: u64) {
        for i in 0..self.stq.len() {
            let e = &mut self.stq[i];
            if e.state != StState::Draining {
                continue;
            }
            let addr = e.addr.expect("draining store has addr");
            // First drain attempt translates through the TLB.
            let mut extra = 0;
            if !e.tlb_done {
                e.tlb_done = true;
                if self.tlb.access(addr) {
                    self.stats.tlb_hits += 1;
                } else {
                    self.stats.tlb_misses += 1;
                    extra = self.cfg.tlb_miss_latency;
                }
            }
            self.dcache_reqs.push(addr);
            let done = match self.l1d.access(addr, now + extra, &self.mem) {
                Access::Hit(c) => {
                    self.stats.l1d_hits += 1;
                    c
                }
                Access::Miss(c) => {
                    self.stats.l1d_misses += 1;
                    self.maybe_prefetch(addr);
                    c
                }
                Access::Retry => {
                    self.pipeline.lsu_retry_events += 1;
                    continue;
                }
            };
            let e = &mut self.stq[i];
            e.state = StState::Drained;
            e.drain_done = done + extra;
            self.lsu.draining -= 1;
            self.lsu.stores_due = self.lsu.stores_due.min(e.drain_done);
        }
    }

    /// Removes the drained stores whose write has landed. Head removals
    /// shift the SQ rows left; after a cache `Retry` a younger store can
    /// land first, and a removal behind the head is summed afresh.
    fn retire_drained_stores(&mut self, now: u64) {
        let lands = |e: &StqEntry| e.state == StState::Drained && e.drain_done <= now;
        let held = self.stq.len();
        while let Some(e) = self.stq.front().filter(|e| lands(e)) {
            self.sums.sq_pc.pop_front(e.pc);
            self.sums.sq_addr.pop_front(e.addr.unwrap_or(0));
            self.stq.pop_front();
        }
        let mut due = u64::MAX;
        let mut behind_head = false;
        for e in self.stq.iter().filter(|e| e.state == StState::Drained) {
            if e.drain_done <= now {
                behind_head = true;
            } else {
                due = due.min(e.drain_done);
            }
        }
        if behind_head {
            self.stq.retain(|e| !lands(e));
            self.sums.sq_pc.forget();
            self.sums.sq_addr.forget();
        }
        self.lsu.stores_due = due;
        self.versions.stq_entries += (held - self.stq.len()) as u64;
    }

    /// Captures the data of every store waiting for it whose data register
    /// is ready; only those stores read the ROB.
    fn capture_store_data(&mut self) {
        for i in 0..self.stq.len() {
            let e = &self.stq[i];
            if e.state != StState::WaitData || !self.preg_ready(Some(e.data_reg)) {
                continue;
            }
            let (seq, data) = (e.seq, self.read_preg(e.data_reg));
            let e = &mut self.stq[i];
            e.data = Some(data);
            e.state = StState::Ready;
            self.lsu.wait_data -= 1;
            self.lsu.stq_data += 1;
            let idx = self.rob_index(seq).expect("live store");
            self.rob[idx].completed = true;
        }
    }

    /// A number that moves whenever an older store's presence, address or
    /// data may have changed for any load: what a blocked load waits on.
    fn stq_version(&self) -> u64 {
        self.versions.stq_entries + self.versions.stq_addrs + self.lsu.stq_data
    }

    /// Memory disambiguation of a load of `size` bytes at `addr` against
    /// the stores older than `seq`, youngest first.
    fn disambiguate(&self, seq: u64, addr: u64, size: u64) -> Disambiguation {
        for s in self.stq.iter().rev() {
            if s.seq >= seq {
                continue;
            }
            let Some(saddr) = s.addr else {
                return Disambiguation::Blocked; // unknown older store address
            };
            let overlap = saddr < addr + size && addr < saddr + s.size;
            if !overlap {
                continue;
            }
            let covers = saddr <= addr && saddr + s.size >= addr + size;
            return match (covers, s.data) {
                (true, Some(data)) => {
                    Disambiguation::Forward((data >> (8 * (addr - saddr))) & mask(size))
                }
                // Data not ready yet, or a partial overlap: wait for the
                // store to drain.
                _ => Disambiguation::Blocked,
            };
        }
        Disambiguation::Memory
    }

    /// Attempts to start the memory access of LDQ entry `i`, a load whose
    /// address is known. A load an older store blocked skips the STQ scan
    /// until [`Core::stq_version`] moves; the blocked cases return before
    /// any side effect. A cache `Retry` does have side effects (a request,
    /// a retry event, an LRU stamp), so a retried load tries every cycle.
    fn try_start_load(&mut self, i: usize) -> bool {
        let LdqEntry { seq, addr, size, blocked, .. } = self.ldq[i];
        let addr = addr.expect("ready load has addr");
        let version = self.stq_version();
        if blocked == Some(version) {
            debug_assert!(
                matches!(self.disambiguate(seq, addr, size), Disambiguation::Blocked),
                "load {seq} skipped its STQ scan but an older store no longer blocks it"
            );
            return false;
        }
        let now = self.cycle;
        match self.disambiguate(seq, addr, size) {
            Disambiguation::Blocked => {
                self.ldq[i].blocked = Some(version);
                return false;
            }
            Disambiguation::Forward(value) => {
                // Store-to-load forwarding: the value never touches the cache.
                self.stats.stl_forwards += 1;
                self.finish_load_with_value(i, value);
                self.lsu.ready_loads -= 1;
                return true;
            }
            Disambiguation::Memory => {}
        }
        // TLB.
        let mut extra = self.ldq[i].extra_delay;
        if !self.ldq[i].tlb_done {
            if self.tlb.access(addr) {
                self.stats.tlb_hits += 1;
            } else {
                self.stats.tlb_misses += 1;
                extra = self.cfg.tlb_miss_latency;
            }
        }
        self.dcache_reqs.push(addr);
        self.ldq[i].tlb_done = true;
        let done = match self.l1d.access(addr, now + extra, &self.mem) {
            Access::Hit(c) => {
                self.stats.l1d_hits += 1;
                c
            }
            Access::Miss(c) => {
                self.stats.l1d_misses += 1;
                self.maybe_prefetch(addr);
                c
            }
            Access::Retry => {
                self.pipeline.lsu_retry_events += 1;
                self.ldq[i].extra_delay = extra;
                return false;
            }
        };
        let e = &mut self.ldq[i];
        e.state = LdState::Pending;
        e.done_cycle = done + extra;
        self.lsu.ready_loads -= 1;
        self.lsu.loads_due = self.lsu.loads_due.min(e.done_cycle);
        true
    }

    /// [`LsuCounts`] counted afresh from the queues (`stq_data` carried).
    fn count_lsu(&self) -> LsuCounts {
        let mut c = LsuCounts { stq_data: self.lsu.stq_data, ..LsuCounts::default() };
        for e in &self.ldq {
            match e.state {
                LdState::Ready => c.ready_loads += 1,
                LdState::Pending => c.loads_due = c.loads_due.min(e.done_cycle),
                LdState::WaitAddr | LdState::Done => {}
            }
        }
        for e in &self.stq {
            match e.state {
                StState::WaitData => c.wait_data += 1,
                StState::Draining => c.draining += 1,
                StState::Drained => c.stores_due = c.stores_due.min(e.drain_done),
                StState::WaitAddr | StState::Ready => {}
            }
        }
        c
    }

    fn maybe_prefetch(&mut self, addr: u64) {
        if self.cfg.prefetcher == PrefetcherKind::NextLine {
            let next = self.l1d.line_addr(addr) + self.cfg.l1d.line_bytes;
            if self.l1d.prefetch(next, self.cycle, &self.mem) {
                self.stats.prefetches += 1;
                self.nlp_issued.push(next);
            }
        }
    }

    /// Completes LDQ entry `i` with the (masked) loaded bytes `raw`.
    fn finish_load_with_value(&mut self, i: usize, raw: u64) {
        self.ldq[i].state = LdState::Done;
        let idx = self.rob_index(self.ldq[i].seq).expect("live uop");
        let u = &self.rob[idx];
        let Inst::Load { op, .. } = u.inst else { unreachable!("LDQ entry refers to a load") };
        let value = interp::extend_load(op, raw);
        if let Some(prd) = u.prd {
            self.write_preg(prd, value);
        }
        let u = &mut self.rob[idx];
        u.result = value;
        u.completed = true;
    }

    // ------------------------------------------------------------------
    // Issue / execute (single-cycle and unit dispatch)
    // ------------------------------------------------------------------

    fn issue(&mut self) {
        let mut issued = 0;
        let mut alus_used = 0;
        let mut agus_used = 0;
        let mut mul_issued = false;
        // Issued slots are overwritten with `ISSUED` and dropped by one
        // `retain` at the end.
        const ISSUED: u64 = u64::MAX;
        for slot in 0..self.iq.len() {
            if issued >= self.cfg.issue_width {
                break;
            }
            // Stores only need the address operand to issue to the AGU;
            // the data operand is picked up by the LSU when it is ready.
            let IqEntry { seq, ps1, ps2 } = self.iq[slot];
            if !self.preg_ready(ps1) || !self.preg_ready(ps2) {
                continue;
            }
            let idx = self.rob_index(seq).expect("issue-queue entries are in the ROB");
            let inst = self.rob[idx].inst;
            let a = self.read_preg(ps1.unwrap_or(0));
            let b = self.read_preg(ps2.unwrap_or(0));
            match inst {
                Inst::MulDiv { op, .. } if !op.is_div() => {
                    if mul_issued {
                        continue;
                    }
                    mul_issued = true;
                    let value = interp::muldiv(op, a, b);
                    let pc = self.rob[idx].pc;
                    // Operand-dependent early-out (off in the paper presets):
                    // narrow operands complete in one cycle, making `mul`
                    // latency secret-dependent.
                    let latency = if self.cfg.mul_early_out && (a < (1 << 16) || b < (1 << 16)) {
                        1
                    } else {
                        self.cfg.mul_latency
                    };
                    self.mul_inflight.push(LongOp {
                        seq,
                        pc,
                        done_cycle: self.cycle + latency,
                        value,
                    });
                    self.versions.muls += 1;
                    self.rob[idx].issued = true;
                }
                Inst::MulDiv { op, .. } => {
                    if self.div_busy.is_some() {
                        continue;
                    }
                    let value = interp::muldiv(op, a, b);
                    let pc = self.rob[idx].pc;
                    self.div_busy = Some(LongOp {
                        seq,
                        pc,
                        done_cycle: self.cycle + self.cfg.div_latency,
                        value,
                    });
                    self.rob[idx].issued = true;
                }
                Inst::Load { .. } | Inst::Store { .. } => {
                    if agus_used >= self.cfg.n_agus {
                        continue;
                    }
                    let (_, offset) = inst.mem_base().expect("memory shape");
                    let addr = a.wrapping_add(offset as u64);
                    let pc = self.rob[idx].pc;
                    self.agu_busy[agus_used] = pc;
                    agus_used += 1;
                    self.rob[idx].issued = true;
                    // The address is written in place at entry `i`.
                    if matches!(inst, Inst::Load { .. }) {
                        if let Ok(i) = self.ldq.binary_search_by_key(&seq, |e| e.seq) {
                            let e = &mut self.ldq[i];
                            if let Some(old) = e.addr.replace(addr) {
                                self.sums.lq_addr.sub(old, i);
                            }
                            self.sums.lq_addr.add(addr, i);
                            e.state = LdState::Ready;
                            self.lsu.ready_loads += 1;
                            self.versions.ldq_addrs += 1;
                        }
                    } else if let Ok(i) = self.stq.binary_search_by_key(&seq, |e| e.seq) {
                        let e = &mut self.stq[i];
                        if let Some(old) = e.addr.replace(addr) {
                            self.sums.sq_addr.sub(old, i);
                        }
                        self.sums.sq_addr.add(addr, i);
                        e.state = StState::WaitData;
                        self.lsu.wait_data += 1;
                        self.versions.stq_addrs += 1;
                    }
                }
                _ => {
                    if alus_used >= self.cfg.n_alus {
                        continue;
                    }
                    // Input and cycle CSR reads are non-speculative: only
                    // execute at the head of the ROB (all older
                    // instructions committed, so this instruction cannot
                    // be squashed and the cycle read is serialized).
                    if matches!(inst, Inst::Csr { csr: CSR_INPUT | CSR_CYCLE, .. })
                        && seq != self.rob_base_seq
                    {
                        continue;
                    }
                    let pc = self.rob[idx].pc;
                    self.alu_busy[alus_used] = pc;
                    alus_used += 1;
                    self.rob[idx].issued = true;
                    self.execute_alu(seq, a, b);
                }
            }
            self.iq[slot].seq = ISSUED;
            issued += 1;
        }
        self.iq.retain(|e| e.seq != ISSUED);
        self.pipeline.alu_busy += alus_used as u64;
        self.pipeline.agu_busy += agus_used as u64;
    }

    fn execute_alu(&mut self, seq: u64, a: u64, b: u64) {
        let idx = self.rob_index(seq).expect("live uop");
        let (pc, inst, prd, pred_taken, pred_target) = {
            let u = &self.rob[idx];
            (u.pc, u.inst, u.prd, u.pred_taken, u.pred_target)
        };
        let mut result = 0u64;
        match inst {
            Inst::Lui { imm, .. } => result = imm as u64,
            Inst::Auipc { imm, .. } => result = pc.wrapping_add(imm as u64),
            Inst::OpImm { op, imm, .. } => result = interp::alu(op, a, imm as u64),
            Inst::Op { op, .. } => result = interp::alu(op, a, b),
            Inst::Jal { .. } => result = pc.wrapping_add(4),
            Inst::Jalr { offset, .. } => {
                let target = a.wrapping_add(offset as u64) & !1;
                if target != pred_target {
                    self.stats.jalr_mispredicts += 1;
                    self.schedule_squash(seq, target, true);
                }
                if let Some(prd) = prd {
                    self.write_preg_next_cycle(prd, pc.wrapping_add(4));
                }
                let u = &mut self.rob[idx];
                u.result = target;
                u.completed = true;
                return;
            }
            Inst::Branch { op, offset, .. } => {
                let taken = interp::branch_taken(op, a, b);
                result = taken as u64;
                if taken != pred_taken {
                    self.stats.branch_mispredicts += 1;
                    let target = if taken { pc.wrapping_add(offset as u64) } else { pc + 4 };
                    self.schedule_squash(seq, target, taken);
                }
            }
            Inst::Csr { csr, .. } => {
                result = match csr {
                    CSR_INPUT => self.input_queue.pop_front().unwrap_or(0),
                    CSR_CYCLE => self.cycle,
                    _ => a,
                };
            }
            Inst::Ecall | Inst::Ebreak | Inst::Fence => {}
            Inst::Load { .. } | Inst::Store { .. } | Inst::MulDiv { .. } => {
                unreachable!("handled by dedicated units")
            }
        }
        if let Some(prd) = prd {
            self.write_preg_next_cycle(prd, result);
        }
        let u = &mut self.rob[idx];
        u.result = result;
        u.completed = true;
    }

    // ------------------------------------------------------------------
    // Rename / dispatch
    // ------------------------------------------------------------------

    fn rename(&mut self) {
        // Stall-cause attribution: when *zero* instructions rename this
        // cycle, charge the cycle to whatever blocked the first slot (any
        // later slot only runs because every earlier one renamed).
        for slot in 0..self.cfg.decode_width {
            let Some(fe) = self.fetch_buffer.front() else {
                if slot == 0 {
                    self.pipeline.fetch_starved_cycles += 1;
                }
                break;
            };
            if self.rob.len() >= self.cfg.rob_entries {
                if slot == 0 {
                    self.pipeline.rob_full_cycles += 1;
                }
                break;
            }
            // A fence drains the store queue: it does not rename until
            // every older store (including background drains) has left.
            if matches!(fe.inst, Inst::Fence) && !self.stq.is_empty() {
                if slot == 0 {
                    self.pipeline.dispatch_stall_cycles += 1;
                }
                break;
            }
            let needs_iq = !matches!(fe.inst, Inst::Ecall | Inst::Ebreak | Inst::Fence);
            if needs_iq && self.iq.len() >= self.cfg.iq_entries {
                if slot == 0 {
                    self.pipeline.dispatch_stall_cycles += 1;
                }
                break;
            }
            if fe.inst.is_load() && self.ldq.len() >= self.cfg.ldq_entries {
                if slot == 0 {
                    self.pipeline.dispatch_stall_cycles += 1;
                }
                break;
            }
            if fe.inst.is_store() && self.stq.len() >= self.cfg.stq_entries {
                if slot == 0 {
                    self.pipeline.dispatch_stall_cycles += 1;
                }
                break;
            }
            let needs_preg = fe.inst.rd().is_some();
            if needs_preg && self.free_pregs.is_empty() {
                if slot == 0 {
                    self.pipeline.dispatch_stall_cycles += 1;
                }
                break;
            }
            let fe = self.fetch_buffer.pop_front().expect("checked above");
            // Fast-bypass check (paper §VII-B): a register-register AND with
            // an available zero operand skips execution entirely.
            if self.cfg.fast_bypass {
                if let Inst::Op { op: microsampler_isa::AluOp::And, rd, rs1, rs2 } = fe.inst {
                    let p1 = self.preg_of(rs1);
                    let p2 = self.preg_of(rs2);
                    let zero_operand = (self.preg_ready(Some(p1)) && self.read_preg(p1) == 0)
                        || (self.preg_ready(Some(p2)) && self.read_preg(p2) == 0);
                    if zero_operand {
                        self.stats.fast_bypasses += 1;
                        let (prd, stale) = if rd.is_zero() {
                            (None, None)
                        } else {
                            let p = self.free_pregs.pop().expect("checked above");
                            let stale = self.map[rd.index()];
                            self.map[rd.index()] = p;
                            self.prf[p as usize] = 0;
                            self.ready_at[p as usize] = self.cycle;
                            (Some(p), Some(stale))
                        };
                        self.pending_fusion.push(FusedOp {
                            pc: fe.pc,
                            stale_prd: stale,
                            arch_rd: (!rd.is_zero()).then_some(rd),
                            prd,
                        });
                        continue;
                    }
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let (rs1, rs2) = fe.inst.sources();
            let ps1 = rs1.map(|r| self.preg_of(r));
            let ps2 = rs2.map(|r| self.preg_of(r));
            let (prd, stale_prd) = match fe.inst.rd() {
                Some(rd) => {
                    let p = self.free_pregs.pop().expect("checked above");
                    let stale = self.map[rd.index()];
                    self.map[rd.index()] = p;
                    self.ready_at[p as usize] = u64::MAX;
                    (Some(p), Some(stale))
                }
                None => (None, None),
            };
            if matches!(fe.inst, Inst::Branch { .. } | Inst::Jalr { .. }) {
                self.checkpoints.push_back((seq, Checkpoint { map: self.map, ras: fe.ras_cp }));
            }
            let completed = matches!(fe.inst, Inst::Ecall | Inst::Ebreak | Inst::Fence);
            let uop = Uop {
                seq,
                pc: fe.pc,
                inst: fe.inst,
                prd,
                stale_prd,
                ps1,
                ps2,
                issued: false,
                completed,
                result: 0,
                pred_taken: fe.pred_taken,
                pred_target: fe.pred_target,
                hist_before: fe.hist_before,
                fused: std::mem::take(&mut self.pending_fusion),
            };
            // A queue entry joins at the tail with no address yet: the
            // ADDR row's sum gains nothing.
            if fe.inst.is_load() {
                self.versions.ldq_entries += 1;
                self.sums.lq_pc.add(fe.pc, self.ldq.len());
                self.ldq.push_back(LdqEntry {
                    seq,
                    pc: fe.pc,
                    addr: None,
                    size: fe.inst.mem_size().expect("load shape"),
                    state: LdState::WaitAddr,
                    done_cycle: 0,
                    extra_delay: 0,
                    tlb_done: false,
                    blocked: None,
                });
            }
            let is_store = fe.inst.is_store();
            if is_store {
                self.versions.stq_entries += 1;
                self.sums.sq_pc.add(fe.pc, self.stq.len());
                self.stq.push_back(StqEntry {
                    seq,
                    pc: fe.pc,
                    addr: None,
                    size: fe.inst.mem_size().expect("store shape"),
                    data_reg: ps2.expect("a store has a data operand"),
                    data: None,
                    state: StState::WaitAddr,
                    drain_done: 0,
                    tlb_done: false,
                    committed: false,
                });
            }
            if needs_iq {
                self.iq.push(IqEntry { seq, ps1, ps2: if is_store { None } else { ps2 } });
            }
            for f in &uop.fused {
                self.rob_pcs.push_back(f.pc);
            }
            self.rob_pcs.push_back(uop.pc);
            self.rob.push_back(uop);
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn fetch(&mut self) {
        if self.redirect_bubble > 0 {
            self.redirect_bubble -= 1;
            self.pipeline.squash_recovery_cycles += 1;
            return;
        }
        if self.icache_stall_until > self.cycle {
            self.pipeline.icache_stall_cycles += 1;
            return;
        }
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width
            && self.fetch_buffer.len() < self.cfg.fetch_buffer_entries
        {
            let pc = self.fetch_pc;
            if pc < self.text_base || pc >= self.text_base + self.text_len || !pc.is_multiple_of(4)
            {
                // Off the map (almost always a wrong path): stall until a
                // squash redirects us.
                return;
            }
            match self.l1i.access(pc, self.cycle, &self.mem) {
                Access::Hit(_) => self.stats.l1i_hits += 1,
                Access::Miss(ready) => {
                    self.stats.l1i_misses += 1;
                    self.icache_stall_until = ready;
                    self.pipeline.icache_stall_cycles += 1;
                    return;
                }
                Access::Retry => return,
            }
            let Some(inst) = self.decoded[((pc - self.decode_base()) / 4) as usize] else {
                // Undecodable word on a (wrong) path: stall.
                return;
            };
            let ras_cp = self.ras.checkpoint();
            let hist_before = self.gshare.history();
            let mut pred_taken = false;
            let mut pred_target = pc + 4;
            match inst {
                Inst::Jal { rd, offset } => {
                    pred_taken = true;
                    pred_target = pc.wrapping_add(offset as u64);
                    if rd == Reg::RA {
                        self.ras.push(pc + 4);
                    }
                }
                Inst::Jalr { rd, rs1, .. } => {
                    pred_taken = true;
                    pred_target = if rd.is_zero() && rs1 == Reg::RA {
                        self.ras.pop().or_else(|| self.btb.lookup(pc)).unwrap_or(pc + 4)
                    } else {
                        self.btb.lookup(pc).unwrap_or(pc + 4)
                    };
                    if rd == Reg::RA {
                        self.ras.push(pc + 4);
                    }
                }
                Inst::Branch { offset, .. } => {
                    pred_taken = self.gshare.predict_and_update_history(pc);
                    if pred_taken {
                        pred_target = pc.wrapping_add(offset as u64);
                    }
                }
                _ => {}
            }
            self.fetch_buffer.push_back(FetchEntry {
                pc,
                inst,
                pred_taken,
                pred_target,
                hist_before,
                ras_cp,
            });
            fetched += 1;
            self.fetch_pc = pred_target;
            if pred_taken {
                // Taken control flow ends the fetch group (one-bubble
                // redirect within the front end).
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    fn sample_trace(&mut self) {
        if !self.tracer.active() {
            self.rob_pcs.forget_sum();
            self.sums.forget();
            return;
        }
        self.tracer.begin_cycle(self.cycle);
        let cfg = &self.cfg;
        let tracer = &mut self.tracer;
        let row = &mut self.trace_row;
        let v = self.versions;

        let (stq, ldq, sums) = (&self.stq, &self.ldq, &mut self.sums);
        let sq_addrs = || stq.iter().map(|e| e.addr.unwrap_or(0));
        let sq_pcs = || stq.iter().map(|e| e.pc);
        let lq_addrs = || ldq.iter().map(|e| e.addr.unwrap_or(0));
        let lq_pcs = || ldq.iter().map(|e| e.pc);
        let (sq, lq) = (cfg.stq_entries, cfg.ldq_entries);
        let sq_addr = v.stq_entries + v.stq_addrs;
        record_queue(tracer, UnitId::SqAddr, sq_addr, &mut sums.sq_addr, sq, row, sq_addrs);
        record_queue(tracer, UnitId::SqPc, v.stq_entries, &mut sums.sq_pc, sq, row, sq_pcs);
        let lq_addr = v.ldq_entries + v.ldq_addrs;
        record_queue(tracer, UnitId::LqAddr, lq_addr, &mut sums.lq_addr, lq, row, lq_addrs);
        record_queue(tracer, UnitId::LqPc, v.ldq_entries, &mut sums.lq_pc, lq, row, lq_pcs);

        tracer.record_row(UnitId::RobOccupancy, &[self.rob.len() as u64]);

        // Fused fast-bypass ops sit before their carrier's PC; the row is
        // never truncated, only padded to the ROB size.
        debug_assert!(
            self.rob
                .iter()
                .flat_map(|u| u.fused.iter().map(|f| f.pc).chain([u.pc]))
                .eq(self.rob_pcs.iter()),
            "the ROB-PC mirror differs from the ROB"
        );
        let wants_row = tracer.wants_rows(UnitId::RobPc);
        let digest = (!wants_row).then(|| self.rob_pcs.digest(cfg.rob_entries));
        let rob_pcs = &self.rob_pcs;
        let rob_row = |row: &mut Vec<u64>| {
            let (head, tail) = rob_pcs.as_slices();
            row.clear();
            row.extend_from_slice(head);
            row.extend_from_slice(tail);
            pad_row(row, cfg.rob_entries);
        };
        match digest {
            Some(digest) => record_digest(tracer, UnitId::RobPc, None, digest, row, rob_row),
            None => {
                rob_row(row);
                tracer.record_row(UnitId::RobPc, row);
            }
        }

        let buffers = self.l1d.buffers_version();
        record_versioned(tracer, UnitId::LfbData, buffers, row, |row| {
            fixed_row(row, cfg.lfb_entries, self.l1d.lfb_entries().map(|l| l.data_digest));
        });
        record_versioned(tracer, UnitId::LfbAddr, buffers, row, |row| {
            fixed_row(row, cfg.lfb_entries, self.l1d.lfb_entries().map(|l| l.line_addr));
        });

        tracer.record_row(UnitId::EuuAlu, &self.alu_busy);
        tracer.record_row(UnitId::EuuAddrGen, &self.agu_busy);
        let div = self.div_busy.map_or(0, |op| op.pc);
        record_versioned(tracer, UnitId::EuuDiv, div, row, |row| {
            row.clear();
            row.push(div);
        });

        record_versioned(tracer, UnitId::EuuMul, v.muls, row, |row| {
            fixed_row(row, cfg.mul_latency as usize, self.mul_inflight.iter().map(|op| op.pc));
        });

        // Every cycle that issues a prefetch gets a version of its own.
        let nlp = if self.nlp_issued.is_empty() { 0 } else { self.cycle };
        record_versioned(tracer, UnitId::NlpAddr, nlp, row, |row| {
            row.clear();
            row.extend_from_slice(&self.nlp_issued);
            pad_row(row, 2);
        });
        row.clear();
        row.extend_from_slice(&self.dcache_reqs);
        tracer.record_row(UnitId::CacheAddr, pad_row(row, 4));

        record_versioned(tracer, UnitId::TlbAddr, self.tlb.pages_version(), row, |row| {
            fixed_row(row, cfg.tlb_entries, self.tlb.resident_pages());
        });
        record_versioned(tracer, UnitId::MshrAddr, buffers, row, |row| {
            fixed_row(row, cfg.l1d.mshrs, self.l1d.mshr_addrs());
        });
    }

    /// Cycles since the last commit (deadlock watchdog input).
    pub fn cycles_since_commit(&self) -> u64 {
        self.cycle - self.last_commit_cycle
    }

    /// Flushes the L1D line containing `addr` (harness-level attacker model).
    pub fn flush_dcache_line(&mut self, addr: u64) {
        self.l1d.flush_line(addr);
    }

    /// Installs the L1D lines covering `addr..addr+len` (harness warming).
    pub fn warm_dcache(&mut self, addr: u64, len: u64) {
        let line = self.cfg.l1d.line_bytes;
        let mut a = self.l1d.line_addr(addr);
        while a < addr + len {
            self.l1d.install(a);
            a += line;
        }
    }
}

/// Records `unit`'s row for this cycle, building it in `row` (by `build`)
/// only when the tracer cannot extend the unit's run on `version` alone.
fn record_versioned(
    tracer: &mut Tracer,
    unit: UnitId,
    version: u64,
    row: &mut Vec<u64>,
    build: impl Fn(&mut Vec<u64>),
) {
    if !repeat_unchanged(tracer, unit, version, row, &build) {
        build(row);
        tracer.record_versioned(unit, version, row);
    }
}

/// Records a queue unit's row for this cycle: `width` words, `values()`
/// first and zeros after them. Where the tracer cannot extend the unit's
/// run on `version` alone, the row is built in `row` only if the tracer
/// wants it ([`Tracer::wants_rows`]); otherwise its digest is read from
/// the row's kept `sum` (summed from the queue if it was not kept).
fn record_queue<I: Iterator<Item = u64>>(
    tracer: &mut Tracer,
    unit: UnitId,
    version: u64,
    sum: &mut RowSum,
    width: usize,
    row: &mut Vec<u64>,
    values: impl Fn() -> I,
) {
    let build = |row: &mut Vec<u64>| {
        fixed_row(row, width, values());
    };
    if repeat_unchanged(tracer, unit, version, row, build) {
        return;
    }
    if tracer.wants_rows(unit) {
        build(row);
        tracer.record_versioned(unit, version, row);
    } else {
        debug_assert!(values().count() <= width, "{unit}: a queue holds at most its row's width");
        let digest = sum.digest(width, &values);
        record_digest(tracer, unit, Some(version), digest, row, build);
    }
}

/// Extends `unit`'s run on `version` alone where the tracer allows it
/// ([`Tracer::repeat_unchanged`]). Debug builds then rebuild the row (by
/// `build`) and check that its digest is the run's, so a missed version
/// bump fails the tests.
fn repeat_unchanged(
    tracer: &mut Tracer,
    unit: UnitId,
    version: u64,
    row: &mut Vec<u64>,
    build: impl Fn(&mut Vec<u64>),
) -> bool {
    if !tracer.repeat_unchanged(unit, version) {
        return false;
    }
    if cfg!(debug_assertions) {
        build(row);
        debug_assert_eq!(
            tracer.run_digest(unit),
            Some(row_digest(row)),
            "{unit}: version {version} unchanged but the row changed"
        );
    }
    true
}

/// Records `unit`'s row for this cycle by its `digest` alone
/// ([`Tracer::record_digest`]). Debug builds rebuild the row (by `build`)
/// and check that `digest` is its digest.
fn record_digest(
    tracer: &mut Tracer,
    unit: UnitId,
    version: Option<u64>,
    digest: u64,
    row: &mut Vec<u64>,
    build: impl Fn(&mut Vec<u64>),
) {
    if cfg!(debug_assertions) {
        build(row);
        debug_assert_eq!(digest, row_digest(row), "{unit}: the kept digest differs from the row's");
    }
    tracer.record_digest(unit, version, digest);
}

/// Refills `row` with the first `width` of `values`, zero-padded to exactly
/// `width` entries.
fn fixed_row(row: &mut Vec<u64>, width: usize, values: impl Iterator<Item = u64>) -> &[u64] {
    row.clear();
    row.extend(values.take(width));
    row.resize(width, 0);
    row
}

/// Zero-pads `row` to at least `min_width` entries (never truncates).
fn pad_row(row: &mut Vec<u64>, min_width: usize) -> &[u64] {
    if row.len() < min_width {
        row.resize(min_width, 0);
    }
    row
}

fn mask(size: u64) -> u64 {
    if size >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * size)) - 1
    }
}
