//! The per-instruction timing model.
//!
//! Consumes the retired-instruction stream from the shared functional
//! interpreter and charges cycles for front-end (I-cache, branch
//! prediction), execute (mul/div latency), and memory (D-cache, DRAM,
//! remote-memory faults). The same instruction stream the functional
//! simulators execute is what gets timed — timing never changes
//! architectural behaviour.
//!
//! The stream arrives as 16-byte [`Record`]s, and [`Pipeline::charge`]
//! charges a batch of them in one loop: the one charging body, which the
//! one-record [`Timing`] calls go through too.

use marshal_isa::interp::{RetireKind, Retired};
use marshal_sim_functional::syscall::Timing;

use crate::bpred::{Predictor, ReturnAddressStack};
use crate::cache::{Access, Cache, CacheStats};
use crate::config::{HardwareConfig, RemoteMemConfig};
use crate::pfa::{PfaStats, RemoteMemory, RemoteMode};

/// The codes of a [`Record`]'s top byte: a kind in the low nibble, flags
/// above it. The retired kinds are numbered in [`RetireKind`]'s order, so
/// the encoder's match maps a kind to itself.
mod code {
    pub const ALU: u8 = 0;
    pub const MUL: u8 = 1;
    pub const DIV: u8 = 2;
    pub const LOAD: u8 = 3;
    pub const STORE: u8 = 4;
    pub const BRANCH: u8 = 5;
    pub const JUMP: u8 = 6;
    pub const JUMP_REG: u8 = 7;
    pub const CSR: u8 = 8;
    pub const SYSTEM: u8 = 9;
    pub const SYSCALL: u8 = 10;
    /// The escape for a pc that does not fit the word.
    pub const WIDE_PC: u8 = 11;
    pub const KIND: u8 = 0x0f;
    pub const TAKEN: u8 = 0x10;
    pub const CALL: u8 = 0x20;
    pub const RET: u8 = 0x40;
    pub const REMOTE: u8 = 0x80;
}

/// One retired instruction or serviced syscall as the timing model reads
/// it: 16 bytes, `Copy`.
///
/// The first word holds the pc in its low 56 bits and a code byte in its
/// top 8: the kind, and the taken, call, ret and remote flags. The second
/// holds the one operand the model reads: the load or store address, the
/// `jalr` target or the syscall number. `next_pc` and the branch and `jal`
/// targets are never read, so they are not sent.
///
/// A pc at or above 2^56 does not fit. It takes an escape rather than a
/// truncation: a wide-pc record whose operand is the full pc goes first,
/// and the instruction's own record, with a zero pc field, follows it.
/// [`Record::encode`] emits both, and a batch never splits them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Record {
    word: u64,
    operand: u64,
}

const _: () = assert!(std::mem::size_of::<Record>() == 16);

/// `bits` when `set`, else none: a code byte's flag.
#[inline]
fn flag(set: bool, bits: u8) -> u8 {
    u8::from(set) * bits
}

/// The pc bits of a [`Record`]'s first word.
const PC_MASK: u64 = (1 << 56) - 1;

impl Record {
    #[inline]
    fn new(code: u8, pc: u64, operand: u64) -> Record {
        Record {
            word: (code as u64) << 56 | pc,
            operand,
        }
    }

    /// Whether `pc` fits a record's word. An instruction at a pc that does
    /// not takes the escape of [`Record::encode`].
    #[inline]
    fn fits(pc: u64) -> bool {
        pc <= PC_MASK
    }

    /// The record of a retired instruction that is not a jump and whose pc
    /// is below 2^56, or `None`: the interpreter's fast path, where these
    /// make most of the stream. [`Record::encode`] takes the rest.
    /// `is_remote` marks an access to the remote-memory window.
    ///
    /// Each match yields a value only, and the kind codes follow
    /// [`RetireKind`]'s order, so the compiler reads the kind once and
    /// selects the fields without a jump per kind: a jump the host
    /// mispredicts whenever the kind changes.
    #[inline]
    pub fn straight(r: &Retired, is_remote: bool) -> Option<Record> {
        use code::*;
        let kind = match r.kind {
            RetireKind::Alu => ALU,
            RetireKind::Mul => MUL,
            RetireKind::Div => DIV,
            RetireKind::Load { .. } => LOAD,
            RetireKind::Store { .. } => STORE,
            RetireKind::Branch { .. } => BRANCH,
            RetireKind::Jump { .. } => JUMP,
            RetireKind::JumpReg { .. } => JUMP_REG,
            RetireKind::Csr => CSR,
            RetireKind::System => SYSTEM,
        };
        let operand = match r.kind {
            RetireKind::Load { addr } | RetireKind::Store { addr } => addr,
            _ => 0,
        };
        let taken = matches!(r.kind, RetireKind::Branch { taken: true, .. });
        let code = kind | flag(taken, TAKEN) | flag(is_remote, REMOTE);
        let straight = kind != JUMP && kind != JUMP_REG && Record::fits(r.pc);
        straight.then(|| Record::new(code, r.pc, operand))
    }

    /// Emits the records of one retired instruction at any pc: its own,
    /// preceded by the wide-pc escape when the pc does not fit.
    pub fn encode(r: &Retired, is_remote: bool, mut emit: impl FnMut(Record)) {
        let (code, operand) = Record::fields(r, is_remote);
        if Record::fits(r.pc) {
            emit(Record::new(code, r.pc, operand));
        } else {
            emit(Record::new(code::WIDE_PC, 0, r.pc));
            emit(Record::new(code, 0, operand));
        }
    }

    /// The code byte and operand of a retired instruction.
    #[inline]
    fn fields(r: &Retired, is_remote: bool) -> (u8, u64) {
        use code::*;
        let (kind, operand) = match r.kind {
            RetireKind::Alu => (ALU, 0),
            RetireKind::Mul => (MUL, 0),
            RetireKind::Div => (DIV, 0),
            RetireKind::Load { addr } => (LOAD, addr),
            RetireKind::Store { addr } => (STORE, addr),
            RetireKind::Branch { taken, .. } => (BRANCH | flag(taken, TAKEN), 0),
            RetireKind::Jump { call, .. } => (JUMP | flag(call, CALL), 0),
            RetireKind::JumpReg { target, call, ret } => {
                (JUMP_REG | flag(call, CALL) | flag(ret, RET), target)
            }
            RetireKind::Csr => (CSR, 0),
            RetireKind::System => (SYSTEM, 0),
        };
        (kind | flag(is_remote, REMOTE), operand)
    }

    /// The record of a serviced syscall.
    #[inline]
    pub fn syscall(sys: u64) -> Record {
        Record::new(code::SYSCALL, 0, sys)
    }

    #[inline]
    fn code(self) -> u8 {
        (self.word >> 56) as u8
    }
}

/// Performance counters for one simulated node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Total cycles (user + kernel).
    pub cycles: u64,
    /// Instructions retired by user programs.
    pub instructions: u64,
    /// Cycles attributed to user execution.
    pub user_cycles: u64,
    /// Cycles attributed to the (modelled) kernel: syscalls and software
    /// paging.
    pub kernel_cycles: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Indirect jumps retired.
    pub indirect_jumps: u64,
    /// Indirect jumps whose target was predicted by the RAS.
    pub ras_hits: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Multiply operations.
    pub mul_ops: u64,
    /// Divide operations.
    pub div_ops: u64,
    /// Syscalls serviced.
    pub syscalls: u64,
    /// Cycles stalled on remote-memory faults.
    pub remote_stall_cycles: u64,
}

impl PerfCounters {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Conditional branch prediction accuracy in [0, 1].
    pub fn branch_accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// The timing pipeline attached to one hart.
pub struct Pipeline {
    core: crate::config::CoreConfig,
    dram_latency: u64,
    predictor: Predictor,
    ras: ReturnAddressStack,
    icache: Cache,
    dcache: Cache,
    l2: Option<Cache>,
    remote: Option<RemoteMemory>,
    counters: PerfCounters,
    /// The conditional branches of the batch being charged, `(pc, taken)`:
    /// the predictor resolves them in a second pass.
    branches: Vec<(u64, bool)>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("bpred", &self.predictor.name())
            .field("counters", &self.counters)
            .finish()
    }
}

/// What [`Pipeline::charge`] keeps in locals for a batch: the counters and
/// the last I- and D-line, which repeat for free.
struct Locals {
    counters: PerfCounters,
    i_line: Option<u64>,
    d_line: Option<u64>,
}

impl Pipeline {
    /// Builds the pipeline described by a hardware configuration.
    pub fn new(hw: &HardwareConfig) -> Pipeline {
        let remote = match &hw.remote {
            RemoteMemConfig::None => None,
            RemoteMemConfig::SoftwarePaging(t) => {
                Some(RemoteMemory::new(RemoteMode::SoftwarePaging, *t, 4096))
            }
            RemoteMemConfig::Pfa(t) => Some(RemoteMemory::new(RemoteMode::Pfa, *t, 4096)),
        };
        Pipeline {
            core: hw.core,
            dram_latency: hw.dram_latency,
            predictor: Predictor::new(&hw.bpred),
            ras: ReturnAddressStack::default(),
            icache: Cache::new(hw.icache),
            dcache: Cache::new(hw.dcache),
            l2: hw.l2.map(Cache::new),
            remote,
            counters: PerfCounters::default(),
            branches: Vec::new(),
        }
    }

    /// The counters so far.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// The branch predictor's name.
    pub fn bpred_name(&self) -> &'static str {
        self.predictor.name()
    }

    /// I-cache statistics.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// D-cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// Remote-memory statistics (when remote memory is configured).
    pub fn pfa_stats(&self) -> Option<PfaStats> {
        self.remote.as_ref().map(RemoteMemory::stats)
    }

    /// L2 statistics (when configured).
    pub fn l2_stats(&self) -> Option<CacheStats> {
        self.l2.as_ref().map(Cache::stats)
    }

    /// Charges a batch of records, in order: the pipeline's one charging
    /// body.
    ///
    /// The counters and the last I- and D-line live in locals for the
    /// batch and are written back at its end. The L1 access counts are
    /// added then too, since every instruction fetches once and every load
    /// and store accesses the D-cache once. Conditional branches are
    /// predicted in a second pass over the batch: predictor state follows
    /// the branch sequence alone and cycles add up, so every count is the
    /// one a record-by-record body gives.
    ///
    /// # Panics
    ///
    /// Panics if the batch ends between a wide-pc escape and its record.
    pub fn charge(&mut self, records: &[Record]) {
        let before = self.counters;
        let mut locals = Locals {
            counters: before,
            i_line: self.icache.last_line(),
            d_line: self.dcache.last_line(),
        };
        let mut records = records.iter();
        while let Some(&rec) = records.next() {
            let (pc, rec) = match rec.code() {
                code::WIDE_PC => (
                    rec.operand,
                    *records.next().expect("a record after the wide-pc escape"),
                ),
                _ => (rec.word & PC_MASK, rec),
            };
            self.charge_one(&mut locals, pc, rec);
        }
        let c = &mut locals.counters;
        let mispredicts = self.predictor.mispredicts(&self.branches);
        self.branches.clear();
        c.mispredicts += mispredicts;
        c.user_cycles += mispredicts * self.core.mispredict_penalty;
        c.cycles = before.cycles
            + (c.user_cycles - before.user_cycles)
            + (c.kernel_cycles - before.kernel_cycles);
        self.icache.set_last_line(locals.i_line);
        self.dcache.set_last_line(locals.d_line);
        self.icache
            .count_accesses(c.instructions - before.instructions);
        self.dcache
            .count_accesses(c.loads + c.stores - before.loads - before.stores);
        self.counters = *c;
    }

    /// Charges one record of the instruction at `pc` to `locals`; total
    /// cycles and branch outcomes are left to [`Pipeline::charge`].
    #[inline(always)]
    fn charge_one(&mut self, locals: &mut Locals, pc: u64, rec: Record) {
        use code::*;
        let c = &mut locals.counters;
        let code = rec.code();
        if code & KIND == SYSCALL {
            c.syscalls += 1;
            c.kernel_cycles += self.core.syscall_base_cost + syscall_cost(rec.operand);
            return;
        }
        let mut cycles = 1u64;
        c.instructions += 1;

        // Front end: instruction fetch (L1I -> L2 -> DRAM).
        let line = self.icache.line_of(pc);
        if locals.i_line != Some(line) {
            locals.i_line = Some(line);
            if self.icache.access_line(line) == Access::Miss {
                cycles += self.miss_beyond_l1(pc);
            }
        }

        match code & KIND {
            ALU | CSR | SYSTEM => {}
            MUL => {
                c.mul_ops += 1;
                cycles += self.core.mul_latency - 1;
            }
            DIV => {
                c.div_ops += 1;
                cycles += self.core.div_latency - 1;
            }
            LOAD | STORE => {
                let addr = rec.operand;
                if code & KIND == LOAD {
                    c.loads += 1;
                } else {
                    c.stores += 1;
                }
                if code & REMOTE != 0 {
                    if let Some(remote) = &mut self.remote {
                        let stall = remote.access(addr);
                        c.remote_stall_cycles += stall;
                        // Software paging burns the stall in the kernel;
                        // the PFA stalls the hart in user mode.
                        if remote.mode() == RemoteMode::SoftwarePaging {
                            c.kernel_cycles += stall;
                        } else {
                            cycles += stall;
                        }
                    }
                }
                let line = self.dcache.line_of(addr);
                let hit = locals.d_line == Some(line) || {
                    locals.d_line = Some(line);
                    self.dcache.access_line(line) == Access::Hit
                };
                if hit {
                    cycles += self.dcache.config().hit_latency - 1;
                } else {
                    cycles += self.miss_beyond_l1(addr);
                }
            }
            BRANCH => {
                // Predicted after the batch: predictor state follows the
                // branch sequence alone, and cycles add up the same.
                c.branches += 1;
                self.branches.push((pc, code & TAKEN != 0));
            }
            JUMP => {
                // Direct jumps resolve in the front end (BTB assumed);
                // calls push the RAS.
                if code & CALL != 0 {
                    self.ras.push(pc.wrapping_add(4));
                }
            }
            JUMP_REG => {
                c.indirect_jumps += 1;
                let mut predicted = false;
                if code & RET != 0 {
                    // `ret`: consult the RAS.
                    if self.ras.pop() == Some(rec.operand) {
                        predicted = true;
                        c.ras_hits += 1;
                    }
                } else if code & CALL != 0 {
                    // Indirect call: push the return address.
                    self.ras.push(pc.wrapping_add(4));
                }
                if !predicted {
                    cycles += self.core.jalr_penalty;
                }
            }
            other => unreachable!("record kind {other} after the escape"),
        }
        c.user_cycles += cycles;
    }

    /// Cost of an L1 miss: the L2 (when present) absorbs it at its hit
    /// latency, otherwise DRAM.
    fn miss_beyond_l1(&mut self, addr: u64) -> u64 {
        match &mut self.l2 {
            Some(l2) => match l2.access(addr) {
                Access::Hit => l2.config().hit_latency,
                Access::Miss => l2.config().hit_latency + self.dram_latency,
            },
            None => self.dram_latency,
        }
    }
}

/// The modelled kernel cost of syscall `sys`, beyond the core's base cost.
fn syscall_cost(sys: u64) -> u64 {
    use marshal_isa::abi::sys as s;
    match sys {
        s::WRITE => 300,
        s::READ => 250,
        s::OPEN => 1000,
        s::CLOSE => 200,
        s::EXIT => 100,
        s::ARGC | s::ARGV => 50,
        s::MMAP_REMOTE => 1500,
        s::TRACE => 100,
        _ => 400,
    }
}

/// The cycle-exact timing model of [`marshal_sim_functional::syscall::UserRunner::run`]:
/// one-record calls into [`Pipeline::charge`].
impl Timing for Pipeline {
    /// Modelled cycles so far, for `rdcycle`.
    #[inline]
    fn cycles(&mut self) -> Option<u64> {
        Some(self.counters.cycles)
    }

    /// Charges one retired instruction; `is_remote` marks memory accesses
    /// that fall in the guest's `mmap_remote` window.
    fn retire(&mut self, r: &Retired, is_remote: bool) {
        let mut records = [Record::default(); 2];
        let mut len = 0;
        Record::encode(r, is_remote, |rec| {
            records[len] = rec;
            len += 1;
        });
        self.charge(&records[..len]);
    }

    /// Charges the modelled kernel cost of a syscall.
    fn syscall(&mut self, sys: u64) {
        self.charge(&[Record::syscall(sys)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BpredConfig;
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;
    use marshal_isa::inst::Reg;
    use marshal_isa::interp::{Cpu, StepOutcome};
    use marshal_isa::mem::FlatMemory;

    /// Runs a program through both the functional core and the pipeline,
    /// returning the cycles charged for each retired instruction.
    fn retire_costs(src: &str, hw: &HardwareConfig) -> (Vec<u64>, Pipeline) {
        let exe = assemble(src, abi::USER_BASE).unwrap();
        let mut mem = FlatMemory::new(1 << 21);
        exe.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(exe.entry());
        cpu.write_reg(Reg::SP, 0x10_0000);
        let mut pipe = Pipeline::new(hw);
        let mut costs = Vec::new();
        loop {
            match cpu.step(&mut mem).unwrap() {
                StepOutcome::Retired(r) => {
                    let before = pipe.counters().cycles;
                    pipe.retire(&r, false);
                    costs.push(pipe.counters().cycles - before);
                }
                StepOutcome::Ecall => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        (costs, pipe)
    }

    /// [`retire_costs`], returning the cycle count and counters.
    fn time_program(src: &str, hw: &HardwareConfig) -> (u64, PerfCounters) {
        let (_, pipe) = retire_costs(src, hw);
        (pipe.counters().cycles, *pipe.counters())
    }

    const LOOP: &str = r#"
_start:
        li      t0, 1000
loop:   addi    t0, t0, -1
        bnez    t0, loop
        ecall
"#;

    #[test]
    fn timing_is_deterministic() {
        let hw = HardwareConfig::boom_tage();
        assert_eq!(time_program(LOOP, &hw).0, time_program(LOOP, &hw).0);
    }

    #[test]
    fn better_predictor_fewer_cycles() {
        // The loop branch is taken 999 times then falls through: an
        // always-taken predictor mispredicts once; never-taken mispredicts
        // 999 times.
        let base = HardwareConfig::rocket();
        let (cyc_taken, c_taken) =
            time_program(LOOP, &base.clone().with_bpred(BpredConfig::AlwaysTaken));
        let (cyc_never, c_never) =
            time_program(LOOP, &base.clone().with_bpred(BpredConfig::NeverTaken));
        assert_eq!(c_taken.mispredicts, 1);
        assert_eq!(c_never.mispredicts, 999);
        assert!(cyc_taken < cyc_never);
        assert_eq!(
            cyc_never - cyc_taken,
            998 * base.core.mispredict_penalty,
            "cycle gap must be exactly the mispredict penalty difference"
        );
    }

    #[test]
    fn ipc_below_one_with_stalls() {
        let hw = HardwareConfig::rocket().with_bpred(BpredConfig::NeverTaken);
        let (_, c) = time_program(LOOP, &hw);
        assert!(c.ipc() < 1.0);
        assert!(c.branch_accuracy() < 0.01);
    }

    #[test]
    fn dcache_miss_costs_dram_latency() {
        // Two loads to the same line: one miss, one hit. All instructions
        // share one I-cache line, so only the first pays an I-cache miss.
        let src = r#"
_start:
        li      t0, 0x4000
        ld      a0, 0(t0)
        ld      a1, 8(t0)
        ecall
"#;
        let hw = HardwareConfig::rocket();
        let (costs, pipe) = retire_costs(src, &hw);
        let c = pipe.counters();
        assert_eq!(c.loads, 2);
        // Rocket has no L2: an L1 miss goes straight to DRAM.
        assert_eq!(
            costs,
            [
                1 + hw.dram_latency,
                1 + hw.dram_latency,
                hw.dcache.hit_latency
            ],
            "li (I-cache miss), ld (D-cache miss), ld (D-cache hit)"
        );
        assert_eq!(c.cycles, costs.iter().sum::<u64>());
        assert_eq!(pipe.dcache_stats().accesses, 2);
        assert_eq!(pipe.dcache_stats().misses, 1);
        assert_eq!(pipe.icache_stats().misses, 1);
    }

    #[test]
    fn ras_predicts_call_ret() {
        let src = r#"
_start:
        li      t0, 50
loop:
        call    leaf
        addi    t0, t0, -1
        bnez    t0, loop
        ecall
leaf:
        ret
"#;
        let hw = HardwareConfig::rocket();
        let (_, c) = time_program(src, &hw);
        assert_eq!(c.indirect_jumps, 50);
        assert_eq!(c.ras_hits, 50, "every ret should hit the RAS");
    }

    #[test]
    fn mul_div_latencies_charged() {
        let alu = "_start:\n add a0, a1, a2\n ecall\n";
        let mul = "_start:\n mul a0, a1, a2\n ecall\n";
        let div = "_start:\n div a0, a1, a2\n ecall\n";
        let hw = HardwareConfig::rocket();
        let (c_alu, _) = time_program(alu, &hw);
        let (c_mul, cm) = time_program(mul, &hw);
        let (c_div, cd) = time_program(div, &hw);
        assert_eq!(c_mul - c_alu, hw.core.mul_latency - 1);
        assert_eq!(c_div - c_alu, hw.core.div_latency - 1);
        assert_eq!(cm.mul_ops, 1);
        assert_eq!(cd.div_ops, 1);
    }

    #[test]
    fn syscall_cost_is_kernel_time() {
        let mut pipe = Pipeline::new(&HardwareConfig::rocket());
        pipe.syscall(marshal_isa::abi::sys::WRITE);
        let cost = pipe.counters().cycles;
        assert!(cost > 0);
        assert_eq!(pipe.counters().kernel_cycles, cost);
        assert_eq!(pipe.counters().user_cycles, 0);
        assert_eq!(pipe.counters().syscalls, 1);
    }

    #[test]
    fn batches_hand_the_last_lines_to_the_next_batch() {
        // The charging loop keeps the last I- and D-line in locals; the
        // caches must hold them after each batch, so a batch that starts
        // on the same lines repeats them without a set lookup.
        let load = |pc, addr| Retired {
            pc,
            next_pc: pc + 4,
            kind: RetireKind::Load { addr },
        };
        let mut pipe = Pipeline::new(&HardwareConfig::rocket());
        for (pc, addr) in [(0x1000, 0x8000), (0x1040, 0x8040), (0x1044, 0x8048)] {
            pipe.retire(&load(pc, addr), false);
            assert_eq!(pipe.icache.last_line(), Some(pc >> 6));
            assert_eq!(pipe.dcache.last_line(), Some(addr >> 6));
        }
        assert_eq!(pipe.icache_stats().misses, 2);
        assert_eq!(pipe.dcache_stats().misses, 2);
    }

    #[test]
    fn remote_stall_accounting_differs_by_mode() {
        use crate::pfa::RemoteTimings;
        let t = RemoteTimings::default();
        let retired = Retired {
            pc: 0x1000,
            next_pc: 0x1004,
            kind: RetireKind::Load { addr: 0x1000_0000 },
        };
        let mut sw = Pipeline::new(
            &HardwareConfig::rocket().with_remote(RemoteMemConfig::SoftwarePaging(t)),
        );
        sw.retire(&retired, true);
        assert!(
            sw.counters().kernel_cycles > 0,
            "sw paging stalls in kernel"
        );

        let mut hw = Pipeline::new(&HardwareConfig::rocket().with_remote(RemoteMemConfig::Pfa(t)));
        hw.retire(&retired, true);
        assert_eq!(hw.counters().kernel_cycles, 0, "pfa stalls in hardware");
        assert!(hw.counters().remote_stall_cycles > 0);
        assert!(
            hw.counters().remote_stall_cycles < sw.counters().remote_stall_cycles,
            "pfa critical path shorter"
        );
    }
}
