//! The per-instruction timing model.
//!
//! Consumes the retired-instruction stream from the shared functional
//! interpreter and charges cycles for front-end (I-cache, branch
//! prediction), execute (mul/div latency), and memory (D-cache, DRAM,
//! remote-memory faults). The same instruction stream the functional
//! simulators execute is what gets timed — timing never changes
//! architectural behaviour.

use marshal_isa::inst::{Inst, Reg};
use marshal_isa::interp::{RetireKind, Retired};

use crate::bpred::{build_predictor, DirectionPredictor, ReturnAddressStack};
use crate::cache::{Access, Cache, CacheStats};
use crate::config::{HardwareConfig, RemoteMemConfig};
use crate::pfa::{PfaStats, RemoteMemory, RemoteMode};

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
    predictor: Box<dyn DirectionPredictor + Send>,
    ras: ReturnAddressStack,
    icache: Cache,
    dcache: Cache,
    l2: Option<Cache>,
    remote: Option<RemoteMemory>,
    counters: PerfCounters,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("bpred", &self.predictor.name())
            .field("counters", &self.counters)
            .finish()
    }
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
            predictor: build_predictor(&hw.bpred),
            ras: ReturnAddressStack::default(),
            icache: Cache::new(hw.icache),
            dcache: Cache::new(hw.dcache),
            l2: hw.l2.map(Cache::new),
            remote,
            counters: PerfCounters::default(),
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

    /// Whether an address belongs to the remote window *and* remote memory
    /// is modelled.
    pub fn models_remote(&self) -> bool {
        self.remote.is_some()
    }

    /// Charges one retired instruction; `is_remote` marks memory accesses
    /// that fall in the guest's `mmap_remote` window. Returns the cycles
    /// consumed.
    pub fn retire(&mut self, r: &Retired, is_remote: bool) -> u64 {
        let mut cycles = 1u64;
        let mut kernel_extra = 0u64;
        self.counters.instructions += 1;

        // Front end: instruction fetch (L1I -> L2 -> DRAM).
        if self.icache.access(r.pc) == Access::Miss {
            cycles += self.miss_beyond_l1(r.pc);
        }

        match r.kind {
            RetireKind::Alu | RetireKind::Csr | RetireKind::System => {}
            RetireKind::Mul => {
                self.counters.mul_ops += 1;
                cycles += self.core.mul_latency - 1;
            }
            RetireKind::Div => {
                self.counters.div_ops += 1;
                cycles += self.core.div_latency - 1;
            }
            RetireKind::Load { addr } | RetireKind::Store { addr } => {
                let is_load = matches!(r.kind, RetireKind::Load { .. });
                if is_load {
                    self.counters.loads += 1;
                } else {
                    self.counters.stores += 1;
                }
                if is_remote {
                    if let Some(remote) = &mut self.remote {
                        let stall = remote.access(addr);
                        self.counters.remote_stall_cycles += stall;
                        // Software paging burns the stall in the kernel;
                        // the PFA stalls the hart in user mode.
                        if remote.mode() == RemoteMode::SoftwarePaging {
                            kernel_extra += stall;
                        } else {
                            cycles += stall;
                        }
                    }
                }
                if self.dcache.access(addr) == Access::Miss {
                    cycles += self.miss_beyond_l1(addr);
                } else {
                    cycles += self.dcache.config().hit_latency - 1;
                }
            }
            RetireKind::Branch { taken, .. } => {
                self.counters.branches += 1;
                if self.predictor.resolve(r.pc, taken) != taken {
                    self.counters.mispredicts += 1;
                    cycles += self.core.mispredict_penalty;
                }
            }
            RetireKind::Jump { .. } => {
                // Direct jumps resolve in the front end (BTB assumed);
                // calls push the RAS.
                if let Inst::Jal { rd, .. } = r.inst {
                    if rd == Reg::RA {
                        self.ras.push(r.pc + 4);
                    }
                }
            }
            RetireKind::JumpReg { target } => {
                self.counters.indirect_jumps += 1;
                let mut predicted = false;
                if let Inst::Jalr { rd, rs1, .. } = r.inst {
                    if rd == Reg::ZERO && rs1 == Reg::RA {
                        // `ret`: consult the RAS.
                        if self.ras.pop() == Some(target) {
                            predicted = true;
                            self.counters.ras_hits += 1;
                        }
                    } else if rd == Reg::RA {
                        // Indirect call: push the return address.
                        self.ras.push(r.pc + 4);
                    }
                }
                if !predicted {
                    cycles += self.core.jalr_penalty;
                }
            }
        }

        self.counters.user_cycles += cycles;
        self.counters.kernel_cycles += kernel_extra;
        self.counters.cycles += cycles + kernel_extra;
        cycles + kernel_extra
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

    /// L2 statistics (when configured).
    pub fn l2_stats(&self) -> Option<crate::cache::CacheStats> {
        self.l2.as_ref().map(Cache::stats)
    }

    /// Charges the modelled kernel cost of a syscall.
    pub fn syscall(&mut self, sys: u64) -> u64 {
        use marshal_isa::abi::sys as s;
        self.counters.syscalls += 1;
        let extra = match sys {
            s::WRITE => 300,
            s::READ => 250,
            s::OPEN => 1000,
            s::CLOSE => 200,
            s::EXIT => 100,
            s::ARGC | s::ARGV => 50,
            s::MMAP_REMOTE => 1500,
            s::TRACE => 100,
            _ => 400,
        };
        let cost = self.core.syscall_base_cost + extra;
        self.counters.kernel_cycles += cost;
        self.counters.cycles += cost;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BpredConfig;
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;
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
                StepOutcome::Retired(r) => costs.push(pipe.retire(&r, false)),
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
        let cost = pipe.syscall(marshal_isa::abi::sys::WRITE);
        assert!(cost > 0);
        assert_eq!(pipe.counters().kernel_cycles, cost);
        assert_eq!(pipe.counters().user_cycles, 0);
        assert_eq!(pipe.counters().syscalls, 1);
    }

    #[test]
    fn remote_stall_accounting_differs_by_mode() {
        use crate::pfa::RemoteTimings;
        let t = RemoteTimings::default();
        let retired = Retired {
            pc: 0x1000,
            next_pc: 0x1004,
            inst: Inst::Load {
                width: marshal_isa::inst::MemWidth::D,
                rd: Reg::A0,
                rs1: Reg::T0,
                offset: 0,
            },
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
