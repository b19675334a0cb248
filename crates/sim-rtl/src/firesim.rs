//! The FireSim-like top-level driver.
//!
//! Runs FireMarshal workloads cycle-exactly: the same boot model and the
//! same guest binaries as the functional simulators, with a
//! [`Pipeline`] timing every retired instruction. Supports multi-node
//! cluster simulations for `jobs` workloads (the intspeed suite's ten
//! parallel nodes, the PFA client/server pair).

use marshal_isa::interp::RetireKind;
use marshal_isa::MexeFile;
use marshal_sim_functional::boot::{load_bare, simulate_linux, BareConsole};
use marshal_sim_functional::checkpoint::BootSnapshot;
use marshal_sim_functional::guest::{Executor, GuestOs};
use marshal_sim_functional::machine::{
    LaunchMode, LoadedJob, SimConfig, SimError, SimKind, SimResult,
};
use marshal_sim_functional::syscall::{OsServices, UserRunner, UserStep};

use crate::cache::CacheStats;
use crate::config::HardwareConfig;
use crate::pfa::PfaStats;
use crate::pipeline::{PerfCounters, Pipeline};

/// The performance report of one simulated node.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Hardware configuration name.
    pub config_name: String,
    /// Branch predictor name.
    pub bpred: &'static str,
    /// Performance counters.
    pub counters: PerfCounters,
    /// I-cache statistics.
    pub icache: CacheStats,
    /// D-cache statistics.
    pub dcache: CacheStats,
    /// Unified L2 statistics (when the configuration has an L2).
    pub l2: Option<CacheStats>,
    /// Remote-memory statistics (PFA case study).
    pub pfa: Option<PfaStats>,
    /// Clock frequency in MHz.
    pub freq_mhz: u64,
}

impl PerfReport {
    /// Total simulated seconds (RealTime in the paper's CSVs).
    pub fn real_time_secs(&self) -> f64 {
        self.counters.cycles as f64 / (self.freq_mhz as f64 * 1e6)
    }

    /// User-mode seconds (UserTime).
    pub fn user_time_secs(&self) -> f64 {
        self.counters.user_cycles as f64 / (self.freq_mhz as f64 * 1e6)
    }

    /// Kernel-mode seconds (KernelTime).
    pub fn kernel_time_secs(&self) -> f64 {
        self.counters.kernel_cycles as f64 / (self.freq_mhz as f64 * 1e6)
    }

    /// A human-readable multi-line summary.
    pub fn summary(&self) -> String {
        format!(
            "config={} bpred={} cycles={} insts={} ipc={:.3} branch-acc={:.4} icache-miss={:.4} dcache-miss={:.4}",
            self.config_name,
            self.bpred,
            self.counters.cycles,
            self.counters.instructions,
            self.counters.ipc(),
            self.counters.branch_accuracy(),
            self.icache.miss_rate(),
            self.dcache.miss_rate(),
        )
    }
}

/// The timing executor: steps user programs and charges the pipeline.
pub struct TimedExecutor {
    pipeline: Pipeline,
}

impl TimedExecutor {
    /// Builds the executor for a hardware configuration.
    pub fn new(hw: &HardwareConfig) -> TimedExecutor {
        TimedExecutor {
            pipeline: Pipeline::new(hw),
        }
    }

    /// The pipeline (for reports).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The timed step loop: steps `runner` and charges every retired
    /// instruction and serviced syscall to the pipeline until the program
    /// exits or retires more than `budget` instructions.
    ///
    /// Returns the exit code (`None` when the budget ran out) and the
    /// instructions retired.
    ///
    /// # Errors
    ///
    /// Any error from [`UserRunner::step`].
    fn run<S: OsServices + ?Sized>(
        &mut self,
        runner: &mut UserRunner,
        os: &mut S,
        budget: u64,
    ) -> Result<(Option<i64>, u64), SimError> {
        let start_insts = runner.cpu.instret;
        loop {
            let executed = runner.cpu.instret - start_insts;
            if executed > budget {
                return Ok((None, executed));
            }
            // Make rdcycle observe modelled time.
            runner.cpu.cycle = self.pipeline.counters().cycles;
            match runner.step(os)? {
                UserStep::Retired(r) => {
                    let is_remote = match r.kind {
                        RetireKind::Load { addr } | RetireKind::Store { addr } => {
                            runner.bus.is_remote(addr)
                        }
                        _ => false,
                    };
                    self.pipeline.retire(&r, is_remote);
                }
                UserStep::Syscall { sys } => {
                    self.pipeline.syscall(sys);
                }
                UserStep::Exited(code) => {
                    return Ok((Some(code), runner.cpu.instret - start_insts));
                }
            }
        }
    }
}

impl Executor for TimedExecutor {
    fn exec(
        &mut self,
        exe: &MexeFile,
        args: &[String],
        os: &mut GuestOs,
    ) -> Result<(i64, u64), SimError> {
        let budget = os.remaining_budget()?;
        let mut runner = UserRunner::new(exe, args)?;
        let start_cycles = self.pipeline.counters().cycles;
        let (exit, insts) = self.run(&mut runner, os, budget)?;
        let cycles = self.pipeline.counters().cycles - start_cycles;
        match exit {
            Some(code) => {
                os.account(insts, cycles);
                Ok((code, insts))
            }
            None => {
                // Account the consumed budget so `remaining_budget()`
                // reports exhaustion — the boot-flow watchdog relies on
                // this to recognise a hung guest (see FunctionalExecutor).
                os.account(budget, cycles);
                Err(SimError::Budget { limit: budget })
            }
        }
    }
}

/// One node's simulation outcome.
#[derive(Debug, Clone)]
pub struct NodeResult {
    /// The node (job) name.
    pub name: String,
    /// Simulation result (serial log, final image, exit code).
    pub result: SimResult,
    /// Performance report.
    pub report: PerfReport,
}

/// The cycle-exact simulator.
///
/// ```rust
/// use marshal_sim_rtl::{FireSim, HardwareConfig};
/// let sim = FireSim::new(HardwareConfig::boom_tage());
/// assert_eq!(sim.hardware().name, "boom-tage");
/// ```
#[derive(Debug, Clone)]
pub struct FireSim {
    hw: HardwareConfig,
    max_instructions: u64,
}

impl FireSim {
    /// Creates a simulator for a hardware configuration.
    pub fn new(hw: HardwareConfig) -> FireSim {
        FireSim {
            hw,
            max_instructions: 2_000_000_000,
        }
    }

    /// Overrides the instruction budget.
    pub fn with_budget(mut self, max_instructions: u64) -> FireSim {
        self.max_instructions = max_instructions;
        self
    }

    /// The hardware configuration.
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    /// The simulator configuration this instance boots with (derived from
    /// the hardware configuration and instruction budget).
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(SimKind::CycleExact);
        cfg.max_instructions = self.max_instructions;
        cfg.extra_args.push(format!("+config={}", self.hw.name));
        cfg
    }

    fn report(&self, exec: &TimedExecutor) -> PerfReport {
        let p = exec.pipeline();
        PerfReport {
            config_name: self.hw.name.clone(),
            bpred: p.bpred_name(),
            counters: *p.counters(),
            icache: p.icache_stats(),
            dcache: p.dcache_stats(),
            l2: p.l2_stats(),
            pfa: p.pfa_stats(),
            freq_mhz: self.hw.freq_mhz,
        }
    }

    /// Runs loaded artifacts cycle-exactly. Linux jobs boot the full
    /// system with boot checkpointing; bare jobs execute the binary
    /// directly, ignore `resume` and capture nothing.
    ///
    /// Restoring is cycle-exact because snapshots are only captured when
    /// the boot retired zero user instructions — the pipeline is cold at
    /// the seam either way (see [`simulate_linux`]).
    ///
    /// # Errors
    ///
    /// Same conditions as the functional simulators.
    pub fn run(
        &self,
        job: &LoadedJob,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
    ) -> Result<(SimResult, PerfReport, Option<BootSnapshot>), SimError> {
        match job {
            LoadedJob::Linux { boot, disk } => {
                let mut exec = TimedExecutor::new(&self.hw);
                let (result, captured) = simulate_linux(
                    &self.sim_config(),
                    boot,
                    disk.as_ref(),
                    mode,
                    &mut exec,
                    resume,
                )?;
                Ok((result, self.report(&exec), captured))
            }
            LoadedJob::Bare { bin } => {
                let (result, report) = self.run_bare(bin)?;
                Ok((result, report, None))
            }
        }
    }

    /// Runs a bare-metal binary cycle-exactly.
    fn run_bare(&self, bin: &[u8]) -> Result<(SimResult, PerfReport), SimError> {
        let mut runner = load_bare(bin)?;
        let mut os = BareConsole {
            serial: format!("firesim: bare-metal node ({})\n", self.hw.name),
        };
        let mut exec = TimedExecutor::new(&self.hw);
        // Watchdog: a hung guest is terminated, but the serial log and
        // performance report gathered so far are salvaged.
        let (exit, instructions) = exec.run(&mut runner, &mut os, self.max_instructions)?;
        let (exit_code, timed_out) = match exit {
            Some(code) => (code, false),
            None => (marshal_sim_functional::machine::WATCHDOG_EXIT_CODE, true),
        };
        let report = self.report(&exec);
        if timed_out {
            os.serial.push_str(&format!(
                "firesim: watchdog: instruction budget exhausted ({} instructions); \
                 terminating hung guest\n",
                self.max_instructions
            ));
        } else {
            os.serial.push_str(&format!(
                "firesim: exited with code {exit_code} after {} cycles\n",
                report.counters.cycles
            ));
        }
        Ok((
            SimResult {
                serial: os.serial,
                image: None,
                exit_code,
                instructions,
                timed_out,
            },
            report,
        ))
    }

    /// Runs a multi-node cluster: one simulated node per job. With
    /// `parallel`, nodes run on OS threads — the optimisation that cut the
    /// paper's SPEC2017 experiment "from about two weeks to roughly two
    /// days".
    ///
    /// # Errors
    ///
    /// Returns the first failing node's error (by node order).
    pub fn launch_cluster(
        &self,
        nodes: &[(String, LoadedJob)],
        parallel: bool,
    ) -> Result<Vec<NodeResult>, SimError> {
        let run_node = |name: &String, job: &LoadedJob| -> Result<NodeResult, SimError> {
            let (result, report, _) = self.run(job, LaunchMode::Run, None)?;
            Ok(NodeResult {
                name: name.clone(),
                result,
                report,
            })
        };
        if !parallel {
            return nodes
                .iter()
                .map(|(name, job)| run_node(name, job))
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = nodes
                .iter()
                .map(|(name, job)| scope.spawn(move || run_node(name, job)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("node thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_firmware::BootBinary;
    use marshal_firmware::{build_firmware, link_boot_binary, FirmwareBuild};
    use marshal_image::FsImage;
    use marshal_image::{BootPayload, InitSystem};
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;
    use marshal_linux::kconfig::KernelConfig;
    use marshal_linux::kernel::{build_kernel, KernelSource};
    use marshal_linux::InitramfsSpec;
    use marshal_sim_functional::{FunctionalSim, SimKind};

    fn boot_binary() -> BootBinary {
        let config = KernelConfig::riscv_defconfig();
        let src = KernelSource::default_source();
        let initramfs = InitramfsSpec::new().build(&config, &src).unwrap();
        let kernel = build_kernel(&src, &config, &initramfs).unwrap();
        let fw = build_firmware(&FirmwareBuild::default()).unwrap();
        link_boot_binary(&fw, &kernel).unwrap()
    }

    fn branchy_program() -> String {
        // A data-dependent branch pattern that separates predictors.
        r#"
        .data
result: .asciiz "done\n"
        .text
_start:
        li      t0, 0          # i
        li      t1, 20000      # iterations
        li      t2, 0          # acc
        li      t3, 0xACE      # lfsr state
loop:
        andi    t4, t3, 1      # pseudo-random bit
        beqz    t4, skip       # data-dependent branch
        addi    t2, t2, 1
skip:
        # 16-bit LFSR step: t3 = (t3 >> 1) ^ (lsb ? 0xB400 : 0)
        srli    t5, t3, 1
        beqz    t4, nofb
        li      t6, 0xB400
        xor     t5, t5, t6
nofb:
        mv      t3, t5
        addi    t0, t0, 1
        blt     t0, t1, loop
        li      a0, 1
        la      a1, result
        li      a2, 5
        li      a7, 64
        ecall
        li      a0, 0
        li      a7, 93
        ecall
"#
        .to_owned()
    }

    /// A cold `Run` of `job`, without its boot snapshot.
    fn run(sim: &FireSim, job: &LoadedJob) -> (SimResult, PerfReport) {
        let (result, report, _) = sim.run(job, LaunchMode::Run, None).unwrap();
        (result, report)
    }

    fn linux_job(prog_src: &str) -> LoadedJob {
        LoadedJob::Linux {
            boot: boot_binary(),
            disk: Some(disk_with(prog_src)),
        }
    }

    fn bare_job(src: &str) -> LoadedJob {
        LoadedJob::Bare {
            bin: assemble(src, abi::USER_BASE).unwrap().to_bytes(),
        }
    }

    fn disk_with(prog_src: &str) -> FsImage {
        let mut img = FsImage::new();
        img.mkdir_p("/etc/init.d").unwrap();
        let exe = assemble(prog_src, abi::USER_BASE).unwrap();
        img.write_exec("/bin/bench", &exe.to_bytes()).unwrap();
        InitSystem::Initd
            .install_payload(&mut img, &BootPayload::Command("/bin/bench".into()))
            .unwrap();
        img
    }

    #[test]
    fn cycle_exact_repeatability() {
        // §IV-C: "repeatable results down to an exact cycle-count".
        let sim = FireSim::new(HardwareConfig::boom_tage());
        let job = linux_job(&branchy_program());
        let (r1, p1) = run(&sim, &job);
        let (r2, p2) = run(&sim, &job);
        assert_eq!(p1.counters.cycles, p2.counters.cycles);
        assert_eq!(r1.serial, r2.serial);
    }

    #[test]
    fn same_binary_same_instruction_count_as_functional() {
        // The portability guarantee: identical artifacts retire identical
        // instruction streams on functional and cycle-exact simulation.
        let job = linux_job(&branchy_program());
        let (functional, _) = FunctionalSim::new(SimKind::Qemu)
            .run(&job, LaunchMode::Run, None)
            .unwrap();
        let sim = FireSim::new(HardwareConfig::rocket());
        let (timed, _) = run(&sim, &job);
        assert_eq!(functional.instructions, timed.instructions);
        assert_eq!(functional.exit_code, timed.exit_code);
        assert!(timed.serial.contains("done"));
    }

    #[test]
    fn tage_beats_gshare_on_branchy_code() {
        let job = linux_job(&branchy_program());
        let (_, gshare) = run(&FireSim::new(HardwareConfig::boom_gshare()), &job);
        let (_, tage) = run(&FireSim::new(HardwareConfig::boom_tage()), &job);
        assert_eq!(
            gshare.counters.instructions, tage.counters.instructions,
            "identical instruction streams"
        );
        assert!(
            tage.counters.mispredicts < gshare.counters.mispredicts,
            "tage {} vs gshare {} mispredicts",
            tage.counters.mispredicts,
            gshare.counters.mispredicts
        );
        assert!(tage.counters.cycles < gshare.counters.cycles);
    }

    #[test]
    fn bare_metal_timed() {
        let job = bare_job(
            "_start:\n li t0, 100\nl: addi t0, t0, -1\n bnez t0, l\n li a0, 0\n li a7, 93\n ecall\n",
        );
        let (result, report) = run(&FireSim::new(HardwareConfig::rocket()), &job);
        assert_eq!(result.exit_code, 0);
        assert!(report.counters.cycles >= report.counters.instructions);
        assert!(result.serial.contains("cycles"));
    }

    #[test]
    fn bare_metal_remote_accesses_are_timed() {
        // Bare-metal nodes run the same timed step loop as Linux guests,
        // so touching a mapped remote window pays remote-memory faults.
        let src = r#"
_start:
        li      a0, 2
        li      a7, 2002       # MMAP_REMOTE
        ecall
        ld      t0, 0(a0)
        li      t1, 4096
        add     a0, a0, t1
        ld      t0, 0(a0)
        li      a0, 0
        li      a7, 93
        ecall
"#;
        let hw = HardwareConfig::rocket().with_remote(crate::RemoteMemConfig::Pfa(
            crate::pfa::RemoteTimings::default(),
        ));
        let (result, report) = run(&FireSim::new(hw), &bare_job(src));
        assert_eq!(result.exit_code, 0);
        assert_eq!(report.pfa.unwrap().faults, 2);
    }

    #[test]
    fn cluster_parallel_matches_serial() {
        let job = bare_job(
            "_start:\n li t0, 5000\nl: addi t0, t0, -1\n bnez t0, l\n li a0, 0\n li a7, 93\n ecall\n",
        );
        let nodes: Vec<(String, LoadedJob)> =
            (0..4).map(|i| (format!("job{i}"), job.clone())).collect();
        let sim = FireSim::new(HardwareConfig::rocket());
        let serial = sim.launch_cluster(&nodes, false).unwrap();
        let parallel = sim.launch_cluster(&nodes, true).unwrap();
        assert_eq!(serial.len(), 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.report.counters.cycles, p.report.counters.cycles);
        }
    }

    #[test]
    fn rdcycle_sees_modelled_time() {
        // A program that reads rdcycle twice around a delay loop and exits
        // with the delta scaled down; the delta must exceed the instruction
        // count (stalls included) on a never-taken predictor.
        let src = r#"
_start:
        rdcycle t0
        li      t1, 1000
l:      addi    t1, t1, -1
        bnez    t1, l
        rdcycle t2
        sub     a0, t2, t0
        srli    a0, a0, 6      # scale into exit-code range
        li      a7, 93
        ecall
"#;
        let hw = HardwareConfig::rocket().with_bpred(crate::config::BpredConfig::NeverTaken);
        let (result, _) = run(&FireSim::new(hw), &bare_job(src));
        // 2000 loop instructions + ~999 mispredicts * 3 = ~5000 cycles; /64 ≈ 78.
        assert!(
            result.exit_code > 2000 / 64,
            "cycle delta should exceed instruction count: {}",
            result.exit_code
        );
    }

    #[test]
    fn report_time_split() {
        let job = linux_job(&branchy_program());
        let sim = FireSim::new(HardwareConfig::rocket());
        let (_, report) = run(&sim, &job);
        assert!(
            report.counters.kernel_cycles > 0,
            "syscalls cost kernel time"
        );
        assert!(report.counters.user_cycles > report.counters.kernel_cycles);
        assert!(report.real_time_secs() > 0.0);
        assert!(
            (report.real_time_secs() - report.user_time_secs() - report.kernel_time_secs()).abs()
                < 1e-12
        );
        assert!(report.summary().contains("bpred="));
    }
}
