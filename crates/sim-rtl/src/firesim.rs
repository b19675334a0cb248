//! The FireSim-like top-level driver.
//!
//! Runs FireMarshal workloads cycle-exactly: the same boot model and the
//! same guest binaries as the functional simulators, with a
//! [`Pipeline`] timing every retired instruction. Supports multi-node
//! cluster simulations for `jobs` workloads (the intspeed suite's ten
//! parallel nodes, the PFA client/server pair).
//!
//! Each node's pipeline runs on a thread of its own, fed batches of
//! retired records by the interpreter (the functional/timing split of
//! Chiou et al., "FPGA-Accelerated Simulation Technologies", MICRO 2007).
//! The interpreter depends on timing only through the clock that
//! `cycle`/`time` CSR reads observe, and it waits for the pipeline to
//! catch up before each such read, so the split changes host time only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::{Scope, ScopedJoinHandle};

use marshal_isa::interp::Retired;
use marshal_sim_functional::boot::run_job;
use marshal_sim_functional::checkpoint::BootSnapshot;
use marshal_sim_functional::machine::{
    LaunchMode, LoadedJob, SimConfig, SimError, SimKind, SimResult,
};
use marshal_sim_functional::syscall::Timing;

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

/// One event of the stream the interpreter reports, in program order.
enum Event {
    /// A retired instruction; the flag marks a remote-window access.
    Retire(Retired, bool),
    /// A serviced syscall (its number).
    Syscall(u64),
}

/// Events per batch handed to the timing thread.
const BATCH: usize = 4096;

/// Full batches queued before the interpreter waits for the timing thread.
const QUEUE: usize = 4;

/// The interpreter's end of a [`Pipeline`] running on its own thread.
///
/// Events go into a batch; full batches go to the timing thread over a
/// bounded queue, which replays them into the pipeline in order and hands
/// each one back emptied, with the cycle count after it, for reuse.
/// [`Timing::cycles`] sends the partial batch and waits until every batch
/// is back, so it answers exactly what a pipeline fed on this thread
/// would.
struct Feed {
    batch: Vec<Event>,
    spare: Vec<Vec<Event>>,
    to_model: SyncSender<Vec<Event>>,
    from_model: Receiver<(Vec<Event>, u64)>,
    in_flight: usize,
    cycles: u64,
}

impl Feed {
    /// Starts `pipeline` on a thread of `scope`. The thread returns the
    /// pipeline once the feed is closed and every event is replayed.
    fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        mut pipeline: Pipeline,
    ) -> (Feed, ScopedJoinHandle<'scope, Pipeline>) {
        let (to_model, batches) = mpsc::sync_channel::<Vec<Event>>(QUEUE);
        let (spent, from_model) = mpsc::channel();
        let cycles = pipeline.counters().cycles;
        let model = scope.spawn(move || {
            for mut batch in batches {
                for event in batch.drain(..) {
                    match event {
                        Event::Retire(r, is_remote) => pipeline.retire(&r, is_remote),
                        Event::Syscall(sys) => pipeline.syscall(sys),
                    }
                }
                // A closed feed takes no batches back; they are dropped.
                let _ = spent.send((batch, pipeline.counters().cycles));
            }
            pipeline
        });
        let feed = Feed {
            batch: Vec::with_capacity(BATCH),
            spare: Vec::new(),
            to_model,
            from_model,
            in_flight: 0,
            cycles,
        };
        (feed, model)
    }

    /// Hands the current batch to the timing thread.
    fn send(&mut self) {
        let next = match self.spare.pop() {
            Some(batch) => batch,
            None => match self.from_model.try_recv() {
                Ok((batch, _)) => {
                    self.in_flight -= 1;
                    batch
                }
                Err(_) => Vec::with_capacity(BATCH),
            },
        };
        let full = std::mem::replace(&mut self.batch, next);
        self.to_model.send(full).expect("timing thread stopped");
        self.in_flight += 1;
    }

    #[inline]
    fn push(&mut self, event: Event) {
        if self.batch.len() == BATCH {
            self.send();
        }
        self.batch.push(event);
    }

    /// Sends the last events; the timing thread ends once it has replayed
    /// them.
    fn close(mut self) {
        if !self.batch.is_empty() {
            self.send();
        }
    }
}

impl Timing for Feed {
    fn cycles(&mut self) -> Option<u64> {
        if !self.batch.is_empty() {
            self.send();
        }
        while self.in_flight > 0 {
            let (batch, cycles) = self.from_model.recv().expect("timing thread stopped");
            self.in_flight -= 1;
            self.cycles = cycles;
            self.spare.push(batch);
        }
        Some(self.cycles)
    }

    #[inline]
    fn retire(&mut self, r: &Retired, is_remote: bool) {
        self.push(Event::Retire(*r, is_remote));
    }

    #[inline]
    fn syscall(&mut self, sys: u64) {
        self.push(Event::Syscall(sys));
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

    fn report(&self, p: &Pipeline) -> PerfReport {
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
    /// The node's [`Pipeline`] runs on a thread of its own (see the module
    /// docs); the report is read from it once every event is replayed,
    /// after an error or a watchdog exit too.
    ///
    /// Restoring is cycle-exact because snapshots are only captured when
    /// the boot retired zero user instructions — the pipeline is cold at
    /// the seam either way (see [`marshal_sim_functional::boot::simulate_linux`]).
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
        let (outcome, pipeline) = std::thread::scope(|scope| {
            let (mut feed, model) = Feed::spawn(scope, Pipeline::new(&self.hw));
            let outcome = self.simulate(job, mode, resume, &mut feed);
            feed.close();
            let pipeline = model
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (outcome, pipeline)
        });
        let (result, captured) = outcome?;
        Ok((result, self.report(&pipeline), captured))
    }

    /// The run itself, with `timing` as the node's timing model.
    fn simulate<T: Timing>(
        &self,
        job: &LoadedJob,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
        timing: &mut T,
    ) -> Result<(SimResult, Option<BootSnapshot>), SimError> {
        let banner = format!("firesim: bare-metal node ({})", self.hw.name);
        run_job(&self.sim_config(), job, mode, resume, &banner, timing)
    }

    /// Runs a multi-node cluster: one simulated node per job. With
    /// `parallel`, nodes run on OS threads — the optimisation that cut the
    /// paper's SPEC2017 experiment "from about two weeks to roughly two
    /// days". At most one node per host core runs at a time (each also
    /// keeps its timing thread busy); workers take the next node from a
    /// shared counter, and results come back in node order.
    ///
    /// # Errors
    ///
    /// Returns the first failing node's error (by node order).
    pub fn launch_cluster(
        &self,
        nodes: &[(String, LoadedJob)],
        parallel: bool,
    ) -> Result<Vec<NodeResult>, SimError> {
        let run_node = |(name, job): &(String, LoadedJob)| -> Result<NodeResult, SimError> {
            let (result, report, _) = self.run(job, LaunchMode::Run, None)?;
            Ok(NodeResult {
                name: name.clone(),
                result,
                report,
            })
        };
        if !parallel {
            return nodes.iter().map(run_node).collect();
        }
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(nodes.len());
        // Hands out node indices only: `nodes` is shared read-only.
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, Result<NodeResult, SimError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(node) = nodes.get(i) else {
                                return done;
                            };
                            done.push((i, run_node(node)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("node thread panicked"))
                .collect()
        });
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, result)| result).collect()
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
    use marshal_sim_functional::{FunctionalSim, SimKind, WATCHDOG_EXIT_CODE};

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

    /// `sim.run(job)` must return exactly what the same run returns with
    /// its pipeline fed on the interpreter's thread, straight from the
    /// step loop (which the block-stepping oracle in sim-functional checks
    /// against a per-instruction loop).
    fn assert_decoupled_matches(sim: &FireSim, job: &LoadedJob) {
        let decoupled = sim.run(job, LaunchMode::Run, None).map(|(r, p, _)| (r, p));
        let mut pipeline = Pipeline::new(&sim.hw);
        let same_thread = sim
            .simulate(job, LaunchMode::Run, None, &mut pipeline)
            .map(|(r, _)| (r, sim.report(&pipeline)));
        assert_eq!(decoupled, same_thread);
    }

    #[test]
    fn decoupled_rdcycle_in_a_hot_loop_matches_same_thread() {
        // 40 rounds of a 1,500-iteration branchy loop, ~13,000 events
        // each: rdcycle is read three times a round, so runs of several
        // full batches pass between reads. The exit code folds every
        // read in.
        let src = r#"
        .data
msg:    .ascii "rounds done\n"
        .text
_start:
        li      s0, 40         # rounds
        li      s1, 0          # checksum of cycle deltas
        li      t3, 0xACE      # lfsr state
round:
        rdcycle s2
        li      t0, 1500
inner:
        andi    t4, t3, 1
        srli    t3, t3, 1
        beqz    t4, nofb
        li      t6, 0xB400
        xor     t3, t3, t6
nofb:
        andi    t5, t0, 1023
        bnez    t5, next
        rdcycle t5
        add     s1, s1, t5
next:
        addi    t0, t0, -1
        bnez    t0, inner
        rdcycle t1
        sub     t1, t1, s2
        xor     s1, s1, t1
        addi    s0, s0, -1
        bnez    s0, round
        li      a0, 1
        la      a1, msg
        li      a2, 12
        li      a7, 64
        ecall
        andi    a0, s1, 255
        li      a7, 93
        ecall
"#;
        for hw in [HardwareConfig::boom_gshare(), HardwareConfig::boom_tage()] {
            assert_decoupled_matches(&FireSim::new(hw), &bare_job(src));
        }
    }

    #[test]
    fn decoupled_remote_loads_match_same_thread() {
        // rdcycle around each remote load: the PFA measurement pattern.
        let src = r#"
_start:
        li      a0, 8
        li      a7, 2002       # MMAP_REMOTE
        ecall
        mv      s0, a0
        li      s1, 8
        li      s2, 0
loop:
        rdcycle t1
        ld      t0, 0(s0)
        rdcycle t2
        sub     t2, t2, t1
        add     s2, s2, t2
        li      t3, 4096
        add     s0, s0, t3
        addi    s1, s1, -1
        bnez    s1, loop
        srli    a0, s2, 8
        li      a7, 93
        ecall
"#;
        let t = crate::pfa::RemoteTimings::default();
        for remote in [
            crate::RemoteMemConfig::SoftwarePaging(t),
            crate::RemoteMemConfig::Pfa(t),
        ] {
            let sim = FireSim::new(HardwareConfig::rocket().with_remote(remote));
            assert_decoupled_matches(&sim, &bare_job(src));
        }
    }

    #[test]
    fn decoupled_watchdog_exit_matches_same_thread() {
        let job = bare_job("_start:\n rdcycle t0\n addi t1, t1, 1\n j _start\n");
        let sim = FireSim::new(HardwareConfig::rocket()).with_budget(20_001);
        let (result, report, _) = sim.run(&job, LaunchMode::Run, None).unwrap();
        assert!(result.timed_out);
        assert_eq!(report.counters.instructions, 20_002);
        assert_decoupled_matches(&sim, &job);
    }

    #[test]
    fn hung_bare_guest_reports_alike_on_qemu_and_rtl() {
        let job = bare_job("_start:\n addi t1, t1, 1\n j _start\n");
        let budget = 20_001;
        let (qemu, _) = FunctionalSim::new(SimKind::Qemu)
            .with_budget(budget)
            .run(&job, LaunchMode::Run, None)
            .unwrap();
        let sim = FireSim::new(HardwareConfig::rocket()).with_budget(budget);
        let (rtl, _, _) = sim.run(&job, LaunchMode::Run, None).unwrap();
        let outcome = |r: &SimResult| (r.instructions, r.exit_code, r.timed_out);
        assert_eq!(outcome(&rtl), outcome(&qemu));
        assert_eq!(outcome(&rtl), (budget, WATCHDOG_EXIT_CODE, true));
    }

    #[test]
    fn decoupled_trap_after_uart_output_matches_same_thread() {
        let src = r#"
_start:
        li      t0, 0x60000000 # UART_TX
        li      t1, 33
        sb      t1, 0(t0)
        sb      t1, 0(t0)
        rdcycle t2
        li      t0, 0x7f000000
        ld      a0, 0(t0)      # load fault
"#;
        let sim = FireSim::new(HardwareConfig::rocket());
        assert!(matches!(
            sim.run(&bare_job(src), LaunchMode::Run, None),
            Err(SimError::Trap(_))
        ));
        assert_decoupled_matches(&sim, &bare_job(src));
    }

    #[test]
    fn decoupled_linux_node_matches_same_thread() {
        let sim = FireSim::new(HardwareConfig::boom_tage());
        assert_decoupled_matches(&sim, &linux_job(&branchy_program()));
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
