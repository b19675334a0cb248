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
//!
//! A record is the 16-byte [`Record`]: the pc and a code byte in one
//! word, the one operand the model reads in the other, and a documented
//! escape for a pc that does not fit. Each batch is charged by
//! [`Pipeline::charge`], the pipeline's one charging body.

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
use crate::pipeline::{PerfCounters, Pipeline, Record};

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

/// Records per batch handed to the timing thread, at most. A timing
/// thread that keeps up with the interpreter sleeps between batches, and
/// each wake-up costs the interpreter microseconds on a virtualised host,
/// so a batch is large enough to make them rare.
const BATCH: usize = 16384;

/// Full batches queued before the interpreter waits for the timing thread.
const QUEUE: usize = 4;

/// The interpreter's end of a node's [`Pipeline`].
///
/// Each retired instruction and syscall goes into a batch as its
/// [`Record`]s, in program order. Until the first batch fills, the
/// pipeline stays on the interpreter's thread, and [`Timing::cycles`] and
/// [`Feed::finish`] charge the batch to it there, so a short run starts no
/// thread. The first full batch starts the timing thread (see [`Thread`]),
/// and the pipeline lives there from then on.
struct Feed<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    batch: Vec<Record>,
    /// The pipeline while it runs on this thread.
    local: Option<Pipeline>,
    /// The timing thread, once the first batch has filled.
    thread: Option<Thread<'scope>>,
}

impl<'scope, 'env> Feed<'scope, 'env> {
    fn new(scope: &'scope Scope<'scope, 'env>, pipeline: Pipeline) -> Feed<'scope, 'env> {
        Feed {
            scope,
            batch: Vec::with_capacity(BATCH),
            local: Some(pipeline),
            thread: None,
        }
    }

    /// Whether the batch has room for the two records of a wide-pc
    /// escape, which a batch never splits.
    #[inline]
    fn has_room(&self) -> bool {
        self.batch.len() < BATCH - 1
    }

    /// [`Timing::retire`] off the fast path: a jump, a full batch or a pc
    /// that takes the escape. It takes the instruction by value, so the
    /// step loop copies it out only on this path.
    #[inline(never)]
    fn retire_slow(&mut self, r: Retired, is_remote: bool) {
        if !self.has_room() {
            self.send();
        }
        Record::encode(&r, is_remote, |record| self.batch.push(record));
    }

    /// Hands the full batch to the timing thread, starting the thread on
    /// the first call. Out of line, so [`Timing::retire`] stays small
    /// enough to inline into the step loop.
    #[inline(never)]
    fn send(&mut self) {
        let thread = match &mut self.thread {
            Some(thread) => thread,
            None => {
                let pipeline = self.local.take().expect("a pipeline on one side");
                self.thread.insert(Thread::spawn(self.scope, pipeline))
            }
        };
        thread.send(&mut self.batch);
    }

    /// The pipeline, once every record is charged to it.
    fn finish(self) -> Pipeline {
        match (self.local, self.thread) {
            (Some(mut pipeline), _) => {
                pipeline.charge(&self.batch);
                pipeline
            }
            (None, Some(thread)) => thread.join(self.batch),
            (None, None) => unreachable!("the pipeline is on one side"),
        }
    }
}

impl Timing for Feed<'_, '_> {
    fn cycles(&mut self) -> Option<u64> {
        match (&mut self.local, &mut self.thread) {
            (Some(pipeline), _) => {
                pipeline.charge(&self.batch);
                self.batch.clear();
                pipeline.cycles()
            }
            (None, Some(thread)) => Some(thread.sync(&mut self.batch)),
            (None, None) => unreachable!("the pipeline is on one side"),
        }
    }

    #[inline]
    fn retire(&mut self, r: &Retired, is_remote: bool) {
        match Record::straight(r, is_remote) {
            Some(record) if self.has_room() => self.batch.push(record),
            _ => self.retire_slow(*r, is_remote),
        }
    }

    fn syscall(&mut self, sys: u64) {
        if !self.has_room() {
            self.send();
        }
        self.batch.push(Record::syscall(sys));
    }
}

/// A [`Pipeline`] running on a thread of its own.
///
/// Full batches of [`Record`]s go to the thread over a bounded queue; it
/// charges them to the pipeline in order and hands each one back emptied,
/// with the cycle count after it, for reuse. [`Thread::sync`] sends the
/// partial batch and waits until every batch is back, so it answers
/// exactly what a pipeline fed on this thread would. Dropping a `Thread`
/// closes the queue, so the timing thread ends even when the interpreter
/// unwinds from a panic.
struct Thread<'scope> {
    spare: Vec<Vec<Record>>,
    to_model: SyncSender<Vec<Record>>,
    from_model: Receiver<(Vec<Record>, u64)>,
    in_flight: usize,
    cycles: u64,
    model: ScopedJoinHandle<'scope, Pipeline>,
}

impl<'scope> Thread<'scope> {
    /// Starts `pipeline` on a thread of `scope`. The thread returns the
    /// pipeline once the queue is closed and every record is charged.
    fn spawn(scope: &'scope Scope<'scope, '_>, mut pipeline: Pipeline) -> Thread<'scope> {
        let (to_model, batches) = mpsc::sync_channel::<Vec<Record>>(QUEUE);
        let (spent, from_model) = mpsc::channel();
        let cycles = pipeline.counters().cycles;
        let model = scope.spawn(move || {
            for mut batch in batches {
                pipeline.charge(&batch);
                batch.clear();
                // A closed queue takes no batches back; they are dropped.
                let _ = spent.send((batch, pipeline.counters().cycles));
            }
            pipeline
        });
        Thread {
            spare: Vec::new(),
            to_model,
            from_model,
            in_flight: 0,
            cycles,
            model,
        }
    }

    /// Hands `batch` to the thread, leaving an empty one in its place.
    fn send(&mut self, batch: &mut Vec<Record>) {
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
        let full = std::mem::replace(batch, next);
        self.to_model.send(full).expect("timing thread stopped");
        self.in_flight += 1;
    }

    /// Sends the partial `batch` and waits for every batch to be
    /// charged; returns the cycle count after the last one.
    fn sync(&mut self, batch: &mut Vec<Record>) -> u64 {
        if !batch.is_empty() {
            self.send(batch);
        }
        while self.in_flight > 0 {
            let (spent, cycles) = self.from_model.recv().expect("timing thread stopped");
            self.in_flight -= 1;
            self.cycles = cycles;
            self.spare.push(spent);
        }
        self.cycles
    }

    /// Sends the last records, closes the queue and takes the pipeline
    /// back once the thread has charged them.
    fn join(mut self, mut batch: Vec<Record>) -> Pipeline {
        if !batch.is_empty() {
            self.send(&mut batch);
        }
        drop(self.to_model);
        self.model
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
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
    /// The node's [`Pipeline`] runs on a thread of its own once the first
    /// batch of records fills (see the module docs); the report is read
    /// from it once every record is charged, after an error or a watchdog
    /// exit too.
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
            let mut feed = Feed::new(scope, Pipeline::new(&self.hw));
            let outcome = self.simulate(job, mode, resume, &mut feed);
            (outcome, feed.finish())
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
    /// days". Nodes go through [`marshal_depgraph::run_ordered`]: at most
    /// one node per host core runs at a time (each also keeps its timing
    /// thread busy), and results come back in node order. Without
    /// `parallel` the nodes run one after another on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns the first failing node's error (by node order).
    pub fn launch_cluster(
        &self,
        nodes: &[(String, LoadedJob)],
        parallel: bool,
    ) -> Result<Vec<NodeResult>, SimError> {
        let width = if parallel { None } else { Some(1) };
        marshal_depgraph::run_ordered(nodes.len(), width, |i| {
            let (name, job) = &nodes[i];
            let (result, report, _) = self.run(job, LaunchMode::Run, None)?;
            Ok(NodeResult {
                name: name.clone(),
                result,
                report,
            })
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

    /// Whether a run of `job` starts the timing thread.
    fn spawns_thread(sim: &FireSim, job: &LoadedJob) -> bool {
        std::thread::scope(|scope| {
            let mut feed = Feed::new(scope, Pipeline::new(&sim.hw));
            sim.simulate(job, LaunchMode::Run, None, &mut feed).unwrap();
            let spawned = feed.thread.is_some();
            feed.finish();
            spawned
        })
    }

    #[test]
    fn timing_thread_starts_with_the_first_full_batch() {
        // (program, whether it fills a batch): a run that ends before the
        // first batch fills; a rdcycle before the thread starts, whose
        // value is the exit code; a rdcycle after it, likewise.
        // The filling loops retire two instructions per iteration, so
        // `BATCH` iterations fill the first batch.
        let exit = "li a7, 93\n ecall\n";
        let cases = [
            (format!("_start:\n li t0, 100\nl: addi t0, t0, -1\n bnez t0, l\n li a0, 0\n {exit}"), false),
            (format!("_start:\n addi t1, t1, 1\n rdcycle a0\n li t0, {BATCH}\nl: addi t0, t0, -1\n bnez t0, l\n {exit}"), true),
            (format!("_start:\n li t0, {BATCH}\nl: addi t0, t0, -1\n bnez t0, l\n rdcycle a0\n srli a0, a0, 8\n {exit}"), true),
        ];
        for (src, fills) in &cases {
            let job = bare_job(src);
            for hw in [HardwareConfig::rocket(), HardwareConfig::boom_tage()] {
                let sim = FireSim::new(hw);
                assert_eq!(spawns_thread(&sim, &job), *fills, "{src}");
                let (result, _) = run(&sim, &job);
                assert_eq!(
                    result.exit_code > 0,
                    *fills,
                    "{src}: the rdcycle value exits"
                );
                assert_decoupled_matches(&sim, &job);
            }
        }
    }

    #[test]
    fn decoupled_rdcycle_in_a_hot_loop_matches_same_thread() {
        // 10 rounds of a 10,000-iteration branchy loop, ~80,000 events
        // each: rdcycle is read four times a round (at its start, when
        // the counter reaches 8,192 and 4,096, and at its end), so up to
        // two full batches pass between reads. The exit code folds every
        // read in.
        let src = r#"
        .data
msg:    .ascii "rounds done\n"
        .text
_start:
        li      s0, 10         # rounds
        li      s1, 0          # checksum of cycle deltas
        li      t3, 0xACE      # lfsr state
round:
        rdcycle s2
        li      t0, 10000
inner:
        andi    t4, t3, 1
        srli    t3, t3, 1
        beqz    t4, nofb
        li      t6, 0xB400
        xor     t3, t3, t6
nofb:
        slli    t5, t0, 52     # the low 12 bits
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
            let sim = FireSim::new(hw);
            assert!(spawns_thread(&sim, &bare_job(src)));
            assert_decoupled_matches(&sim, &bare_job(src));
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

    #[test]
    fn a_panic_after_the_timing_thread_starts_unwinds() {
        // The interpreter side panics once the timing thread holds the
        // pipeline: dropping the feed must end that thread, so the scope
        // joins it and the panic comes out rather than a hang.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let hw = HardwareConfig::boom_tage();
            let unwound = std::panic::catch_unwind(|| {
                std::thread::scope(|scope| {
                    let mut feed = Feed::new(scope, Pipeline::new(&hw));
                    let r = Retired {
                        pc: 0x1000,
                        next_pc: 0x1004,
                        kind: marshal_isa::interp::RetireKind::Alu,
                    };
                    for _ in 0..3 * BATCH {
                        feed.retire(&r, false);
                    }
                    assert!(feed.thread.is_some(), "the timing thread started");
                    panic!("interpreter fault");
                })
            });
            let _ = done.send(unwound.is_err());
        });
        let unwound = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the run hangs after a panic");
        assert!(unwound, "the panic propagates");
    }
}
