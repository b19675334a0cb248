//! The three benchmark flows.
//!
//! Each flow is set up once (materialise the bundled workloads, build what
//! the flow needs, run one warm-up iteration) and then iterated. An
//! iteration drives the public `marshal-core` / `marshal-sim-rtl` API the
//! way a user's loop would, times every call it makes into the program,
//! and checks the program's outputs.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

use marshal_core::cosim::{compare_behaviour, cosim_workload, observe_backend, BackendBehaviour};
use marshal_core::install::{install_workload, run_installed, run_job_cycle_exact};
use marshal_core::launch::{launch_workload, load_artifacts};
use marshal_core::output::{
    collect_outputs, load_hook_script, run_post_hook, write_stats, SERIAL_LOG,
};
use marshal_core::test::{compare_run, test_workload};
use marshal_core::{
    BuildOptions, BuildProducts, Builder, CheckpointStore, CosimOptions, JobKind, LaunchOptions,
    TestOutcome,
};
use marshal_sim_rtl::pfa::RemoteTimings;
use marshal_sim_rtl::{HardwareConfig, NodeResult, RemoteMemConfig};
use marshal_trace::Recorder;

/// Every bundled workload: the devloop's no-op and cold builds cover all six.
const SIX: [&str; 6] = [
    "hello.json",
    "intspeed.json",
    "latency-microbenchmark.json",
    "coremark.json",
    "fedora-base.json",
    "onnx-infer.json",
];

/// The workloads with reference outputs, tested and co-simulated by the
/// functional fleet.
const FOUR: [&str; 4] = [
    "hello.json",
    "coremark.json",
    "onnx-infer.json",
    "latency-microbenchmark.json",
];

/// Flow operations attempted and failed over a run: every call into the
/// program and every correctness check counts once.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// What one iteration measured.
#[derive(Debug, Default)]
pub struct Sample {
    /// Host wall time of the flow's calls into the program, in ms. The
    /// benchmark's own bookkeeping (checks, scratch set-up) is excluded.
    pub wall_ms: f64,
    /// Step and per-layer values by metric name. Names starting with `_`
    /// are intermediate values that are never reported.
    pub values: BTreeMap<String, f64>,
}

/// One iteration in progress.
pub struct Iter<'a> {
    /// The journal recorder: disabled for untraced iterations.
    pub rec: Recorder,
    pub tally: &'a mut Tally,
    pub sample: Sample,
}

impl Iter<'_> {
    /// Runs one flow operation: times it, adds it to the iteration's wall
    /// time and tallies it. When traced, the call is a `bench.call` span.
    fn call<T, E: Display>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, f64), String> {
        let (out, ms) = self.probe(name, f)?;
        self.sample.wall_ms += ms;
        Ok((out, ms))
    }

    /// [`Iter::call`] for a per-layer probe: timed and tallied, but outside
    /// the iteration's wall time.
    fn probe<T, E: Display>(
        &mut self,
        name: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, f64), String> {
        let span = self.rec.span("bench.call", &[("call", name)]);
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(span);
        self.tally.attempted += 1;
        out.map(|v| (v, ms)).map_err(|e| {
            self.tally.failed += 1;
            format!("{name}: {e}")
        })
    }

    fn traced(&self) -> bool {
        self.rec.enabled()
    }

    fn add(&mut self, name: &str, v: f64) {
        *self.sample.values.entry(name.to_owned()).or_default() += v;
    }

    fn set(&mut self, name: &str, v: f64) {
        self.sample.values.insert(name.to_owned(), v);
    }
}

/// A benchmark flow.
pub trait Flow {
    /// Runs one iteration.
    fn iterate(&mut self, it: &mut Iter) -> Result<(), String>;
    /// The builder's working directory (run journals are written there).
    fn workdir(&self) -> &Path;
}

/// Sets up `flow` under `root`: materialise, `Builder::new`, the cold
/// builds the flow needs, and one untraced warm-up iteration.
pub fn setup(
    flow: &str,
    root: &Path,
    seed: u64,
    tally: &mut Tally,
) -> Result<Box<dyn Flow>, String> {
    let mut flow: Box<dyn Flow> = match flow {
        "fig6" => Box::new(Fig6::new(root)?),
        "devloop" => Box::new(DevLoop::new(root, seed)?),
        "funcfleet" => Box::new(FuncFleet::new(root)?),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut warm = Iter {
        rec: Recorder::disabled(),
        tally,
        sample: Sample::default(),
    };
    flow.iterate(&mut warm)?;
    Ok(flow)
}

/// Build options for every build: at most `nproc` task threads.
fn build_options() -> BuildOptions {
    BuildOptions {
        jobs: Some(crate::nproc()),
        ..BuildOptions::default()
    }
}

/// Materialises the bundled workloads under `root` and opens a builder on
/// `root/work`.
fn open_builder(root: &Path) -> Result<Builder, String> {
    let setup = marshal_workloads::setup(root).map_err(|e| format!("materialise: {e}"))?;
    Builder::new(setup.board, setup.search, root.join("work")).map_err(|e| e.to_string())
}

fn build(builder: &mut Builder, name: &str) -> Result<BuildProducts, String> {
    builder
        .build(name, &build_options())
        .map_err(|e| format!("build {name}: {e}"))
}

/// Fig. 6 and Fig. 5 regenerated from already-built artifacts.
struct Fig6 {
    builder: Builder,
    intspeed: BuildProducts,
    latency: BuildProducts,
    /// The exact simulated counts of the first iteration, which every
    /// later iteration must repeat.
    expected: Option<Vec<(String, u64)>>,
}

impl Fig6 {
    fn new(root: &Path) -> Result<Fig6, String> {
        let mut builder = open_builder(root)?;
        let intspeed = build(&mut builder, "intspeed.json")?;
        let latency = build(&mut builder, "latency-microbenchmark.json")?;
        Ok(Fig6 {
            builder,
            intspeed,
            latency,
            expected: None,
        })
    }
}

impl Flow for Fig6 {
    fn workdir(&self) -> &Path {
        self.builder.workdir()
    }

    fn iterate(&mut self, it: &mut Iter) -> Result<(), String> {
        let ((manifest, _), ms) = it.call("install_workload", || {
            install_workload(&self.builder, &self.intspeed)
        })?;
        it.set("core.install_ms", ms);
        let mut counts: Vec<(String, u64)> = Vec::new();
        let mut node_cycles: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let (mut rtl_ms, mut rtl_insts) = (0.0, 0u64);
        for (tag, hw) in [
            ("gshare", HardwareConfig::boom_gshare()),
            ("tage", HardwareConfig::boom_tage()),
        ] {
            let config = hw.name.clone();
            // Serial cluster: one thread per node on a 2-core host would
            // measure the OS scheduler; per-node cycles are the same.
            let (nodes, ms) = it.call("run_installed", || run_installed(&manifest, hw, false))?;
            let sum = |f: fn(&NodeResult) -> u64| nodes.iter().map(f).sum::<u64>();
            let insts = sum(|n| n.report.counters.instructions);
            rtl_ms += ms;
            rtl_insts += insts;
            it.set(
                &format!("sim_rtl.node_ms.{tag}"),
                ms / nodes.len().max(1) as f64,
            );
            it.set(
                &format!("sim_rtl.host_ns_per_inst.{tag}"),
                ms * 1e6 / insts.max(1) as f64,
            );
            let exact = [
                ("cycles", sum(|n| n.report.counters.cycles)),
                ("mispredicts", sum(|n| n.report.counters.mispredicts)),
                ("icache_misses", sum(|n| n.report.icache.misses)),
                ("dcache_misses", sum(|n| n.report.dcache.misses)),
                ("l2_misses", sum(|n| n.report.l2.map_or(0, |l2| l2.misses))),
            ];
            for (what, v) in exact {
                it.set(&format!("sim_rtl.{what}.{tag}"), v as f64);
                counts.push((format!("{what}.{tag}"), v));
            }
            it.set("sim_rtl.instructions", insts as f64);
            counts.push((format!("instructions.{tag}"), insts));
            for n in &nodes {
                node_cycles
                    .entry(n.name.clone())
                    .or_default()
                    .push(n.report.counters.cycles);
                counts.push((format!("{}.{tag}", n.name), n.report.counters.cycles));
            }

            // Hand the outputs back the way FireSim does, then run the
            // workload's post-run hook to produce results.csv.
            let run_root = self.builder.run_dir(&self.intspeed.workload).join(&config);
            let outputs = &self.intspeed.top_spec.outputs;
            for n in &nodes {
                let job_dir = run_root.join(&n.name);
                let c = &n.report.counters;
                let ((), ms) = it.call("collect_outputs", || {
                    collect_outputs(&job_dir, &n.result.serial, n.result.image.as_ref(), outputs)?;
                    write_stats(
                        &job_dir,
                        c.cycles,
                        c.user_cycles,
                        c.kernel_cycles,
                        c.instructions,
                        n.report.freq_mhz,
                    )
                })?;
                it.add("core.output.collect_ms", ms);
            }
            let job_dirs: Vec<String> = nodes.iter().map(|n| n.name.clone()).collect();
            let hook = self
                .intspeed
                .top_spec
                .post_run_hook
                .as_deref()
                .unwrap_or("");
            let source_dir = self.intspeed.source_dir.as_deref();
            let (_, ms) = it.call("run_post_hook", || {
                let (script, _) = load_hook_script(hook, source_dir)?;
                run_post_hook(&script, &run_root, &job_dirs)
            })?;
            it.add("script.post_hook_ms", ms);
            let csv = std::fs::read_to_string(run_root.join("results.csv")).unwrap_or_default();
            let rows = csv.lines().skip(1).filter(|l| !l.is_empty()).count();
            it.tally.check(rows == 10, || {
                format!("{config}: results.csv has {rows} rows, not 10")
            });
        }
        for (node, c) in &node_cycles {
            it.tally.check(c.len() == 2 && c[1] <= c[0], || {
                format!("{node}: TAGE cycles exceed Gshare cycles ({c:?})")
            });
        }

        // Fig. 5: the latency microbenchmark's client on software paging,
        // then on the page fault accelerator.
        let timings = RemoteTimings::default();
        let mut latency = Vec::new();
        for (tag, remote) in [
            ("swpaging", RemoteMemConfig::SoftwarePaging(timings)),
            ("pfa", RemoteMemConfig::Pfa(timings)),
        ] {
            let hw = HardwareConfig::rocket().with_remote(remote);
            let job = &self.latency.jobs[0];
            let (node, ms) = it.call("run_job_cycle_exact", || run_job_cycle_exact(job, hw))?;
            rtl_ms += ms;
            rtl_insts += node.report.counters.instructions;
            let pfa = node.report.pfa.unwrap_or_default();
            it.set(
                &format!("sim_rtl.pfa.cycles.{tag}"),
                node.report.counters.cycles as f64,
            );
            it.set(
                &format!("sim_rtl.pfa.mean_latency.{tag}"),
                pfa.mean_latency() as f64,
            );
            it.set("sim_rtl.pfa.faults", pfa.faults as f64);
            counts.push((format!("pfa.cycles.{tag}"), node.report.counters.cycles));
            counts.push((format!("pfa.faults.{tag}"), pfa.faults));
            latency.push(pfa.mean_latency());
        }
        it.tally.check(latency[1] < latency[0], || {
            format!(
                "PFA mean fault latency {} is not below software paging {}",
                latency[1], latency[0]
            )
        });

        match &self.expected {
            None => self.expected = Some(counts),
            Some(first) => it.tally.check(*first == counts, || {
                "simulated counts differ from the first iteration".to_owned()
            }),
        }
        it.set("fig6_s", it.sample.wall_ms / 1e3);
        it.set("rtl_mips", rtl_insts as f64 / (rtl_ms * 1e3));
        Ok(())
    }
}

/// The edit-build loop: a seeded leaf edit and rebuild, a no-op rebuild of
/// all six workloads, and a cold build of the same six in a fresh workdir.
struct DevLoop {
    root: PathBuf,
    builder: Builder,
    /// The edited intspeed source.
    source: PathBuf,
    original: String,
    rng: u64,
    cold_builds: u64,
}

impl DevLoop {
    fn new(root: &Path, seed: u64) -> Result<DevLoop, String> {
        let mut builder = open_builder(root)?;
        for name in SIX {
            build(&mut builder, name)?;
        }
        let mut rng = seed;
        let bench = marshal_workloads::intspeed::NAMES[(splitmix(&mut rng) % 10) as usize];
        let source = root.join(format!("workloads/intspeed/src/{bench}.s"));
        let original = std::fs::read_to_string(&source)
            .map_err(|e| format!("read {}: {e}", source.display()))?;
        Ok(DevLoop {
            root: root.to_path_buf(),
            builder,
            source,
            original,
            rng,
            cold_builds: 0,
        })
    }

    /// The edited source: the original plus one seeded `.data` word.
    fn edited(&mut self) -> String {
        let value = splitmix(&mut self.rng) >> 32;
        format!(
            "{}\n        .data\n        .align  3\nperfbench_edit: .dword {value}\n",
            self.original
        )
    }
}

impl Flow for DevLoop {
    fn workdir(&self) -> &Path {
        self.builder.workdir()
    }

    fn iterate(&mut self, it: &mut Iter) -> Result<(), String> {
        self.builder.set_recorder(it.rec.clone());
        let opts = build_options();
        let edit = self.edited();
        std::fs::write(&self.source, edit)
            .map_err(|e| format!("write {}: {e}", self.source.display()))?;
        let (mut executed, mut skipped) = (0usize, 0usize);

        let (leaf, ms) = it.call("build", || self.builder.build("intspeed.json", &opts))?;
        it.set("build_leaf_ms", ms);
        let mut build_ms = ms;
        executed += leaf.report.executed.len();
        skipped += leaf.report.skipped.len();
        it.tally.check(!leaf.report.executed.is_empty(), || {
            "the leaf edit rebuilt nothing".to_owned()
        });

        let (mut noop_ms, mut noop_executed) = (0.0, 0);
        for name in SIX {
            let (p, ms) = it.call("build", || self.builder.build(name, &opts))?;
            noop_ms += ms;
            noop_executed += p.report.executed.len();
            skipped += p.report.skipped.len();
        }
        it.set("build_noop_ms", noop_ms);
        it.tally.check(noop_executed == 0, || {
            format!("the no-op rebuild executed {noop_executed} task(s)")
        });

        // The same edited sources, built cold in a fresh workdir.
        let dir = self.root.join(format!("cold-{}", self.cold_builds));
        self.cold_builds += 1;
        let board = self.builder.board().clone();
        let mut cold =
            Builder::new(board, self.builder.search().clone(), &dir).map_err(|e| e.to_string())?;
        cold.set_recorder(it.rec.clone());
        let mut cold_ms = 0.0;
        let mut cold_intspeed = None;
        for name in SIX {
            let (p, ms) = it.call("build", || cold.build(name, &opts))?;
            cold_ms += ms;
            executed += p.report.executed.len();
            skipped += p.report.skipped.len();
            if name == "intspeed.json" {
                cold_intspeed = Some(p);
            }
        }
        it.set("build_cold_ms", cold_ms);
        build_ms += noop_ms + cold_ms;
        // Identical spec -> identical artifacts, wherever they are built.
        let cold_intspeed = cold_intspeed.expect("SIX names intspeed");
        for (a, b) in leaf.jobs.iter().zip(&cold_intspeed.jobs) {
            let same = artifact_paths(&a.kind)
                .iter()
                .zip(artifact_paths(&b.kind))
                .all(|(pa, pb)| {
                    matches!((std::fs::read(pa), std::fs::read(pb)), (Ok(x), Ok(y)) if x == y)
                });
            it.tally.check(same, || {
                format!(
                    "{}: leaf-rebuilt artifacts differ from the cold build",
                    a.name
                )
            });
        }
        drop(cold);
        let _ = std::fs::remove_dir_all(&dir);

        it.set("depgraph.tasks_executed", executed as f64);
        it.set("depgraph.tasks_skipped", skipped as f64);
        it.set("_build_wall_ms", build_ms);
        if it.traced() {
            let search = self.builder.search();
            let (_, ms) = it.probe("resolve_workload", || {
                SIX.iter()
                    .map(|name| marshal_config::resolve_workload(search, name))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            it.set("config.resolve_ms", ms);
        }
        self.builder.set_recorder(Recorder::disabled());
        Ok(())
    }
}

fn artifact_paths(kind: &JobKind) -> Vec<PathBuf> {
    match kind {
        JobKind::Linux {
            boot_path,
            disk_path,
        } => std::iter::once(boot_path.clone())
            .chain(disk_path.clone())
            .collect(),
        JobKind::Bare { bin_path } => vec![bin_path.clone()],
    }
}

/// The functional-first verification loop with warm boot checkpoints.
struct FuncFleet {
    builder: Builder,
    intspeed: BuildProducts,
    four: Vec<BuildProducts>,
    /// qemu and spike behaviour of every job of the four, observed once,
    /// for timing the cosim comparison on its own.
    observed: Vec<(BackendBehaviour, BackendBehaviour)>,
}

impl FuncFleet {
    fn new(root: &Path) -> Result<FuncFleet, String> {
        let mut builder = open_builder(root)?;
        let intspeed = build(&mut builder, "intspeed.json")?;
        let four = FOUR
            .iter()
            .map(|name| build(&mut builder, name))
            .collect::<Result<_, _>>()?;
        Ok(FuncFleet {
            builder,
            intspeed,
            four,
            observed: Vec::new(),
        })
    }

    fn cosim_options(&self, rec: &Recorder) -> CosimOptions {
        CosimOptions {
            backends: ("qemu".to_owned(), "spike".to_owned()),
            recorder: rec.clone(),
            checkpoints: Some(CheckpointStore::new(self.builder.workdir())),
            ..CosimOptions::default()
        }
    }

    /// Per-layer probes, timed outside the iteration's wall time.
    fn probes(&mut self, it: &mut Iter) -> Result<(), String> {
        let jobs: Vec<_> = self
            .four
            .iter()
            .chain([&self.intspeed])
            .flat_map(|p| &p.jobs)
            .collect();
        let (_, ms) = it.probe("load_artifacts", || {
            jobs.iter()
                .map(|j| load_artifacts(j))
                .collect::<Result<Vec<_>, _>>()
        })?;
        it.set("core.load_artifacts_ms", ms);

        let mut compare_ms = 0.0;
        for p in &self.four {
            let run_dir = self.builder.run_dir(&p.workload);
            let serials: Vec<(String, String)> = p
                .jobs
                .iter()
                .map(|j| {
                    let log = std::fs::read_to_string(run_dir.join(&j.name).join(SERIAL_LOG));
                    (j.name.clone(), log.unwrap_or_default())
                })
                .collect();
            let (outcomes, ms) = it.probe("compare_run", || compare_run(p, &serials))?;
            compare_ms += ms;
            it.tally
                .check(outcomes.iter().all(|o| *o == TestOutcome::Pass), || {
                    format!("{}: reference comparison failed: {outcomes:?}", p.workload)
                });
        }
        it.set("core.test.compare_ms", compare_ms);

        if self.observed.is_empty() {
            let opts = self.cosim_options(&Recorder::disabled());
            for job in self.four.iter().flat_map(|p| &p.jobs) {
                let a = observe_backend("qemu", job, &opts).map_err(|e| e.to_string())?;
                let b = observe_backend("spike", job, &opts).map_err(|e| e.to_string())?;
                self.observed.push((a, b));
            }
        }
        let observed = &self.observed;
        let (diverged, ms) = it.probe("compare_behaviour", || {
            Ok::<_, String>(
                observed
                    .iter()
                    .filter_map(|(a, b)| compare_behaviour(a, b))
                    .count(),
            )
        })?;
        it.set("core.cosim.compare_ms", ms);
        it.tally.check(diverged == 0, || {
            format!("{diverged} observed job(s) diverge")
        });
        Ok(())
    }
}

impl Flow for FuncFleet {
    fn workdir(&self) -> &Path {
        self.builder.workdir()
    }

    fn iterate(&mut self, it: &mut Iter) -> Result<(), String> {
        self.builder.set_recorder(it.rec.clone());
        let qemu = LaunchOptions {
            sim: Some("qemu".to_owned()),
            ..LaunchOptions::default()
        };
        let (run, launch_ms) = it.call("launch_workload", || {
            launch_workload(&self.builder, &self.intspeed, &qemu)
        })?;
        it.set("launch_func_ms", launch_ms);
        let mut insts: u64 = run.jobs.iter().map(|j| j.instructions).sum();
        for j in &run.jobs {
            it.tally.check(j.exit_code == 0 && !j.timed_out, || {
                format!(
                    "{}: exit code {}, timed out {}",
                    j.job, j.exit_code, j.timed_out
                )
            });
        }

        let opts = build_options();
        let mut test_ms = 0.0;
        for name in FOUR {
            let (outcomes, ms) = it.call("test_workload", || {
                test_workload(&mut self.builder, name, &opts, &LaunchOptions::default())
            })?;
            test_ms += ms;
            it.tally
                .check(outcomes.iter().all(|o| *o == TestOutcome::Pass), || {
                    format!("test {name}: {outcomes:?}")
                });
        }
        it.set("test_ms", test_ms);

        let copts = self.cosim_options(&it.rec);
        let mut cosim_ms = 0.0;
        for p in &self.four {
            let (report, ms) = it.call("cosim_workload", || cosim_workload(p, &copts))?;
            cosim_ms += ms;
            insts += report
                .jobs
                .iter()
                .map(|j| j.instructions.0 + j.instructions.1)
                .sum::<u64>();
            it.tally.check(report.agreed(), || {
                format!("cosim {}: backends diverge", p.workload)
            });
        }
        it.set("cosim_ms", cosim_ms);
        it.set("func_mips", insts as f64 / ((launch_ms + cosim_ms) * 1e3));
        if it.traced() {
            self.probes(it)?;
        }
        self.builder.set_recorder(Recorder::disabled());
        Ok(())
    }
}

/// The splitmix64 generator: the benchmark's only source of seeded input.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
