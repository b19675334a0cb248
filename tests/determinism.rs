//! E10 (§IV-C): "students were able to obtain repeatable results down to
//! an exact cycle-count of each executing application and course staff
//! could reproduce these results for grading purposes."

mod common;

use common::sorted_tree;

use marshal_core::cosim::{cosim_workload, CosimOptions};
use marshal_core::launch::{launch_workload, load_artifacts, LaunchOptions};
use marshal_core::{BuildOptions, CheckpointStore, JobKind};
use marshal_depgraph::host_threads;
use marshal_sim_functional::LaunchMode;
use marshal_sim_rtl::{FireSim, HardwareConfig};

#[test]
fn cycle_counts_repeat_exactly() {
    let root = common::tmpdir("determinism");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("coremark.json", &BuildOptions::default())
        .unwrap();
    let job = load_artifacts(&products.jobs[0]).unwrap();

    for hw in [
        HardwareConfig::rocket(),
        HardwareConfig::boom_gshare(),
        HardwareConfig::boom_tage(),
    ] {
        let name = hw.name.clone();
        let sim = FireSim::new(hw);
        let (r1, p1, _) = sim.run(&job, LaunchMode::Run, None).unwrap();
        let (r2, p2, _) = sim.run(&job, LaunchMode::Run, None).unwrap();
        assert_eq!(
            p1.counters.cycles, p2.counters.cycles,
            "{name}: cycle counts must repeat exactly"
        );
        assert_eq!(p1.counters, p2.counters, "{name}: all counters repeat");
        assert_eq!(r1.serial, r2.serial, "{name}: serial repeats");
    }
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn parallel_build_is_bit_identical_to_serial() {
    // The scheduler must be invisible in the artifacts: for the bringup
    // suite and the PFA workload, a `-j 8` build produces the same boot
    // binary, disk image, and `.fp` checksum sidecars, byte for byte, as
    // a `-j 1` build in a fresh directory.
    for workload in ["hello.json", "coremark.json", "latency-microbenchmark.json"] {
        let serial_root = common::tmpdir(&format!("det-j1-{workload}"));
        let parallel_root = common::tmpdir(&format!("det-j8-{workload}"));
        let build = |root: &std::path::Path, opts: &BuildOptions| -> Vec<(String, Vec<u8>)> {
            let mut builder = common::builder_in(root);
            let products = builder.build(workload, opts).unwrap();
            let mut artifacts = Vec::new();
            for job in &products.jobs {
                let mut paths = Vec::new();
                match &job.kind {
                    JobKind::Linux {
                        boot_path,
                        disk_path,
                    } => {
                        paths.push(boot_path.clone());
                        paths.push(marshal_core::integrity::sidecar_path(boot_path));
                        if let Some(disk) = disk_path {
                            paths.push(disk.clone());
                            paths.push(marshal_core::integrity::sidecar_path(disk));
                        }
                    }
                    JobKind::Bare { bin_path } => {
                        paths.push(bin_path.clone());
                        paths.push(marshal_core::integrity::sidecar_path(bin_path));
                    }
                }
                for p in paths {
                    let rel = format!("{}/{}", job.name, p.file_name().unwrap().to_string_lossy());
                    artifacts.push((rel, std::fs::read(&p).unwrap()));
                }
            }
            artifacts
        };
        let serial = build(
            &serial_root,
            &BuildOptions {
                jobs: Some(1),
                ..BuildOptions::default()
            },
        );
        let parallel = build(
            &parallel_root,
            &BuildOptions {
                jobs: Some(8),
                ..BuildOptions::default()
            },
        );
        assert_eq!(serial.len(), parallel.len(), "{workload}: artifact sets");
        for ((name, a), (name2, b)) in serial.iter().zip(parallel.iter()) {
            assert_eq!(name, name2, "{workload}: artifact order");
            assert_eq!(
                marshal_depgraph::Fingerprint::of(a),
                marshal_depgraph::Fingerprint::of(b),
                "{workload}: `{name}` differs between -j 1 and -j 8"
            );
        }
        // The store itself must also be scheduler-invisible: the level
        // manifests and the content-addressed blob pool come out identical.
        for sub in ["levels", "objects"] {
            let serial_files = sorted_tree(&serial_root.join("work").join(sub));
            let parallel_files = sorted_tree(&parallel_root.join("work").join(sub));
            assert_eq!(
                serial_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                parallel_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                "{workload}: {sub}/ file sets differ between -j 1 and -j 8"
            );
            for ((name, a), (_, b)) in serial_files.iter().zip(parallel_files.iter()) {
                assert_eq!(
                    marshal_depgraph::Fingerprint::of(a),
                    marshal_depgraph::Fingerprint::of(b),
                    "{workload}: {sub}/{name} differs between -j 1 and -j 8"
                );
            }
        }
        std::fs::remove_dir_all(serial_root).unwrap();
        std::fs::remove_dir_all(parallel_root).unwrap();
    }
}

#[test]
fn grading_scenario_staff_reproduces_student_result() {
    // §IV-C: the student runs in one directory, the staff in another; the
    // staff reproduces the student's exact measurement from the shared
    // workload spec alone.
    let student_root = common::tmpdir("det-student");
    let staff_root = common::tmpdir("det-staff");
    let measure = |root: &std::path::Path| -> u64 {
        let mut builder = common::builder_in(root);
        let products = builder
            .build("coremark.json", &BuildOptions::default())
            .unwrap();
        let node = marshal_core::install::run_job_cycle_exact(
            &products.jobs[0],
            HardwareConfig::boom_tage(),
        )
        .unwrap();
        node.report.counters.cycles
    };
    let student_cycles = measure(&student_root);
    let staff_cycles = measure(&staff_root);
    assert_eq!(student_cycles, staff_cycles);
    std::fs::remove_dir_all(student_root).unwrap();
    std::fs::remove_dir_all(staff_root).unwrap();
}

#[test]
fn different_hardware_different_cycles_same_behaviour() {
    // Determinism also means configuration changes are cleanly visible:
    // different cores differ in cycles but never in behaviour.
    let root = common::tmpdir("det-hw");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let rocket =
        marshal_core::install::run_job_cycle_exact(&products.jobs[0], HardwareConfig::rocket())
            .unwrap();
    let boom =
        marshal_core::install::run_job_cycle_exact(&products.jobs[0], HardwareConfig::boom_tage())
            .unwrap();
    assert_eq!(
        rocket.report.counters.instructions,
        boom.report.counters.instructions
    );
    assert_ne!(rocket.report.counters.cycles, boom.report.counters.cycles);
    assert_eq!(
        marshal_core::clean_output(&rocket.result.serial),
        marshal_core::clean_output(&boom.result.serial)
    );
    std::fs::remove_dir_all(root).unwrap();
}

/// Widths every job-pool comparison runs at: serial, the host default,
/// and a fixed width above one so a single-core host still overlaps jobs.
const WIDTHS: [Option<usize>; 3] = [Some(1), None, Some(3)];

#[test]
fn parallel_launch_is_identical_to_serial() {
    // The job pool must be invisible in the results: intspeed's ten qemu
    // jobs launched one at a time and concurrently give the same
    // `WorkloadRun` and byte-identical run directories (uartlogs,
    // collected outputs, stats and the post-run hook's results.csv).
    let root = common::tmpdir("det-launch");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("intspeed.json", &BuildOptions::default())
        .unwrap();
    assert_eq!(products.jobs.len(), 10);
    let launch = |jobs: Option<usize>| {
        let opts = LaunchOptions {
            sim: Some("qemu".to_owned()),
            jobs,
            ..LaunchOptions::default()
        };
        let _ = std::fs::remove_dir_all(builder.run_dir(&products.workload));
        let run = launch_workload(&builder, &products, &opts).unwrap();
        let tree = sorted_tree(&run.run_root);
        (run, tree)
    };
    // Warm-up at full width: writes every boot checkpoint concurrently,
    // so each compared launch below restores the same snapshots.
    launch(Some(3));
    let (serial, serial_tree) = launch(Some(1));
    assert!(serial_tree.iter().any(|(name, _)| name == "results.csv"));
    assert!(serial.jobs.iter().all(|j| j.exit_code == 0));
    for width in &WIDTHS[1..] {
        let (run, tree) = launch(*width);
        assert_eq!(run, serial, "WorkloadRun at width {width:?}");
        assert_eq!(
            tree.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            serial_tree.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            "run-directory file set at width {width:?}"
        );
        for ((name, a), (_, b)) in serial_tree.iter().zip(&tree) {
            assert!(a == b, "`{name}` differs between width 1 and {width:?}");
        }
    }
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn parallel_cosim_is_identical_to_serial() {
    // The (job, backend) observations of a cosim run concurrently and
    // are paired back up in job order: the report, warnings included,
    // matches a one-at-a-time run, with and without the injected
    // divergence on side b.
    let root = common::tmpdir("det-cosim");
    let mut builder = common::builder_in(&root);
    let store = CheckpointStore::new(builder.workdir());
    for workload in [
        "hello.json",
        "coremark.json",
        "onnx-infer.json",
        "latency-microbenchmark.json",
    ] {
        let products = builder.build(workload, &BuildOptions::default()).unwrap();
        for inject_divergence in [false, true] {
            let cosim = |jobs: Option<usize>| {
                let opts = CosimOptions {
                    backends: ("qemu".to_owned(), "spike".to_owned()),
                    checkpoints: Some(store.clone()),
                    inject_divergence,
                    jobs,
                    ..CosimOptions::default()
                };
                cosim_workload(&products, &opts).unwrap()
            };
            let serial = cosim(Some(1));
            assert_eq!(serial.jobs.len(), products.jobs.len());
            assert_eq!(serial.agreed(), !inject_divergence, "{workload}");
            for width in &WIDTHS[1..] {
                assert_eq!(
                    cosim(*width),
                    serial,
                    "{workload}: CosimReport at width {width:?} \
                     (inject_divergence {inject_divergence})"
                );
            }
        }
    }
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn failing_job_is_reported_at_every_width() {
    // Job K of intspeed cannot load: at every width the launch fails with
    // job K's error (the serial loop's first failure), and once that
    // failure is seen no later job starts — only jobs other workers had
    // already claimed may still run.
    const K: usize = 3;
    let root = common::tmpdir("det-fail");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("intspeed.json", &BuildOptions::default())
        .unwrap();
    let JobKind::Linux { boot_path, .. } = &products.jobs[K].kind else {
        panic!("intspeed jobs boot Linux");
    };
    std::fs::remove_file(boot_path).unwrap();
    let run_root = builder.run_dir(&products.workload);
    for width in WIDTHS {
        let _ = std::fs::remove_dir_all(&run_root);
        let opts = LaunchOptions {
            sim: Some("qemu".to_owned()),
            jobs: width,
            ..LaunchOptions::default()
        };
        let err = launch_workload(&builder, &products, &opts).unwrap_err();
        assert!(
            err.to_string().contains(&products.jobs[K].name),
            "width {width:?}: error names job {K}: {err}"
        );
        let ran: Vec<usize> = (0..products.jobs.len())
            .filter(|&i| run_root.join(&products.jobs[i].name).exists())
            .collect();
        let pool = width.unwrap_or_else(host_threads).min(products.jobs.len());
        assert!(
            ran.starts_with(&(0..K).collect::<Vec<_>>()),
            "width {width:?}: every job before {K} ran: {ran:?}"
        );
        assert!(
            !ran.contains(&K) && ran.len() < K + pool,
            "width {width:?} (pool of {pool}): jobs that ran: {ran:?}"
        );
    }
    std::fs::remove_dir_all(root).unwrap();
}
