//! E10 (§IV-C): "students were able to obtain repeatable results down to
//! an exact cycle-count of each executing application and course staff
//! could reproduce these results for grading purposes."

mod common;

use marshal_core::launch::load_artifacts;
use marshal_core::{BuildOptions, JobKind};
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
    // suite and the PFA workload, a `-j 8` build and a build spread over
    // two `marshal serve --exec` workers both produce the same boot
    // binary, disk image, and `.fp` checksum sidecars, byte for byte, as
    // a `-j 1` build in a fresh directory.
    let worker_a = common::tmpdir("det-worker-a");
    let worker_b = common::tmpdir("det-worker-b");
    let (addr_a, handle_a, join_a) = common::spawn_exec_server(&worker_a);
    let (addr_b, handle_b, join_b) = common::spawn_exec_server(&worker_b);
    for workload in ["hello.json", "coremark.json", "latency-microbenchmark.json"] {
        let serial_root = common::tmpdir(&format!("det-j1-{workload}"));
        let parallel_root = common::tmpdir(&format!("det-j8-{workload}"));
        let remote_root = common::tmpdir(&format!("det-remote-{workload}"));
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
        let remote = build(
            &remote_root,
            &BuildOptions {
                runners: Some(format!("remote:{addr_a},remote:{addr_b}")),
                ..BuildOptions::default()
            },
        );
        for (variant, other) in [("-j 8", &parallel), ("2 remote workers", &remote)] {
            assert_eq!(
                serial.len(),
                other.len(),
                "{workload}: artifact sets ({variant})"
            );
            for ((name, a), (name2, b)) in serial.iter().zip(other.iter()) {
                assert_eq!(name, name2, "{workload}: artifact order ({variant})");
                assert_eq!(
                    marshal_depgraph::Fingerprint::of(a),
                    marshal_depgraph::Fingerprint::of(b),
                    "{workload}: `{name}` differs between -j 1 and {variant}"
                );
            }
        }
        // The store itself must also be scheduler-invisible: the level
        // manifests and the content-addressed blob pool come out identical.
        for sub in ["levels", "objects"] {
            let serial_files = sorted_tree(&serial_root.join("work").join(sub));
            for (variant, root) in [("-j 8", &parallel_root), ("2 remote workers", &remote_root)] {
                let other_files = sorted_tree(&root.join("work").join(sub));
                assert_eq!(
                    serial_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                    other_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                    "{workload}: {sub}/ file sets differ between -j 1 and {variant}"
                );
                for ((name, a), (_, b)) in serial_files.iter().zip(other_files.iter()) {
                    assert_eq!(
                        marshal_depgraph::Fingerprint::of(a),
                        marshal_depgraph::Fingerprint::of(b),
                        "{workload}: {sub}/{name} differs between -j 1 and {variant}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(serial_root).unwrap();
        std::fs::remove_dir_all(parallel_root).unwrap();
        std::fs::remove_dir_all(remote_root).unwrap();
    }
    handle_a.shutdown();
    handle_b.shutdown();
    let served_a = join_a.join().expect("worker a").requests;
    let served_b = join_b.join().expect("worker b").requests;
    assert!(
        served_a + served_b >= 1,
        "the remote builds actually exercised the workers"
    );
    let _ = std::fs::remove_dir_all(worker_a);
    let _ = std::fs::remove_dir_all(worker_b);
}

/// Every file under `root` (recursively) as (relative path, contents),
/// sorted by path.
fn sorted_tree(root: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    fn rec(root: &std::path::Path, dir: &std::path::Path, out: &mut Vec<(String, Vec<u8>)>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                rec(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    rec(root, root, &mut out);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
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
