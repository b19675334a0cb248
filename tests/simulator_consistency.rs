//! E11 (§III-E): "the workload outputs are not modified in any way between
//! the launch and install commands; the exact same artifacts are run on
//! both simulators" — and produce consistent behaviour on QEMU, Spike, and
//! the cycle-exact simulator.

mod common;

use marshal_core::launch::load_artifacts;
use marshal_core::{clean_output, launch, BuildOptions, LaunchOptions};
use marshal_sim_functional::{FunctionalSim, LaunchMode, SimKind};
use marshal_sim_rtl::{FireSim, HardwareConfig};

#[test]
fn same_artifacts_same_cleaned_output_on_all_simulators() {
    let root = common::tmpdir("consistency");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("coremark.json", &BuildOptions::default())
        .unwrap();
    let job = load_artifacts(&products.jobs[0]).unwrap();

    let (qemu, _) = FunctionalSim::new(SimKind::Qemu)
        .run(&job, LaunchMode::Run, None)
        .unwrap();
    let (spike, _) = FunctionalSim::new(SimKind::Spike)
        .run(&job, LaunchMode::Run, None)
        .unwrap();
    let (firesim, report, _) = FireSim::new(HardwareConfig::rocket())
        .run(&job, LaunchMode::Run, None)
        .unwrap();

    // Identical instruction streams on all three simulators.
    assert_eq!(qemu.instructions, spike.instructions);
    assert_eq!(qemu.instructions, firesim.instructions);
    // The cycle-exact simulator modelled real time on top.
    assert!(report.counters.cycles > report.counters.instructions);

    // Raw serial logs differ (timestamps, banner, machine model)...
    assert_ne!(qemu.serial, spike.serial);
    assert_ne!(qemu.serial, firesim.serial);
    // ...but the cleaned logs are identical.
    assert_eq!(clean_output(&qemu.serial), clean_output(&spike.serial));
    assert_eq!(clean_output(&qemu.serial), clean_output(&firesim.serial));

    // And all three contain the benchmark's stable checksum line.
    let checksum_line = format!(
        "coremark checksum: {}",
        marshal_workloads::coremark::known_checksum()
    );
    for serial in [&qemu.serial, &spike.serial, &firesim.serial] {
        assert!(serial.contains(&checksum_line));
    }
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn launch_sim_flag_runs_same_artifacts_on_every_backend() {
    // The backend registry behind `launch --sim`: one build, three
    // backends, no artifact mutation in between. The functional pair must
    // agree on canonical output *and* instruction stream; the cycle-exact
    // backend must agree on behaviour (canonical output and exit status),
    // though its timing differs by construction.
    let root = common::tmpdir("consistency-sim-flag");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let run_on = |sim: &str| {
        let opts = LaunchOptions {
            sim: Some(sim.to_owned()),
            ..LaunchOptions::default()
        };
        launch::launch_workload(&builder, &products, &opts).unwrap()
    };
    let qemu = run_on("qemu");
    let spike = run_on("spike");
    let rtl = run_on("rtl");

    for run in [&qemu, &spike, &rtl] {
        assert!(run.jobs[0].serial.contains("Hello from FireMarshal!"));
        assert!(!run.jobs[0].timed_out);
    }
    // Functional determinism: QEMU and Spike retire the same instruction
    // stream and print the same canonical log.
    assert_eq!(qemu.jobs[0].instructions, spike.jobs[0].instructions);
    assert_eq!(
        clean_output(&qemu.jobs[0].serial),
        clean_output(&spike.jobs[0].serial)
    );
    // Cycle-exact portability: same exit status and canonical behaviour.
    assert_eq!(qemu.jobs[0].exit_code, rtl.jobs[0].exit_code);
    assert_eq!(
        clean_output(&qemu.jobs[0].serial),
        clean_output(&rtl.jobs[0].serial)
    );
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn final_images_identical_across_simulators() {
    // Output files (not just serial) also match across simulators.
    let root = common::tmpdir("consistency-img");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let job = load_artifacts(&products.jobs[0]).unwrap();
    let (qemu, _) = FunctionalSim::new(SimKind::Qemu)
        .run(&job, LaunchMode::Run, None)
        .unwrap();
    let (firesim, _, _) = FireSim::new(HardwareConfig::boom_tage())
        .run(&job, LaunchMode::Run, None)
        .unwrap();
    let qi = qemu.image.unwrap();
    let fi = firesim.image.unwrap();
    assert_eq!(
        qi.read_file("/output/hello.txt").unwrap(),
        fi.read_file("/output/hello.txt").unwrap()
    );
    assert_eq!(qi.to_bytes(), fi.to_bytes(), "final images byte-identical");
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn install_then_cycle_exact_run_passes_same_test() {
    // The §IV-A workflow: verify in functional simulation, then run the
    // unmodified workload under `install` and verify with `test --manual`.
    let root = common::tmpdir("consistency-install");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("latency-microbenchmark.json", &BuildOptions::default())
        .unwrap();

    // Functional pass (launch).
    let run = launch::launch_workload(&builder, &products, &Default::default()).unwrap();
    let functional = marshal_core::test::compare_run(
        &products,
        &run.jobs
            .iter()
            .map(|j| (j.job.clone(), j.serial.clone()))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    assert!(functional.iter().all(marshal_core::TestOutcome::passed));

    // Install + cycle-exact run of the same artifacts.
    let (manifest, _) = marshal_core::install::install_workload(&builder, &products).unwrap();
    let hw = HardwareConfig::rocket().with_remote(marshal_sim_rtl::RemoteMemConfig::Pfa(
        marshal_sim_rtl::pfa::RemoteTimings::default(),
    ));
    let nodes = marshal_core::install::run_installed(&manifest, hw, false).unwrap();
    let cycle_exact = marshal_core::test::compare_run(
        &products,
        &nodes
            .iter()
            .map(|n| (n.name.clone(), n.result.serial.clone()))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    assert!(
        cycle_exact.iter().all(marshal_core::TestOutcome::passed),
        "{cycle_exact:?}"
    );
    // The client actually took remote faults under the PFA model.
    let client = &nodes[0];
    let pfa = client.report.pfa.expect("remote memory modelled");
    assert_eq!(pfa.faults, 64);
    std::fs::remove_dir_all(root).unwrap();
}
