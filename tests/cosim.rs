//! Lockstep co-simulation acceptance: the same built artifacts run on two
//! backends must agree on canonical serial output, exit status, and
//! extracted output files — and the checker must catch a single flipped
//! byte (`--inject-divergence` negative test).

mod common;

use marshal_core::cli::{self, CliArgs, Command};
use marshal_core::cosim::{cosim_workload, observe_backend, CosimOptions, Divergence};
use marshal_core::launch::{launch_workload, LaunchOptions};
use marshal_core::BuildOptions;

#[test]
fn clean_workload_agrees_on_default_backend_pair() {
    // Default pairing is functional vs cycle-exact (`qemu,rtl`) — the
    // pairing the paper's portability claim is actually about.
    let root = common::tmpdir("cosim-clean");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let report = cosim_workload(&products, &CosimOptions::default()).unwrap();
    assert_eq!(report.backends, ("qemu".to_owned(), "rtl".to_owned()));
    assert!(report.agreed(), "{:?}", report.jobs);
    for job in &report.jobs {
        assert!(job.divergence.is_none());
        // Instruction counts are informational, never compared: both
        // backends still retire a plausible stream.
        assert!(job.instructions.0 > 0 && job.instructions.1 > 0);
    }
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn functional_pair_agrees_including_outputs() {
    // qemu vs spike over a workload with declared output files: the
    // comparison covers extracted outputs, not just serial text.
    let root = common::tmpdir("cosim-functional");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let opts = CosimOptions {
        backends: ("qemu".to_owned(), "spike".to_owned()),
        ..CosimOptions::default()
    };
    let report = cosim_workload(&products, &opts).unwrap();
    assert!(report.agreed(), "{:?}", report.jobs);
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn pfa_workload_agrees_functional_vs_cycle_exact() {
    // The PFA microbenchmark exercises the custom `pfa-spike` feature tag:
    // the rtl backend auto-attaches the remote-memory model, and behaviour
    // still matches the functional run on identical artifacts.
    let root = common::tmpdir("cosim-pfa");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("latency-microbenchmark.json", &BuildOptions::default())
        .unwrap();
    let report = cosim_workload(&products, &CosimOptions::default()).unwrap();
    assert!(report.agreed(), "{:?}", report.jobs);
    std::fs::remove_dir_all(root).unwrap();
}

#[cfg(unix)]
#[test]
fn output_behind_a_symlink_is_compared_and_collected() {
    use std::os::unix::fs::PermissionsExt;
    // The declared `/output` is a symlink to `/data`. The guest runs a
    // loop, then writes its cycle count behind the link: the functional
    // and the cycle-exact backend count differently, so the file differs
    // while the serial log agrees. `cosim` must compare the file `launch`
    // collects.
    let root = common::tmpdir("cosim-symlink");
    let wl = root.join("user-workloads");
    std::fs::create_dir_all(wl.join("overlay/data")).unwrap();
    std::fs::create_dir_all(wl.join("overlay/bin")).unwrap();
    std::os::unix::fs::symlink("data", wl.join("overlay/output")).unwrap();
    let spin = "_start:\n li t0, 500\nloop:\n addi t0, t0, -1\n bnez t0, loop\n \
                li a0, 0\n li a7, 93\n ecall\n";
    let exe = marshal_isa::asm::assemble(spin, marshal_isa::abi::USER_BASE).unwrap();
    let bin = wl.join("overlay/bin/spin");
    std::fs::write(&bin, exe.to_bytes()).unwrap();
    std::fs::set_permissions(&bin, std::fs::Permissions::from_mode(0o755)).unwrap();
    std::fs::write(
        wl.join("overlay/stamp.ms"),
        "#!mscript\nexec(\"/bin/spin\")\nwrite_file(\"/data/stamp.txt\", str(cycles()))\n",
    )
    .unwrap();
    std::fs::write(
        wl.join("linked.json"),
        r#"{"name":"linked","base":"br-base.json","overlay":"overlay","run":"stamp.ms",
            "outputs":["/output"]}"#,
    )
    .unwrap();
    let setup = marshal_workloads::setup(&root).unwrap();
    let mut search = setup.search;
    search.add_dir(&wl);
    let mut builder = marshal_core::Builder::new(setup.board, search, root.join("work")).unwrap();
    let products = builder
        .build("linked.json", &BuildOptions::default())
        .unwrap();
    let opts = CosimOptions::default();
    let report = cosim_workload(&products, &opts).unwrap();
    assert_eq!(report.backends, ("qemu".to_owned(), "rtl".to_owned()));
    match &report.jobs[0].divergence {
        Some(Divergence::Output { path, .. }) => assert_eq!(path, "/output/stamp.txt"),
        other => panic!("expected an output divergence, got {other:?}"),
    }

    let qemu = observe_backend("qemu", &products.jobs[0], &opts).unwrap();
    let launch_opts = LaunchOptions {
        sim: Some("qemu".to_owned()),
        ..LaunchOptions::default()
    };
    let run = launch_workload(&builder, &products, &launch_opts).unwrap();
    let collected = std::fs::read(run.jobs[0].job_dir.join("output/stamp.txt")).unwrap();
    assert_eq!(qemu.outputs["/output/stamp.txt"], collected);
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn injected_single_byte_divergence_is_detected() {
    // Negative test: flip one bit in one byte of the second backend's
    // serial output. Canonicalization must not hide it, and the report
    // must pinpoint the first diverging line with context.
    let root = common::tmpdir("cosim-inject");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let opts = CosimOptions {
        inject_divergence: true,
        ..CosimOptions::default()
    };
    let report = cosim_workload(&products, &opts).unwrap();
    assert!(!report.agreed(), "the checker must catch the flipped byte");
    let diverged = report
        .jobs
        .iter()
        .find_map(|j| j.divergence.as_ref())
        .expect("at least one divergence reported");
    let Divergence::Serial { line, a, b, .. } = diverged else {
        panic!("expected a serial divergence, got {diverged}");
    };
    assert!(*line >= 1, "1-indexed line number");
    assert_ne!(a, b, "the two sides show different text");
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn cli_cosim_exit_codes_follow_agreement() {
    let root = common::tmpdir("cosim-cli");
    let setup = marshal_workloads::setup(&root).unwrap();
    let base = CliArgs {
        search_dirs: vec![],
        workdir: root.join("work").to_string_lossy().into_owned(),
        verbose: false,
        command: Command::Cosim {
            workload: "hello.json".to_owned(),
            jobs: None,
            sim: None,
            timeout_insts: None,
            hw: None,
            inject_divergence: false,
            no_checkpoint: false,
        },
    };
    let (code, log) = cli::run_command(&base, setup.board.clone(), setup.search.clone());
    assert_eq!(code, 0, "clean cosim exits 0: {log:?}");
    assert!(
        log.iter().any(|l| l.contains("agree")),
        "agreement summary in log: {log:?}"
    );

    let args = CliArgs {
        command: Command::Cosim {
            workload: "hello.json".to_owned(),
            jobs: None,
            sim: Some("qemu,spike".to_owned()),
            timeout_insts: None,
            hw: None,
            inject_divergence: true,
            no_checkpoint: false,
        },
        ..base
    };
    let (code, log) = cli::run_command(&args, setup.board, setup.search);
    assert_ne!(code, 0, "injected divergence exits nonzero: {log:?}");
    assert!(
        log.iter().any(|l| l.contains("DIVERGENCE")),
        "divergence called out in log: {log:?}"
    );
    let _ = std::fs::remove_dir_all(root);
}
