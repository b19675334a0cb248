//! E1 (Table I): the command surface — `build`, `launch`, `test`,
//! `install`, `clean` — driven through the CLI layer exactly as the
//! `marshal` binary does.

mod common;

use common::{run_cli as run, sorted_tree};
use marshal_core::{BuildOptions, ImageStore};

#[test]
fn build_command_reports_jobs_and_tasks() {
    let root = common::tmpdir("cli-build");
    let (code, log) = run(&root, &["build", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    assert!(log[0].contains("built `hello`"), "{log:?}");
    assert!(log.iter().any(|l| l.contains("task(s) run")));

    // Second build: everything up to date.
    let (code, log) = run(&root, &["build", "hello.json"]);
    assert_eq!(code, 0);
    assert!(log[0].contains("0 task(s) run"), "{log:?}");
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn launch_command_runs_payload() {
    let root = common::tmpdir("cli-launch");
    let (code, log) = run(&root, &["-v", "launch", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    assert!(log.iter().any(|l| l.contains("Hello from FireMarshal!")));
    assert!(log.iter().any(|l| l.contains("exited 0")));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn test_command_passes_on_reference() {
    let root = common::tmpdir("cli-test");
    let (code, log) = run(&root, &["test", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    assert!(log.iter().any(|l| l == "PASS"));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn install_command_writes_manifest() {
    let root = common::tmpdir("cli-install");
    let (code, log) = run(&root, &["install", "--hw", "boom-tage", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    assert!(log[0].contains("installed `hello`"));
    let manifest_path = root.join("work/installs/hello/firesim_config.json");
    assert!(manifest_path.exists());
    let manifest = marshal_core::install::load_manifest(&manifest_path).unwrap();
    assert_eq!(manifest.jobs.len(), 1);
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn clean_command_forces_rebuild() {
    let root = common::tmpdir("cli-clean");
    run(&root, &["build", "hello.json"]);
    let (code, log) = run(&root, &["clean", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    assert!(log[0].contains("cleaned"));
    let (_, log) = run(&root, &["build", "hello.json"]);
    assert!(!log[0].contains("0 task(s) run"), "{log:?}");
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn bad_usage_fails_cleanly() {
    let root = common::tmpdir("cli-bad");
    let (code, log) = run(&root, &["launch", "no-such-workload.json"]);
    assert_eq!(code, 1);
    assert!(log[0].contains("not found"), "{log:?}");

    let (code, log) = run(&root, &["install", "--hw", "z80", "hello.json"]);
    assert_eq!(code, 1);
    assert!(log[0].contains("unknown hardware config"));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn marshal_binary_smoke() {
    // Drive the real binary for `help` (no workload setup needed).
    let exe = env!("CARGO_BIN_EXE_marshal");
    let out = std::process::Command::new(exe)
        .arg("help")
        .output()
        .expect("run marshal");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: marshal"), "{stdout}");
    assert!(out.status.success());
}

#[test]
fn marshal_survives_a_closed_stdout() {
    // `marshal help | true`: the reader is gone before the first line.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_marshal"))
        .arg("help")
        .stdout(writer)
        .output()
        .expect("run marshal");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn test_manual_compares_existing_outputs() {
    // §III-E: "users can verify the outputs using the test command with
    // the --manual option to compare outputs as if FireMarshal had run the
    // workload."
    let root = common::tmpdir("cli-manual");
    // First produce real outputs via launch.
    let (code, _) = run(&root, &["launch", "hello.json"]);
    assert_eq!(code, 0);
    let run_dir = root.join("work/runs/hello");
    let (code, log) = run(
        &root,
        &["test", "--manual", run_dir.to_str().unwrap(), "hello.json"],
    );
    assert_eq!(code, 0, "{log:?}");
    assert!(log.iter().any(|l| l == "PASS"), "{log:?}");

    // Corrupt the recorded uartlog: --manual must now fail.
    std::fs::write(run_dir.join("hello/uartlog"), "something unrelated\n").unwrap();
    let (code, log) = run(
        &root,
        &["test", "--manual", run_dir.to_str().unwrap(), "hello.json"],
    );
    assert_eq!(code, 1, "{log:?}");
    assert!(log.iter().any(|l| l.starts_with("FAIL")), "{log:?}");
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn install_with_vcs_connector() {
    // §VI extension: pluggable simulator connectors.
    let root = common::tmpdir("cli-vcs");
    let (code, log) = run(&root, &["install", "--sim", "vcs", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    assert!(log[0].contains("vcs connector"), "{log:?}");
    let runner = root.join("work/installs/hello/run_all.sh");
    assert!(runner.exists());
    let per_job = std::fs::read_to_string(root.join("work/installs/hello/sim_hello.sh")).unwrap();
    assert!(per_job.contains("simv"), "{per_job}");
    assert!(per_job.contains("+bootrom="));

    let (code, log) = run(&root, &["install", "--sim", "modelsim", "hello.json"]);
    assert_eq!(code, 1);
    assert!(log[0].contains("unknown simulator connector"));
    std::fs::remove_dir_all(root).unwrap();
}

/// `--dry-run` reports the full task plan without executing anything: no
/// job artifacts, no level manifests, no pool objects, no state-database
/// progress — the real build afterwards executes exactly the planned set.
#[test]
fn dry_run_plans_without_touching_anything() {
    let root = common::tmpdir("exec-dry");
    let mut b = common::builder_in(&root);
    let products = b
        .build(
            "hello.json",
            &BuildOptions {
                dry_run: true,
                ..BuildOptions::default()
            },
        )
        .unwrap();
    let plan = products.report.executed;
    assert!(!plan.is_empty(), "a fresh workdir has tasks to plan");
    let store = ImageStore::new(&root.join("work"));
    let images = root.join("work/images");
    for dir in [images.as_path(), store.levels_dir(), store.objects_dir()] {
        let files: Vec<String> = sorted_tree(dir).into_iter().map(|(n, _)| n).collect();
        assert!(
            files.is_empty(),
            "dry run left {} untouched: {files:?}",
            dir.display()
        );
    }

    // The real build executes exactly what the dry run planned.
    let real = b.build("hello.json", &BuildOptions::default()).unwrap();
    assert_eq!(
        plan, real.report.executed,
        "the dry-run plan predicts the real build exactly"
    );

    let _ = std::fs::remove_dir_all(root);
}
