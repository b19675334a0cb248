//! Fault-tolerance integration tests: the acceptance scenarios for the
//! robustness layer. One injected failure in a ten-task graph must not
//! stop independent subtrees under `--keep-going`; corrupted state
//! databases and boot binaries must be *detected* (never a panic or a
//! silent wrong result) with `build --force` as the recovery path; and a
//! hung guest must be terminated at the instruction budget with its
//! partial UART log preserved.

mod common;

use std::sync::{Arc, Mutex};

use marshal_core::cli::{self, CliArgs, Command};
use marshal_core::faultinject::{FaultKind, Injector};
use marshal_core::{launch, BuildOptions, LaunchOptions, MarshalError};
use marshal_depgraph::{ExecOptions, Graph, Plan, StateDb, Task};

/// A ten-task graph with one injected failure. Shape:
///
/// ```text
///   a ── b ── c ── bad ── e ── f        (cone: bad, e, f)
///   a ── g ── h                         (independent of the failure)
///   i ── j                              (fully independent subtree)
/// ```
#[test]
fn keep_going_with_injected_failure_in_ten_task_graph() {
    let ran: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let ok = |id: &'static str, ran: &Arc<Mutex<Vec<String>>>| {
        let ran = Arc::clone(ran);
        Task::new(id, move || {
            ran.lock().unwrap().push(id.to_owned());
            Ok(())
        })
    };
    let mut g = Graph::new();
    g.add(ok("a", &ran)).unwrap();
    g.add(ok("b", &ran).dep("a")).unwrap();
    g.add(ok("c", &ran).dep("b")).unwrap();
    g.add(Task::new("bad", || Err("injected fault".to_owned())).dep("c"))
        .unwrap();
    g.add(ok("e", &ran).dep("bad")).unwrap();
    g.add(ok("f", &ran).dep("e")).unwrap();
    g.add(ok("g", &ran).dep("a")).unwrap();
    g.add(ok("h", &ran).dep("g")).unwrap();
    g.add(ok("i", &ran)).unwrap();
    g.add(ok("j", &ran).dep("i")).unwrap();

    for threads in [1, 4] {
        ran.lock().unwrap().clear();
        let mut db = StateDb::in_memory();
        let opts = ExecOptions {
            keep_going: true,
            ..ExecOptions::default()
        };
        let report = g.execute(&mut db, Plan::local(threads), &opts).unwrap();

        // Everything outside the failure's dependent cone executed...
        let mut executed = report.executed.clone();
        executed.sort();
        assert_eq!(executed, vec!["a", "b", "c", "g", "h", "i", "j"]);
        // ...and the report lists exactly the failed + poisoned tasks.
        assert_eq!(
            report.failed,
            vec![("bad".to_owned(), "injected fault".to_owned())]
        );
        let mut poisoned = report.poisoned.clone();
        poisoned.sort();
        assert_eq!(poisoned, vec!["e", "f"]);
        assert!(!report.success());
        assert_eq!(report.total(), 10);
        // Poisoned tasks were never attempted.
        assert!(!ran.lock().unwrap().iter().any(|t| t == "e" || t == "f"));
    }
}

#[test]
fn corrupted_state_db_quarantines_and_rebuilds() {
    let root = common::tmpdir("rob-statedb");
    let mut builder = common::builder_in(&root);
    builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    drop(builder);

    let db_path = root.join("work").join("state.db");
    assert!(db_path.exists(), "build must persist its state db");
    let mut inj = Injector::new(0x5eed);
    inj.corrupt_file(&db_path, FaultKind::Truncate).unwrap();

    // Reopening never panics or hard-errors: the damaged file is
    // quarantined, the builder reports the recovery, and the workload
    // rebuilds from a cold cache.
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    if let Some(note) = builder.state_recovery() {
        assert!(note.contains("quarantined"), "{note}");
        assert!(db_path.with_extension("db.corrupt").exists());
        assert!(!products.report.executed.is_empty(), "cold cache rebuilds");
    } else {
        // The injected truncation happened to leave a valid prefix — the
        // surviving entries must then be genuinely intact (no silent
        // acceptance of garbage), which StateDb::open's checksum verifies.
        assert!(products.report.success());
    }
    let run = launch::launch_workload(&builder, &products, &LaunchOptions::default()).unwrap();
    assert!(run.jobs[0].serial.contains("Hello from FireMarshal!"));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn interrupted_build_rebuilds_the_torn_task() {
    // A crash *between* a task's in-progress mark and its completion must
    // make the next run rebuild that task: its outputs may be torn, and its
    // recorded fingerprint (from an earlier build) cannot vouch for them.
    let root = common::tmpdir("rob-interrupt");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let job_name = products.jobs[0].name.clone();
    let boot_task = format!("boot:{job_name}");
    let boot_path = match &products.jobs[0].kind {
        marshal_core::JobKind::Linux { boot_path, .. } => boot_path.clone(),
        marshal_core::JobKind::Bare { bin_path } => bin_path.clone(),
    };
    drop(builder);

    // Simulate the crash: the scheduler flushes an in-progress mark right
    // before running a task; a crash mid-action leaves the mark behind and
    // the artifact torn.
    let db_path = root.join("work").join("state.db");
    let mut db = StateDb::open(&db_path).unwrap();
    db.mark_in_progress(boot_task.clone());
    db.flush().unwrap();
    let mut inj = Injector::new(0x70_42);
    inj.corrupt_file(&boot_path, FaultKind::Truncate).unwrap();

    // The next run warns about the interruption, re-executes exactly the
    // marked task, and produces a launchable artifact. Without the dirty
    // marking, the stale fingerprint plus the still-existing (torn) file
    // would skip the task and the launch would fail verification.
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    assert!(
        products
            .warnings
            .iter()
            .any(|w| w.context == boot_task && w.message.contains("interrupted")),
        "interruption surfaced as a structured warning: {:?}",
        products.warnings
    );
    assert!(
        products.report.ran(&boot_task),
        "torn task re-executed: {:?}",
        products.report
    );
    let run = launch::launch_workload(&builder, &products, &LaunchOptions::default()).unwrap();
    assert!(run.jobs[0].serial.contains("Hello from FireMarshal!"));

    // A further clean build carries no leftover marks or warnings.
    drop(builder);
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    assert!(products.warnings.is_empty(), "{:?}", products.warnings);
    assert!(products.report.executed.is_empty(), "everything up to date");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn torn_guest_init_image_recovers_on_rebuild() {
    // Mid-run guest state: a crash during the guest-init image flush leaves
    // a torn level image (intact header, missing tail) plus the scheduler's
    // in-progress mark. The next build must re-run the guest-init level
    // from its parent, and the recovered image must carry the done marker —
    // never the started scar — so the one-shot init stays idempotent.
    let root = common::tmpdir("rob-guestinit");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("onnx-infer.json", &BuildOptions::default())
        .unwrap();
    let img_task = products
        .report
        .executed
        .iter()
        .find(|t| t.starts_with("img:") && t.ends_with("/onnx-infer"))
        .expect("guest-init level task in the report")
        .clone();
    drop(builder);

    // The guest-init level's stored image lives in work/levels and is named
    // after the level (`onnx-infer-<fingerprint>.img`).
    let levels = root.join("work").join("levels");
    let img_path = std::fs::read_dir(&levels)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("onnx-infer-"))
        })
        .expect("level image for the guest-init level");

    // Simulate the crash: in-progress mark flushed, then the image write
    // torn partway through.
    let db_path = root.join("work").join("state.db");
    let mut db = StateDb::open(&db_path).unwrap();
    db.mark_in_progress(img_task.clone());
    db.flush().unwrap();
    drop(db);
    let mut inj = Injector::new(0x6e57_1217);
    let fault = inj.tear_image_write(&img_path).unwrap();
    assert!(fault.offset < fault.original_len, "tail was torn off");

    // Recovery: the next build surfaces the interruption, re-executes the
    // guest-init level, and the workload launches cleanly.
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("onnx-infer.json", &BuildOptions::default())
        .unwrap();
    assert!(
        products
            .warnings
            .iter()
            .any(|w| w.context == img_task && w.message.contains("interrupted")),
        "interruption surfaced as a structured warning: {:?}",
        products.warnings
    );
    assert!(
        products.report.ran(&img_task),
        "torn guest-init level re-executed: {:?}",
        products.report
    );

    // The recovered level image parses again and shows a *completed*
    // guest-init: done marker present, started scar gone. Levels are MMAN
    // manifests, so loading goes through the workdir's blob store.
    let store = marshal_image::BlobStore::new(root.join("work").join("objects"));
    let recovered = store.load_image(&img_path).unwrap();
    assert!(recovered.exists(marshal_image::initsys::GUEST_INIT_DONE));
    assert!(
        !marshal_image::initsys::guest_init_interrupted(&recovered),
        "no started scar survives a successful re-run"
    );

    // Idempotency end to end: the relaunched workload does not replay the
    // one-shot init (the done marker gates it) but keeps its effects.
    let run = launch::launch_workload(&builder, &products, &LaunchOptions::default()).unwrap();
    let serial = &run.jobs[0].serial;
    assert!(
        !serial.contains("running one-shot guest-init"),
        "guest-init must not replay at launch: {serial}"
    );
    assert!(serial.contains("onnx-infer checksum:"), "{serial}");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn corrupted_boot_binary_detected_and_force_recovers() {
    let root = common::tmpdir("rob-artifact");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let artifact = match &products.jobs[0].kind {
        marshal_core::JobKind::Linux { boot_path, .. } => boot_path.clone(),
        marshal_core::JobKind::Bare { bin_path } => bin_path.clone(),
    };

    let mut inj = Injector::new(0xfa_17);
    inj.corrupt_file(&artifact, FaultKind::BitFlip).unwrap();

    // Detection: an actionable Corrupt error, not a boot failure.
    let err = launch::launch_workload(&builder, &products, &LaunchOptions::default()).unwrap_err();
    let MarshalError::Corrupt(msg) = err else {
        panic!("expected Corrupt, got {err:?}");
    };
    assert!(msg.contains("--force"), "actionable message: {msg}");

    // Recovery: `build --force` rewrites the artifact and its checksum.
    let products = builder
        .build(
            "hello.json",
            &BuildOptions {
                force: true,
                ..Default::default()
            },
        )
        .unwrap();
    let run = launch::launch_workload(&builder, &products, &LaunchOptions::default()).unwrap();
    assert!(run.jobs[0].serial.contains("Hello from FireMarshal!"));
    assert!(!run.jobs[0].timed_out);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn hung_guest_terminates_at_budget_with_partial_uartlog() {
    let root = common::tmpdir("rob-watchdog");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();

    // An absurdly small budget makes even a healthy payload look hung —
    // exactly what a real hang looks like from outside the guest.
    let opts = LaunchOptions {
        timeout_insts: Some(1),
        ..LaunchOptions::default()
    };
    let run = launch::launch_workload(&builder, &products, &opts).unwrap();
    let job = &run.jobs[0];
    assert!(job.timed_out);
    assert!(job
        .serial
        .contains("watchdog: instruction budget exhausted"));
    // The partial UART log (boot messages and all) was salvaged to disk.
    let uartlog = std::fs::read_to_string(job.job_dir.join("uartlog")).unwrap();
    assert!(uartlog.contains("OpenSBI"), "boot log salvaged: {uartlog}");
    assert!(uartlog.contains("watchdog"));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn cli_launch_surfaces_timeout_exit_code() {
    let root = common::tmpdir("rob-cli");
    let setup = marshal_workloads::setup(&root).unwrap();
    let args = CliArgs {
        search_dirs: vec![],
        workdir: root.join("work").to_string_lossy().into_owned(),
        verbose: false,
        command: Command::Launch {
            workload: "hello.json".to_owned(),
            job: None,
            timeout_insts: Some(1),
            sim: None,
            hw: None,
            no_checkpoint: false,
        },
    };
    let (code, log) = cli::run_command(&args, setup.board, setup.search);
    assert_eq!(code, cli::EXIT_TIMED_OUT);
    assert!(
        log.iter().any(|l| l.contains("TIMED OUT")),
        "diagnostic in log: {log:?}"
    );
    let _ = std::fs::remove_dir_all(root);
}
