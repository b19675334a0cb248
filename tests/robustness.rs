//! Fault-tolerance integration tests: the acceptance scenarios for the
//! robustness layer. One injected failure in a ten-task graph must not
//! stop independent subtrees under `--keep-going`; corrupted state
//! databases and boot binaries must be *detected* (never a panic or a
//! silent wrong result) with `build --force` as the recovery path; and a
//! hung guest must be terminated at the instruction budget with its
//! partial UART log preserved.

mod common;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use common::rootfs_of;
use marshal_core::cli::{self, CliArgs, Command};
use marshal_core::faultinject::{FaultKind, Injector};
use marshal_core::{
    install, integrity, launch, scrub_pool, BuildOptions, ImageStore, JobKind, LaunchOptions,
    MarshalError,
};
use marshal_depgraph::{persist, ExecOptions, Fingerprint, Graph, Plan, StateDb, Task};
use marshal_image::{manifest_refs, read_level};
use marshal_sim_rtl::HardwareConfig;
use marshal_trace::Recorder;

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

/// One flipped byte in a stored level manifest — in a file's path or in
/// its exec tag — reads as damage and rebuilds the level; it never loads
/// as an image with a renamed or re-moded file.
#[test]
fn flipped_level_manifest_byte_rebuilds_the_level() {
    let root = common::tmpdir("rob-manifest-flip");
    let mut builder = common::builder_in(&root);
    let opts = BuildOptions::default();
    builder.build("hello.json", &opts).unwrap();
    let store = marshal_core::ImageStore::new(&root.join("work"));
    let exec_in = |img: &marshal_image::FsImage| {
        let walk = img.walk().into_iter();
        walk.filter(|(_, n)| matches!(n, marshal_image::Node::File { exec: true, .. }))
            .map(|(path, _)| path)
            .next()
    };
    // The first chain level (not a job image) holding an executable.
    let (level, image, exec) = std::fs::read_dir(store.levels_dir())
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.is_file() && !p.to_string_lossy().contains("job:"))
        .find_map(|p| {
            let img = store.blobs().load_image(&p).ok()?;
            let exec = exec_in(&img)?;
            Some((p, img, exec))
        })
        .expect("a level with an executable");
    let sealed = std::fs::read(&level).unwrap();
    // A manifest entry is a tag byte (1 = executable), a four-byte length
    // and the path.
    let entry = [&(exec.len() as u32).to_le_bytes()[..], exec.as_bytes()].concat();
    let at = sealed
        .windows(entry.len())
        .position(|w| w == entry)
        .unwrap();
    assert_eq!(sealed[at - 1], 1, "exec tag");
    for flip in [at + entry.len() - 1, at - 1] {
        let mut bytes = sealed.clone();
        bytes[flip] ^= 1;
        std::fs::write(&level, &bytes).unwrap();
        let err = store.blobs().load_image(&level).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let products = builder.build("hello.json", &opts).unwrap();
        assert!(products.warnings.iter().any(|w| w.code == "pool-damage"));
        let report = &products.report;
        assert!(
            report.executed.iter().any(|t| t.starts_with("img:")),
            "{report:?}"
        );
        let rebuilt = store.blobs().load_image(&level).unwrap();
        assert_eq!(rebuilt.fingerprint(), image.fingerprint());
    }
    let _ = std::fs::remove_dir_all(root);
}

/// Every artifact read is verified: a deleted `boot.bin.fp` is damage and
/// rebuilds on the next `build` (the sidecar is a declared task output),
/// and `run_installed` refuses a bit-flipped `rootfs.img` whose sidecar is
/// intact.
#[test]
fn artifact_reads_are_verified() {
    let root = common::tmpdir("rob-artifacts");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let JobKind::Linux {
        boot_path,
        disk_path: Some(disk),
    } = &products.jobs[0].kind
    else {
        panic!("hello has a boot binary and a disk");
    };
    let sidecar = integrity::sidecar_path(boot_path);
    let recorded = std::fs::read(&sidecar).unwrap();
    std::fs::remove_file(&sidecar).unwrap();
    let err = integrity::read_verified(boot_path).unwrap_err();
    assert!(matches!(err, MarshalError::Corrupt(_)), "{err:?}");
    let rebuilt = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let report = &rebuilt.report;
    assert!(
        report.ran(&format!("boot:{}", rebuilt.jobs[0].name)),
        "{report:?}"
    );
    assert_eq!(std::fs::read(&sidecar).unwrap(), recorded);

    let mut bytes = std::fs::read(disk).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(disk, &bytes).unwrap();
    let manifest = install::manifest_for(&products);
    let err = install::run_installed(&manifest, HardwareConfig::rocket(), false).unwrap_err();
    assert!(matches!(err, MarshalError::Corrupt(_)), "{err:?}");
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
            jobs: None,
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

/// Every MMAN manifest under `levels/` with its blob references.
fn level_manifests(work: &Path) -> Vec<(PathBuf, Vec<Fingerprint>)> {
    let store = ImageStore::new(work);
    let mut out = Vec::new();
    for entry in std::fs::read_dir(store.levels_dir()).expect("levels dir") {
        let path = entry.expect("dir entry").path();
        if !path.is_file() {
            continue;
        }
        let bytes = read_level(&path).expect("read manifest");
        out.push((path, manifest_refs(&bytes).expect("parse manifest")));
    }
    out
}

/// Satellite: a torn (half-written) level manifest is detected on the next
/// build's preflight and the level rebuilds — no panic, no wedged workdir.
#[test]
fn torn_manifest_triggers_level_rebuild_not_panic() {
    let root = common::tmpdir("srv-torn");
    let mut b = common::builder_in(&root);
    b.build("hello.json", &BuildOptions::default()).unwrap();

    let work = root.join("work");
    let (path, _) = level_manifests(&work)
        .into_iter()
        .find(|(p, _)| {
            // A chain-level manifest, not the final job image's
            // (`job:<name>-…`): the satellite is about *level* rebuilds.
            !p.file_name()
                .map(|n| n.to_string_lossy().starts_with("job:"))
                .unwrap_or(false)
        })
        .expect("a chain-level manifest to tear");
    let mut inj = Injector::new(0x70c4);
    inj.tear_image_write(&path).unwrap();

    let products = b.build("hello.json", &BuildOptions::default()).unwrap();
    assert!(
        products
            .warnings
            .iter()
            .any(|w| w.to_string().contains("torn")),
        "preflight reports the torn manifest: {:?}",
        products.warnings
    );
    assert!(
        products
            .report
            .executed
            .iter()
            .any(|t| t.starts_with("img:")),
        "the owning level re-ran: {:?}",
        products.report.executed
    );
    // And the workdir is whole again.
    let scrub = scrub_pool(&work, &Recorder::disabled()).unwrap();
    assert_eq!(scrub.corrupt, 0);
    assert_eq!(scrub.manifests_removed, 0);
    let _ = std::fs::remove_dir_all(root);
}

/// Satellite: a corrupt pool blob under `--keep-going` poisons only the
/// affected job's cone — the bad blob is quarantined, the independent job
/// completes, and the next ordinary build self-heals by rebuilding the
/// affected levels.
#[test]
fn corrupt_pool_poisons_only_affected_cone_under_keep_going() {
    let root = common::tmpdir("srv-cone");
    let mut b = common::builder_in(&root);
    let products = b
        .build("latency-microbenchmark.json", &BuildOptions::default())
        .unwrap();
    let client_rootfs = rootfs_of(&products, "client");

    // Rot a blob every chain manifest references (base-image content
    // survives the whole inheritance chain), and drop the client's flat
    // rootfs so its image task re-runs and actually loads the chain.
    let work = root.join("work");
    let manifests = level_manifests(&work);
    let shared: BTreeSet<Fingerprint> = manifests
        .iter()
        .map(|(_, refs)| refs.iter().copied().collect::<BTreeSet<_>>())
        .reduce(|a, b| a.intersection(&b).copied().collect())
        .expect("manifests exist");
    let fp = *shared.iter().next().expect("a blob shared by every level");
    let store = ImageStore::new(&work);
    std::fs::write(store.blobs().blob_path(fp), b"rotted shared blob").unwrap();
    std::fs::remove_file(&client_rootfs).unwrap();

    let products = b
        .build(
            "latency-microbenchmark.json",
            &BuildOptions {
                keep_going: true,
                ..BuildOptions::default()
            },
        )
        .unwrap();
    let report = &products.report;
    assert_eq!(
        report.failed.len(),
        1,
        "exactly the loading task fails: {:?}",
        report.failed
    );
    assert!(
        report.failed[0].0.contains("client"),
        "the client's image task failed: {:?}",
        report.failed
    );
    assert!(
        report.poisoned.iter().all(|t| t.contains("client")),
        "only the client's cone is poisoned: {:?}",
        report.poisoned
    );
    assert!(
        !report
            .failed
            .iter()
            .map(|(t, _)| t)
            .chain(report.poisoned.iter())
            .any(|t| t.contains("server")),
        "the independent server job is untouched"
    );
    assert!(
        store.blobs().quarantine_dir().is_dir(),
        "the rotted blob was quarantined"
    );

    // An ordinary follow-up build rebuilds the affected levels and fully
    // recovers — preflight removes manifests left pointing at the
    // quarantined blob before any task runs.
    let products = b
        .build("latency-microbenchmark.json", &BuildOptions::default())
        .unwrap();
    assert!(products.report.failed.is_empty() && products.report.poisoned.is_empty());
    assert!(
        products
            .warnings
            .iter()
            .any(|w| w.to_string().contains("missing from the pool")),
        "preflight explains the rebuild: {:?}",
        products.warnings
    );
    assert!(client_rootfs.exists(), "the client artifact is back");
    let scrub = scrub_pool(&work, &Recorder::disabled()).unwrap();
    assert_eq!(scrub.corrupt, 0, "the pool is whole again");
    let _ = std::fs::remove_dir_all(root);
}

/// A workdir from before artifact serving was retired still holds the
/// `levels/by-input/` index. Nothing reads, counts or rewrites it any more:
/// `build`, `scrub` and `clean` succeed around it, `scrub` counts the
/// manifests in `levels/` alone, and the old files stay until removed by
/// hand.
#[test]
fn a_leftover_levels_index_is_ignored() {
    let root = common::tmpdir("old-index");
    let (code, log) = common::run_cli(&root, &["build", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    let work = root.join("work");
    let levels = level_manifests(&work);
    let (path, _) = &levels[0];
    let manifest = read_level(path).unwrap();
    let index = work.join("levels/by-input");
    let planted = index.join(format!("{}.man", Fingerprint::of(b"an old level input")));
    persist::write_sealed(&planted, &manifest).unwrap();
    let before = common::sorted_tree(&index);

    let (code, log) = common::run_cli(&root, &["build", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    assert!(log.iter().any(|l| l.contains(" 0 task(s) run")), "{log:?}");
    let (code, log) = common::run_cli(&root, &["scrub"]);
    assert_eq!(code, 0, "{log:?}");
    let checked = format!("{} manifest(s) checked", levels.len());
    assert!(log.iter().any(|l| l.contains(&checked)), "{log:?}");
    let (code, log) = common::run_cli(&root, &["clean", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    assert_eq!(
        common::sorted_tree(&index),
        before,
        "the old index is untouched"
    );
    let _ = std::fs::remove_dir_all(root);
}
