//! Integration tests for the event-channel executor: `--runners` remote
//! execution against real `marshal serve --exec` daemons over TCP, worker
//! death mid-build (survivors pick up the slack, or the build degrades to
//! local with a structured warning), and `--dry-run` planning.

mod common;

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Duration;

use common::{rootfs_of, sorted_tree, spawn_exec_server};
use marshal_core::{serve_exec_handler, BuildOptions, ImageStore};
use marshal_netstore::server::ExecHandler;
use marshal_netstore::Server;

fn assert_stores_match(a: &Path, b: &Path, context: &str) {
    for sub in ["levels", "objects"] {
        let ta = sorted_tree(&a.join("work").join(sub));
        let tb = sorted_tree(&b.join("work").join(sub));
        assert_eq!(
            ta.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            tb.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            "{context}: {sub}/ file sets differ"
        );
        for ((name, ca), (_, cb)) in ta.iter().zip(tb.iter()) {
            assert_eq!(
                marshal_depgraph::Fingerprint::of(ca),
                marshal_depgraph::Fingerprint::of(cb),
                "{context}: {sub}/{name} differs"
            );
        }
    }
}

/// Two healthy exec daemons: the client's level builds run remotely, the
/// fetched results land bit-identical to an all-local build, and no
/// degradation warning is emitted.
#[test]
fn two_exec_workers_match_local_build_bit_for_bit() {
    let local_root = common::tmpdir("exec-2w-local");
    let mut l = common::builder_in(&local_root);
    let products_l = l.build("hello.json", &BuildOptions::default()).unwrap();

    let d1 = common::tmpdir("exec-2w-d1");
    let d2 = common::tmpdir("exec-2w-d2");
    let (a1, h1, j1) = spawn_exec_server(&d1);
    let (a2, h2, j2) = spawn_exec_server(&d2);

    let client_root = common::tmpdir("exec-2w-client");
    let mut c = common::builder_in(&client_root);
    let products_c = c
        .build(
            "hello.json",
            &BuildOptions {
                runners: Some(format!("remote:{a1},remote:{a2}")),
                ..BuildOptions::default()
            },
        )
        .unwrap();

    assert!(
        !products_c.report.executed.is_empty(),
        "a fresh workdir executes its tasks"
    );
    assert!(
        products_c
            .warnings
            .iter()
            .all(|w| !w.to_string().contains("remote-runner")),
        "healthy daemons produce no degradation warnings: {:?}",
        products_c.warnings
    );

    // Remote execution must be invisible in the artifacts.
    assert_eq!(
        std::fs::read(rootfs_of(&products_l, "hello")).unwrap(),
        std::fs::read(rootfs_of(&products_c, "hello")).unwrap(),
        "remote-executed and local root filesystems are bit-identical"
    );
    assert_stores_match(&local_root, &client_root, "remote vs local");

    h1.shutdown();
    h2.shutdown();
    let s1 = j1.join().expect("daemon 1");
    let s2 = j2.join().expect("daemon 2");
    assert!(
        s1.requests + s2.requests >= 1,
        "at least one task was actually served remotely: {s1:?} {s2:?}"
    );

    for r in [local_root, client_root, d1, d2] {
        let _ = std::fs::remove_dir_all(r);
    }
}

/// One worker is dead from the start (connection refused); the surviving
/// worker and the implicit local fallback complete the build, and the dead
/// worker surfaces as a structured `remote-runner` warning.
#[test]
fn dead_worker_is_survived_and_reported() {
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let d1 = common::tmpdir("exec-dead-d1");
    let (a1, h1, j1) = spawn_exec_server(&d1);

    let client_root = common::tmpdir("exec-dead-client");
    let mut c = common::builder_in(&client_root);
    let products = c
        .build(
            "hello.json",
            &BuildOptions {
                runners: Some(format!("remote:{dead_addr},remote:{a1}")),
                ..BuildOptions::default()
            },
        )
        .unwrap();

    assert!(
        products.report.failed.is_empty() && products.report.poisoned.is_empty(),
        "a dead worker never fails the build: {:?}",
        products.report
    );
    assert!(
        products
            .warnings
            .iter()
            .any(|w| w.to_string().contains("fell back to local execution")),
        "the dead worker surfaces as a structured warning: {:?}",
        products.warnings
    );

    h1.shutdown();
    let s1 = j1.join().expect("surviving daemon");
    assert!(
        s1.requests >= 1,
        "the survivor picked up work after the dead worker retired: {s1:?}"
    );

    let _ = std::fs::remove_dir_all(d1);
    let _ = std::fs::remove_dir_all(client_root);
}

/// The only worker is killed mid-build — right after it finishes its first
/// task. The client falls back to local execution for everything else, the
/// build completes bit-identical to an all-local build, and the death is
/// reported as a structured warning.
#[test]
fn worker_killed_mid_build_degrades_gracefully() {
    let local_root = common::tmpdir("exec-kill-local");
    let mut l = common::builder_in(&local_root);
    let products_l = l.build("hello.json", &BuildOptions::default()).unwrap();

    let d = common::tmpdir("exec-kill-d");
    let setup = marshal_workloads::setup(&d).expect("materialise workloads");
    let work = d.join("work");
    let inner = serve_exec_handler(setup.board, setup.search, &work).expect("exec handler");
    let mut server = Server::bind("127.0.0.1:0", &work, Duration::from_secs(5)).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle().expect("handle");
    // Wrap the handler so the daemon shuts down immediately after serving
    // its first exec: the reply still goes out, but every later request
    // (including the level fetch that follows) finds a dead daemon.
    let trigger = handle.clone();
    let wrapped: ExecHandler = std::sync::Arc::new(move |task: &str, spec: &[u8]| {
        let result = inner(task, spec);
        trigger.shutdown();
        result
    });
    server.set_exec_handler(wrapped);
    let join = std::thread::spawn(move || server.run());

    let client_root = common::tmpdir("exec-kill-client");
    let mut c = common::builder_in(&client_root);
    let products = c
        .build(
            "hello.json",
            &BuildOptions {
                runners: Some(format!("remote:{addr}")),
                ..BuildOptions::default()
            },
        )
        .unwrap();

    assert!(
        products.report.failed.is_empty() && products.report.poisoned.is_empty(),
        "losing the worker mid-build never fails the build: {:?}",
        products.report
    );
    assert!(
        products
            .warnings
            .iter()
            .any(|w| w.to_string().contains("fell back to local execution")),
        "the mid-build death surfaces as a structured warning: {:?}",
        products.warnings
    );

    // Degraded or not, the artifacts are the same bytes.
    assert_eq!(
        std::fs::read(rootfs_of(&products_l, "hello")).unwrap(),
        std::fs::read(rootfs_of(&products, "hello")).unwrap(),
        "degraded and local builds are bit-identical"
    );
    assert_stores_match(&local_root, &client_root, "degraded vs local");

    handle.shutdown();
    join.join().expect("daemon thread");
    for r in [local_root, client_root, d] {
        let _ = std::fs::remove_dir_all(r);
    }
}

/// `--dry-run` reports the full task plan without executing anything: no
/// level manifests, no pool objects, no job artifacts, no state-database
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
    let plan = products.dry_run.expect("dry-run builds report a plan");
    assert!(!plan.is_empty(), "a fresh workdir has tasks to plan");
    for t in &plan {
        for out in &t.outputs {
            assert!(
                !out.exists(),
                "dry run must not write planned output {} (task `{}`)",
                out.display(),
                t.id
            );
        }
    }
    let store = ImageStore::new(&root.join("work"));
    for dir in [store.levels_dir(), store.objects_dir()] {
        let files: Vec<String> = sorted_tree(dir).into_iter().map(|(n, _)| n).collect();
        assert!(
            files.is_empty(),
            "dry run left {} untouched: {files:?}",
            dir.display()
        );
    }

    // The real build executes exactly what the dry run planned.
    let real = b.build("hello.json", &BuildOptions::default()).unwrap();
    assert!(real.dry_run.is_none(), "real builds report no plan");
    let planned: BTreeSet<String> = plan.into_iter().map(|t| t.id).collect();
    let executed: BTreeSet<String> = real.report.executed.iter().cloned().collect();
    assert_eq!(
        planned, executed,
        "the dry-run plan predicts the real build exactly"
    );

    let _ = std::fs::remove_dir_all(root);
}
