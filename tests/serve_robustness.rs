//! Integration tests for resilient artifact distribution: `marshal serve`
//! over real TCP, the fetch-before-build client, retry/backoff and
//! circuit-breaker degradation, wire-level chaos per [`NetFaultKind`], a
//! lying server, pool scrub self-healing, and the corrupt-pool /
//! torn-manifest recovery paths a distribution layer must survive.

mod common;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use marshal_core::cli::{self, CliArgs, Command};
use marshal_core::faultinject::Injector;
use marshal_core::{scrub_pool, BuildOptions, ImageStore, JobKind};
use marshal_depgraph::Fingerprint;
use marshal_image::{manifest_refs, sniff_manifest};
use marshal_netstore::server::ServeRoot;
use marshal_netstore::{
    decode_frame, encode_frame, FaultPlan, FaultTransport, LoopbackTransport, Message, NetError,
    NetFaultKind, RemoteStore, RetryPolicy, Server, Transport,
};
use marshal_trace::Recorder;

/// Starts a daemon exporting `workdir` on an ephemeral local port, and
/// returns the address plus a handle/join pair for shutdown.
fn spawn_server(
    workdir: &Path,
) -> (
    String,
    marshal_netstore::ServerHandle,
    std::thread::JoinHandle<marshal_netstore::ServeSummary>,
) {
    let server = Server::bind("127.0.0.1:0", workdir, Duration::from_secs(5)).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
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
        let bytes = std::fs::read(&path).expect("read manifest");
        if sniff_manifest(&bytes) {
            out.push((path, manifest_refs(&bytes).expect("parse manifest")));
        }
    }
    out
}

fn rootfs_of(products: &marshal_core::BuildProducts, name_contains: &str) -> PathBuf {
    products
        .jobs
        .iter()
        .find_map(|j| match &j.kind {
            JobKind::Linux {
                disk_path: Some(p), ..
            } if j.name.contains(name_contains) => Some(p.clone()),
            _ => None,
        })
        .expect("linux job with a disk image")
}

/// A second workdir cold-populates every level over real TCP: zero local
/// level builds, bit-identical artifacts, and a drained daemon afterwards.
#[test]
fn cold_populate_over_tcp_builds_no_levels_locally() {
    let root_a = common::tmpdir("srv-cold-a");
    let mut a = common::builder_in(&root_a);
    let products_a = a.build("hello.json", &BuildOptions::default()).unwrap();
    drop(a);

    let (addr, handle, join) = spawn_server(&root_a.join("work"));

    let root_b = common::tmpdir("srv-cold-b");
    let mut b = common::builder_in(&root_b);
    let products_b = b
        .build(
            "hello.json",
            &BuildOptions {
                remote: Some(addr),
                ..BuildOptions::default()
            },
        )
        .unwrap();

    let summary = products_b.remote.expect("remote summary");
    assert!(
        summary.levels_fetched >= 1,
        "levels came from the daemon: {summary:?}"
    );
    assert_eq!(
        summary.levels_built_locally, 0,
        "a cold populate builds no levels locally: {summary:?}"
    );
    assert!(summary.blobs_fetched >= 1 && summary.bytes_fetched > 0);
    assert!(!summary.degraded);
    assert_eq!(summary.blobs_quarantined, 0);

    // Distribution must not change what gets built.
    assert_eq!(
        std::fs::read(rootfs_of(&products_a, "hello")).unwrap(),
        std::fs::read(rootfs_of(&products_b, "hello")).unwrap(),
        "fetched and locally-built root filesystems are bit-identical"
    );

    handle.shutdown();
    let serve = join.join().expect("server thread");
    assert!(serve.connections >= 1, "daemon saw the client: {serve:?}");
    assert!(serve.requests > 0);
    assert_eq!(serve.bad_frames, 0);

    let _ = std::fs::remove_dir_all(root_a);
    let _ = std::fs::remove_dir_all(root_b);
}

/// A dead daemon (connection refused) degrades the build to local-only:
/// the build still succeeds, the breaker trips once, and the CLI exits 0
/// with a warning rather than hanging or hard-failing.
#[test]
fn dead_daemon_degrades_to_local_build() {
    // Grab a port that is guaranteed closed by binding and dropping it.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };

    let root = common::tmpdir("srv-dead");
    let mut b = common::builder_in(&root);
    let products = b
        .build(
            "hello.json",
            &BuildOptions {
                remote: Some(dead_addr.clone()),
                ..BuildOptions::default()
            },
        )
        .unwrap();
    let summary = products.remote.expect("remote summary");
    assert!(summary.degraded, "breaker tripped: {summary:?}");
    assert_eq!(summary.levels_fetched, 0);
    assert!(
        summary.levels_built_locally >= 1,
        "every level built locally: {summary:?}"
    );
    assert!(summary.retries >= 1, "the client did retry: {summary:?}");
    assert!(
        products
            .warnings
            .iter()
            .any(|w| w.to_string().contains("local-only")),
        "degradation surfaces as a structured warning: {:?}",
        products.warnings
    );

    // Same story through the CLI: exit 0, warning in the log.
    let root2 = common::tmpdir("srv-dead-cli");
    let setup = marshal_workloads::setup(&root2).unwrap();
    let args = CliArgs {
        search_dirs: vec![],
        workdir: root2.join("work").to_string_lossy().into_owned(),
        verbose: false,
        command: Command::Build {
            workload: "hello.json".to_owned(),
            no_disk: false,
            force: false,
            keep_going: false,
            jobs: None,
            remote: Some(dead_addr),
            runners: None,
            dry_run: false,
            progress: false,
        },
    };
    let (code, log) = cli::run_command(&args, setup.board, setup.search);
    assert_eq!(code, 0, "degraded build exits 0: {log:?}");
    assert!(
        log.iter().any(|l| l.contains("degraded to local-only")),
        "CLI reports the degradation: {log:?}"
    );

    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(root2);
}

/// Builds a RemoteStore whose every connection runs through a
/// [`FaultTransport`] sharing `plan`, answering from `root` in process.
fn chaos_client(root: Arc<ServeRoot>, plan: FaultPlan, label: &str) -> RemoteStore {
    let factory: marshal_netstore::client::TransportFactory = Box::new(move || {
        Ok(Box::new(FaultTransport::new(
            LoopbackTransport::new(Arc::clone(&root)),
            plan.clone(),
        )) as Box<dyn Transport>)
    });
    RemoteStore::with_factory(label, factory, RetryPolicy::fast())
}

/// Chaos sweep: for every wire fault kind, a bounded burst of faults is
/// absorbed by retries (full fetch, no degradation), and a permanent fault
/// trips the breaker and degrades gracefully — in both cases the build
/// succeeds and the pool stays scrub-clean.
#[test]
fn every_net_fault_kind_retries_or_degrades() {
    let root_a = common::tmpdir("srv-chaos-a");
    let mut a = common::builder_in(&root_a);
    a.build("hello.json", &BuildOptions::default()).unwrap();
    drop(a);
    let serve_root = Arc::new(ServeRoot::new(&root_a.join("work")));

    let mut inj = Injector::new(0xc4a0);
    for kind in NetFaultKind::ALL {
        // --- bounded burst: retries absorb it ----------------------------
        let plan = inj.net_plan(kind, 1, 2);
        let root_b = common::tmpdir(&format!("srv-chaos-burst-{kind:?}"));
        let mut b = common::builder_in(&root_b);
        b.set_remote_client(Arc::new(chaos_client(
            Arc::clone(&serve_root),
            plan.clone(),
            &format!("chaos-burst-{kind:?}"),
        )));
        let products = b.build("hello.json", &BuildOptions::default()).unwrap();
        let summary = products.remote.expect("remote summary");
        assert!(plan.injected() >= 1, "{kind:?}: the plan actually fired");
        assert!(
            summary.levels_fetched >= 1 && summary.levels_built_locally == 0,
            "{kind:?}: bounded faults are retried through: {summary:?}"
        );
        assert!(summary.retries >= 1, "{kind:?}: retries happened");
        assert!(!summary.degraded, "{kind:?}: breaker stays closed");
        let scrub = scrub_pool(&root_b.join("work"), None, &Recorder::disabled()).unwrap();
        assert_eq!(scrub.corrupt, 0, "{kind:?}: pool is clean after chaos");
        let _ = std::fs::remove_dir_all(root_b);

        // --- permanent fault: breaker opens, build degrades --------------
        let plan = FaultPlan::always(kind, 0x5eed);
        let root_c = common::tmpdir(&format!("srv-chaos-always-{kind:?}"));
        let mut c = common::builder_in(&root_c);
        c.set_remote_client(Arc::new(chaos_client(
            Arc::clone(&serve_root),
            plan,
            &format!("chaos-always-{kind:?}"),
        )));
        let products = c.build("hello.json", &BuildOptions::default()).unwrap();
        let summary = products.remote.expect("remote summary");
        assert!(summary.degraded, "{kind:?}: breaker tripped: {summary:?}");
        assert_eq!(summary.levels_fetched, 0, "{kind:?}");
        assert!(summary.levels_built_locally >= 1, "{kind:?}");
        let scrub = scrub_pool(&root_c.join("work"), None, &Recorder::disabled()).unwrap();
        assert_eq!(scrub.corrupt, 0, "{kind:?}: nothing corrupt installed");
        let _ = std::fs::remove_dir_all(root_c);
    }
    let _ = std::fs::remove_dir_all(root_a);
}

/// A transport whose replies carry blobs with flipped payload bytes inside
/// perfectly valid frames — a lying (or silently rotting) server that only
/// end-to-end hash verification can catch.
struct LyingTransport {
    inner: LoopbackTransport,
}

impl Transport for LyingTransport {
    fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, NetError> {
        let reply = self.inner.exchange(frame)?;
        if let Ok(Message::Blobs { mut entries }) = decode_frame(&reply) {
            for (_, payload) in &mut entries {
                if let Some(first) = payload.as_mut().and_then(|b| b.first_mut()) {
                    *first ^= 0xFF;
                }
            }
            return Ok(encode_frame(&Message::Blobs { entries }));
        }
        Ok(reply)
    }
}

/// Corrupt blob payloads inside valid frames are quarantined, re-fetched
/// exactly once, and never installed into the pool; the build falls back
/// to local and still succeeds.
#[test]
fn lying_server_blobs_quarantined_never_installed() {
    let root_a = common::tmpdir("srv-liar-a");
    let mut a = common::builder_in(&root_a);
    a.build("hello.json", &BuildOptions::default()).unwrap();
    drop(a);
    let serve_root = Arc::new(ServeRoot::new(&root_a.join("work")));

    let factory: marshal_netstore::client::TransportFactory = Box::new(move || {
        Ok(Box::new(LyingTransport {
            inner: LoopbackTransport::new(Arc::clone(&serve_root)),
        }) as Box<dyn Transport>)
    });
    let client = RemoteStore::with_factory("liar", factory, RetryPolicy::fast());

    let root_b = common::tmpdir("srv-liar-b");
    let mut b = common::builder_in(&root_b);
    b.set_remote_client(Arc::new(client));
    let products = b.build("hello.json", &BuildOptions::default()).unwrap();

    let summary = products.remote.expect("remote summary");
    assert!(
        summary.blobs_quarantined >= 1,
        "lying payloads were caught: {summary:?}"
    );
    assert!(
        summary.levels_built_locally >= 1,
        "the build fell back to local levels: {summary:?}"
    );

    let work_b = root_b.join("work");
    let store = ImageStore::new(&work_b);
    let qdir = store.blobs().quarantine_dir();
    let received: Vec<_> = std::fs::read_dir(&qdir)
        .expect("quarantine dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".recv.blob"))
        .collect();
    assert!(
        !received.is_empty(),
        "received corrupt bytes kept as evidence in {}",
        qdir.display()
    );

    // Nothing corrupt ever entered objects/ itself.
    let scrub = scrub_pool(&work_b, None, &Recorder::disabled()).unwrap();
    assert_eq!(scrub.corrupt, 0);
    assert_eq!(scrub.unrecoverable, 0);

    let _ = std::fs::remove_dir_all(root_a);
    let _ = std::fs::remove_dir_all(root_b);
}

/// `scrub` detects injected pool corruption, quarantines the bytes, heals
/// live blobs from a daemon over real TCP, and leaves the workdir fully
/// up to date.
#[test]
fn scrub_detects_and_heals_from_remote() {
    let root_a = common::tmpdir("srv-scrub-a");
    let mut a = common::builder_in(&root_a);
    a.build("hello.json", &BuildOptions::default()).unwrap();
    drop(a);

    let root_b = common::tmpdir("srv-scrub-b");
    let mut b = common::builder_in(&root_b);
    b.build("hello.json", &BuildOptions::default()).unwrap();

    // Rot one live blob in B's pool.
    let work_b = root_b.join("work");
    let manifests = level_manifests(&work_b);
    let fp = manifests
        .first()
        .and_then(|(_, refs)| refs.first().copied())
        .expect("a live blob to corrupt");
    let store = ImageStore::new(&work_b);
    std::fs::write(store.blobs().blob_path(fp), b"bit rot, silent and slow").unwrap();

    let (addr, handle, join) = spawn_server(&root_a.join("work"));
    let client = RemoteStore::tcp(&addr, RetryPolicy::fast());
    let report = scrub_pool(&work_b, Some(&client), &Recorder::disabled()).unwrap();
    assert_eq!(report.corrupt, 1, "the injected rot was found: {report:?}");
    assert!(report.quarantined_bytes > 0, "quarantined bytes reported");
    assert_eq!(report.healed, 1, "healed over TCP: {report:?}");
    assert_eq!(report.unrecoverable, 0);
    assert_eq!(report.manifests_removed, 0, "no manifest had to die");

    // The healed pool is genuinely whole: a rebuild has nothing to do.
    let products = b.build("hello.json", &BuildOptions::default()).unwrap();
    assert!(
        products.report.executed.is_empty(),
        "nothing rebuilds after a heal: {:?}",
        products.report.executed
    );

    // CLI scrub on the now-clean pool: exit 0 and a summary line.
    let setup = marshal_workloads::setup(&root_b).unwrap();
    let args = CliArgs {
        search_dirs: vec![],
        workdir: work_b.to_string_lossy().into_owned(),
        verbose: false,
        command: Command::Scrub { remote: None },
    };
    let (code, log) = cli::run_command(&args, setup.board, setup.search);
    assert_eq!(code, 0, "clean pool scrubs clean: {log:?}");
    assert!(log.iter().any(|l| l.contains("scrubbed pool")), "{log:?}");

    handle.shutdown();
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(root_a);
    let _ = std::fs::remove_dir_all(root_b);
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
    let scrub = scrub_pool(&work, None, &Recorder::disabled()).unwrap();
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
    let scrub = scrub_pool(&work, None, &Recorder::disabled()).unwrap();
    assert_eq!(scrub.corrupt, 0, "the pool is whole again");
    let _ = std::fs::remove_dir_all(root);
}

/// The daemon survives hostile bytes: a malformed frame closes that one
/// connection, is counted, and well-behaved clients keep being served.
#[test]
fn malformed_frames_rejected_without_harming_daemon() {
    let root = common::tmpdir("srv-mal");
    let mut a = common::builder_in(&root);
    a.build("hello.json", &BuildOptions::default()).unwrap();
    drop(a);

    let (addr, handle, join) = spawn_server(&root.join("work"));

    // Garbage first: not even a frame header.
    {
        use std::io::Write;
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // Server closes on us; nothing to read back reliably.
    }

    // A well-formed client afterwards is served normally.
    let client = RemoteStore::tcp(&addr, RetryPolicy::fast());
    let root_b = common::tmpdir("srv-mal-b");
    let mut b = common::builder_in(&root_b);
    b.set_remote_client(Arc::new(client));
    let products = b.build("hello.json", &BuildOptions::default()).unwrap();
    let summary = products.remote.expect("remote summary");
    assert!(
        summary.levels_fetched >= 1,
        "daemon still serves: {summary:?}"
    );

    handle.shutdown();
    let serve = join.join().expect("server thread");
    assert!(
        serve.bad_frames >= 1,
        "the bad frame was counted: {serve:?}"
    );
    assert!(serve.requests > 0);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(root_b);
}
