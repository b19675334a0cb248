//! Shared helpers for the integration tests.

use std::path::PathBuf;

/// Creates (and clears) a unique scratch directory for one test.
#[allow(dead_code)]
pub fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("firemarshal-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Builds a ready-to-use Builder over the bundled workloads.
#[allow(dead_code)]
pub fn builder_in(root: &std::path::Path) -> marshal_core::Builder {
    let setup = marshal_workloads::setup(root).expect("materialise workloads");
    marshal_core::Builder::new(setup.board, setup.search, root.join("work"))
        .expect("create builder")
}

/// Runs a built job on its default backend: a cold boot, no checkpoint
/// store.
#[allow(dead_code)]
pub fn simulate(job: &marshal_core::JobArtifacts) -> marshal_sim_functional::SimResult {
    let rec = marshal_trace::Recorder::disabled();
    let (run, _) = marshal_core::launch::simulate_job(job, &Default::default(), None, &rec)
        .expect("simulate job");
    run.result
}

/// Spawns a `marshal serve --exec` daemon rooted at `root`: its own
/// workload sources, its own workdir, real TCP on an ephemeral port.
/// Returns the daemon address plus a handle/join pair for shutdown.
#[allow(dead_code)]
pub fn spawn_exec_server(
    root: &std::path::Path,
) -> (
    String,
    marshal_netstore::ServerHandle,
    std::thread::JoinHandle<marshal_netstore::ServeSummary>,
) {
    let setup = marshal_workloads::setup(root).expect("materialise workloads");
    let work = root.join("work");
    let handler = marshal_core::serve_exec_handler(setup.board, setup.search, &work)
        .expect("daemon exec handler");
    let mut server =
        marshal_netstore::Server::bind("127.0.0.1:0", &work, std::time::Duration::from_secs(5))
            .expect("bind");
    server.set_exec_handler(handler);
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}
