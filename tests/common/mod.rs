//! Shared helpers for the integration tests.

use std::path::{Path, PathBuf};

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
    use marshal_core::simulator::{default_backend, simulator_for};
    let backend = simulator_for(default_backend(&job.spec), &job.spec, &Default::default())
        .expect("default backend");
    let loaded = marshal_core::launch::load_artifacts(job).expect("load artifacts");
    let mode = marshal_sim_functional::LaunchMode::Run;
    let (run, _) = backend.run(&loaded, mode, None).expect("simulate job");
    run.result
}

/// Runs `marshal <words>` through the CLI layer exactly as the binary
/// does, with `root/work` as the workdir.
#[allow(dead_code)]
pub fn run_cli(root: &Path, words: &[&str]) -> (i32, Vec<String>) {
    let mut argv: Vec<String> = vec![
        "--workdir".to_owned(),
        root.join("work").to_string_lossy().into_owned(),
    ];
    argv.extend(words.iter().map(|s| (*s).to_owned()));
    let parsed = marshal_core::cli::parse_args(&argv).expect("parse");
    let setup = marshal_workloads::setup(root).expect("setup");
    marshal_core::cli::run_command(&parsed, setup.board, setup.search)
}

/// Every file under `root` (recursively) as (relative path, contents),
/// sorted by path.
#[allow(dead_code)]
pub fn sorted_tree(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn rec(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
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

/// The disk image of the first Linux job whose name contains
/// `name_contains`.
#[allow(dead_code)]
pub fn rootfs_of(products: &marshal_core::BuildProducts, name_contains: &str) -> PathBuf {
    products
        .jobs
        .iter()
        .find_map(|j| match &j.kind {
            marshal_core::JobKind::Linux {
                disk_path: Some(p), ..
            } if j.name.contains(name_contains) => Some(p.clone()),
            _ => None,
        })
        .expect("linux job with a disk image")
}
