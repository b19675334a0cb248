//! Boot-checkpoint integration tests: a restored launch must be
//! bit-identical to a cold boot across every backend, survive `-j 8`
//! test fleets and `marshal cosim`, and a corrupt or torn checkpoint must
//! degrade to a cold boot (with a structured warning) — never a wrong
//! answer.

mod common;

use std::collections::BTreeMap;
use std::path::Path;

use marshal_core::cosim::{self, CosimOptions};
use marshal_core::launch::{self, LaunchOptions, LaunchOutput};
use marshal_core::test::{test_workload, TestOutcome};
use marshal_core::{clean_output, BuildOptions, CheckpointStore};

fn opts(sim: &str, no_checkpoint: bool) -> LaunchOptions {
    LaunchOptions {
        sim: Some(sim.to_owned()),
        no_checkpoint,
        ..LaunchOptions::default()
    }
}

fn ckpt_files(workdir: &Path) -> Vec<std::path::PathBuf> {
    let dir = workdir.join("checkpoints");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    files.sort();
    files
}

/// Reads every collected output file under the job dir (uartlog included)
/// into a path→bytes map, so two launches can be compared byte-for-byte.
fn output_files(out: &LaunchOutput) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, into: &mut BTreeMap<String, Vec<u8>>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, into);
            } else {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                into.insert(rel, std::fs::read(&path).unwrap_or_default());
            }
        }
    }
    let mut map = BTreeMap::new();
    walk(&out.job_dir, &out.job_dir, &mut map);
    map
}

fn assert_identical(cold: &LaunchOutput, warm: &LaunchOutput, what: &str) {
    assert_eq!(cold.serial, warm.serial, "{what}: serial log differs");
    assert_eq!(
        clean_output(&cold.serial),
        clean_output(&warm.serial),
        "{what}: canonical uartlog differs"
    );
    assert_eq!(cold.exit_code, warm.exit_code, "{what}: exit code differs");
    assert_eq!(
        cold.instructions, warm.instructions,
        "{what}: instruction count differs"
    );
    assert_eq!(
        output_files(cold),
        output_files(warm),
        "{what}: extracted outputs differ"
    );
}

/// A restored launch is bit-identical to a cold boot on every backend:
/// same serial log, exit code, instruction count, and collected outputs.
#[test]
fn restored_launch_is_bit_identical_across_backends() {
    let root = common::tmpdir("ckpt-identical");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .expect("build hello");

    for sim in ["qemu", "spike", "rtl"] {
        let cold = launch::launch_workload(&builder, &products, &opts(sim, true))
            .unwrap_or_else(|e| panic!("{sim}: cold launch: {e}"));
        let before = ckpt_files(builder.workdir()).len();
        let first = launch::launch_workload(&builder, &products, &opts(sim, false))
            .unwrap_or_else(|e| panic!("{sim}: capturing launch: {e}"));
        assert!(
            ckpt_files(builder.workdir()).len() > before,
            "{sim}: first checkpointed launch wrote no snapshot"
        );
        let second = launch::launch_workload(&builder, &products, &opts(sim, false))
            .unwrap_or_else(|e| panic!("{sim}: restored launch: {e}"));

        assert_eq!(cold.jobs.len(), second.jobs.len());
        for (i, job) in cold.jobs.iter().enumerate() {
            assert_identical(job, &first.jobs[i], &format!("{sim}/{} capture", job.job));
            assert_identical(job, &second.jobs[i], &format!("{sim}/{} restore", job.job));
        }
    }
    let _ = std::fs::remove_dir_all(root);
}

/// `marshal test -j 8` passes both cold and warm: a checkpoint restore in
/// the middle of a parallel fleet still reproduces the reference outputs.
#[test]
fn test_fleet_passes_with_checkpoints_under_j8() {
    let root = common::tmpdir("ckpt-fleet");
    let mut builder = common::builder_in(&root);
    let build = BuildOptions {
        jobs: Some(8),
        ..BuildOptions::default()
    };

    for pass in ["cold", "warm"] {
        let outcomes = test_workload(&mut builder, "hello.json", &build, &opts("qemu", false))
            .expect("test hello");
        assert!(!outcomes.is_empty());
        for outcome in &outcomes {
            assert!(
                matches!(outcome, TestOutcome::Pass),
                "{pass} fleet test failed: {outcome:?}"
            );
        }
    }
    assert!(
        !ckpt_files(builder.workdir()).is_empty(),
        "warm test fleet left no checkpoint behind"
    );
    let _ = std::fs::remove_dir_all(root);
}

/// `marshal cosim` agrees cold and warm, with each backend restoring its
/// own snapshot (keyed per backend configuration).
#[test]
fn cosim_agrees_cold_and_warm() {
    let root = common::tmpdir("ckpt-cosim");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .expect("build hello");

    let warm_opts = CosimOptions {
        checkpoints: Some(CheckpointStore::new(builder.workdir())),
        ..CosimOptions::default()
    };
    let cold = cosim::cosim_workload(&products, &warm_opts).expect("cold cosim");
    assert!(cold.agreed(), "cold cosim diverged");
    // Both sides snapshot under distinct keys: qemu and rtl never share one.
    assert!(
        ckpt_files(builder.workdir()).len() >= 2,
        "expected one checkpoint per cosim backend"
    );
    let warm = cosim::cosim_workload(&products, &warm_opts).expect("warm cosim");
    assert!(warm.agreed(), "warm cosim diverged");
    for (c, w) in cold.jobs.iter().zip(warm.jobs.iter()) {
        assert_eq!(
            c.instructions, w.instructions,
            "{}: restored cosim retired a different instruction count",
            c.job
        );
    }
    let _ = std::fs::remove_dir_all(root);
}

/// A corrupt checkpoint is quarantined, the launch falls back to a cold
/// boot with a structured `checkpoint-corrupt` warning, the answer is
/// bit-identical, and the next launch has a fresh valid snapshot again.
#[test]
fn corrupt_checkpoint_recovers_via_cold_boot() {
    let root = common::tmpdir("ckpt-corrupt");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .expect("build hello");

    let cold = launch::launch_job(&builder, &products, 0, &opts("qemu", true)).expect("cold");
    launch::launch_job(&builder, &products, 0, &opts("qemu", false)).expect("capture");
    let files = ckpt_files(builder.workdir());
    assert_eq!(files.len(), 1, "expected exactly one checkpoint");

    // Flip one payload byte: the seal must catch it.
    let mut bytes = std::fs::read(&files[0]).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&files[0], &bytes).expect("corrupt checkpoint");

    let recovered =
        launch::launch_job(&builder, &products, 0, &opts("qemu", false)).expect("recover");
    assert_identical(&cold, &recovered, "corrupt-recovery");
    assert!(
        recovered
            .warnings
            .iter()
            .any(|w| w.code == "checkpoint-corrupt"),
        "no checkpoint-corrupt warning; got {:?}",
        recovered.warnings
    );
    let quarantine = builder.workdir().join("checkpoints").join(".quarantine");
    assert!(
        quarantine
            .read_dir()
            .map(|mut d| d.next().is_some())
            .unwrap_or(false),
        "corrupt checkpoint was not quarantined"
    );

    // The recovery launch rewrote the snapshot; the next restore is clean.
    let warm = launch::launch_job(&builder, &products, 0, &opts("qemu", false)).expect("warm");
    assert_identical(&cold, &warm, "post-recovery restore");
    assert!(
        !warm.warnings.iter().any(|w| w.code == "checkpoint-corrupt"),
        "rewritten checkpoint still flagged corrupt"
    );
    let _ = std::fs::remove_dir_all(root);
}

/// A torn (truncated) checkpoint — the crash-mid-write case — behaves like
/// corruption: quarantine, cold boot, identical answer.
#[test]
fn torn_checkpoint_recovers_via_cold_boot() {
    let root = common::tmpdir("ckpt-torn");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .expect("build hello");

    let cold = launch::launch_job(&builder, &products, 0, &opts("qemu", true)).expect("cold");
    launch::launch_job(&builder, &products, 0, &opts("qemu", false)).expect("capture");
    let files = ckpt_files(builder.workdir());
    assert_eq!(files.len(), 1);

    let bytes = std::fs::read(&files[0]).expect("read checkpoint");
    std::fs::write(&files[0], &bytes[..bytes.len() / 2]).expect("tear checkpoint");

    let recovered =
        launch::launch_job(&builder, &products, 0, &opts("qemu", false)).expect("recover");
    assert_identical(&cold, &recovered, "torn-recovery");
    assert!(
        recovered
            .warnings
            .iter()
            .any(|w| w.code == "checkpoint-corrupt"),
        "no checkpoint-corrupt warning after torn write; got {:?}",
        recovered.warnings
    );
    let _ = std::fs::remove_dir_all(root);
}

/// `--no-checkpoint` is a true escape hatch: no snapshot is read or
/// written, ever.
#[test]
fn no_checkpoint_never_writes_a_snapshot() {
    let root = common::tmpdir("ckpt-off");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .expect("build hello");

    launch::launch_job(&builder, &products, 0, &opts("qemu", true)).expect("launch");
    launch::launch_job(&builder, &products, 0, &opts("qemu", true)).expect("launch again");
    assert!(
        ckpt_files(builder.workdir()).is_empty(),
        "--no-checkpoint wrote a snapshot"
    );
    let _ = std::fs::remove_dir_all(root);
}
