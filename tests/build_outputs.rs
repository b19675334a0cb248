//! E4 (Fig. 3): the outputs of the build command — a complete bootable
//! binary and a disk image by default; with `--no-disk`, the disk image is
//! embedded in the Linux initramfs. The exact artifact sizes of the hello
//! workload and the task counts of §III-B's incremental builds (E9) are
//! pinned.

mod common;

use marshal_core::{BuildOptions, JobKind};
use marshal_firmware::BootBinary;
use marshal_image::FsImage;

#[test]
fn default_build_produces_boot_binary_and_disk() {
    let root = common::tmpdir("fig3-default");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let JobKind::Linux {
        boot_path,
        disk_path,
    } = &products.jobs[0].kind
    else {
        panic!("expected a Linux job");
    };
    // Boot binary: firmware + kernel + initramfs (Fig. 3 left).
    let boot = BootBinary::from_bytes(&std::fs::read(boot_path).unwrap()).unwrap();
    assert!(boot.firmware().banner().contains("OpenSBI"));
    assert!(boot.kernel().version().starts_with("5.7"));
    assert!(!boot.kernel().initramfs().is_diskless());
    // Platform drivers are in the initramfs.
    assert!(boot
        .kernel()
        .initramfs()
        .module_names()
        .contains(&"iceblk".to_owned()));
    // Disk image (Fig. 3 right).
    let disk_bytes = std::fs::read(disk_path.as_ref().unwrap()).unwrap();
    let disk = FsImage::from_bytes(&disk_bytes).unwrap();
    assert!(disk.exists("/bin/hello"));
    // The sizes EXPERIMENTS.md quotes (E4).
    assert_eq!(std::fs::metadata(boot_path).unwrap().len(), 3_000);
    assert_eq!(disk_bytes.len(), 1_754);
    assert!(disk.exists("/etc/firemarshal/run.ms"));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn no_disk_build_embeds_rootfs_in_initramfs() {
    let root = common::tmpdir("fig3-nodisk");
    let mut builder = common::builder_in(&root);
    let products = builder
        .build(
            "hello.json",
            &BuildOptions {
                no_disk: true,
                ..Default::default()
            },
        )
        .unwrap();
    let JobKind::Linux {
        boot_path,
        disk_path,
    } = &products.jobs[0].kind
    else {
        panic!("expected a Linux job");
    };
    assert!(disk_path.is_none(), "--no-disk produces no disk image");
    let boot_bytes = std::fs::read(boot_path).unwrap();
    assert_eq!(
        boot_bytes.len(),
        5_015,
        "the size EXPERIMENTS.md quotes (E4)"
    );
    let boot = BootBinary::from_bytes(&boot_bytes).unwrap();
    assert!(boot.kernel().initramfs().is_diskless());
    // The rootfs content is inside the initramfs.
    let embedded = boot.kernel().initramfs().unpack().unwrap();
    assert!(embedded.exists("/bin/hello"));

    // And the workload boots + runs without any disk.
    let result = common::simulate(&products.jobs[0]);
    assert!(result.serial.contains("switching root to initramfs"));
    assert!(result.serial.contains("Hello from FireMarshal!"));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn disk_and_diskless_run_identically_after_cleaning() {
    let root = common::tmpdir("fig3-consistency");
    let mut builder = common::builder_in(&root);
    let with_disk = builder
        .build("hello.json", &BuildOptions::default())
        .unwrap();
    let disk_run = common::simulate(&with_disk.jobs[0]);
    let diskless = builder
        .build(
            "hello.json",
            &BuildOptions {
                no_disk: true,
                ..Default::default()
            },
        )
        .unwrap();
    let diskless_run = common::simulate(&diskless.jobs[0]);
    // The payload behaves identically; only root-mount lines differ.
    let clean = marshal_core::clean_output;
    let stable = |log: &str| -> Vec<String> {
        clean(log)
            .into_iter()
            .filter(|l| !l.contains("root") && !l.contains("initramfs"))
            .collect()
    };
    assert_eq!(stable(&disk_run.serial), stable(&diskless_run.serial));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn incremental_rebuild_reuses_artifacts() {
    // §III-B: "FireMarshal uses a dependency tracking system (similar to
    // GNU make) to avoid unnecessary rebuilding." The task counts are the
    // ones EXPERIMENTS.md quotes (E9).
    let root = common::tmpdir("fig3-incremental");
    let mut builder = common::builder_in(&root);

    let first = builder
        .build("coremark.json", &BuildOptions::default())
        .unwrap();
    assert_eq!(first.report.total(), 4);
    assert_eq!(first.report.executed.len(), 4, "full build runs every task");

    // No-op rebuild: everything skipped.
    let second = builder
        .build("coremark.json", &BuildOptions::default())
        .unwrap();
    assert!(
        second.report.executed.is_empty(),
        "{:?}",
        second.report.executed
    );
    assert_eq!(second.report.skipped.len(), 4);

    // A comment-only source change leaves the assembled binary identical,
    // so the content-addressed build stays clean (host-init re-runs as a
    // hook, but produces the same bytes).
    let src = root.join("workloads/coremark/src/coremark.s");
    let text = std::fs::read_to_string(&src).unwrap();
    std::fs::write(&src, format!("{text}\n# a comment\n")).unwrap();
    let third = builder
        .build("coremark.json", &BuildOptions::default())
        .unwrap();
    assert!(
        third.report.executed.is_empty(),
        "{:?}",
        third.report.executed
    );

    // A real code change alters the binary: the image chain rebuilds, but
    // the kernel/boot tasks (whose inputs didn't change) are still skipped.
    std::fs::write(&src, text.replace("li      s4, 40", "li      s4, 41")).unwrap();
    let fourth = builder
        .build("coremark.json", &BuildOptions::default())
        .unwrap();
    assert!(
        fourth.report.ran("img:br-base/coremark"),
        "{:?}",
        fourth.report.executed
    );
    assert!(!fourth.report.ran("img:br-base"), "base image untouched");
    assert_eq!(
        fourth.report.executed.len(),
        3,
        "{:?}",
        fourth.report.executed
    );
    assert_eq!(fourth.report.total(), 4);
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn artifacts_are_byte_identical_across_builds() {
    // Reproducibility: independent builders in different directories
    // produce byte-identical boot binaries and images.
    let root_a = common::tmpdir("fig3-reproA");
    let root_b = common::tmpdir("fig3-reproB");
    let mut a = common::builder_in(&root_a);
    let mut b = common::builder_in(&root_b);
    let pa = a.build("hello.json", &BuildOptions::default()).unwrap();
    let pb = b.build("hello.json", &BuildOptions::default()).unwrap();
    let JobKind::Linux {
        boot_path: ba,
        disk_path: da,
    } = &pa.jobs[0].kind
    else {
        panic!()
    };
    let JobKind::Linux {
        boot_path: bb,
        disk_path: db,
    } = &pb.jobs[0].kind
    else {
        panic!()
    };
    assert_eq!(std::fs::read(ba).unwrap(), std::fs::read(bb).unwrap());
    assert_eq!(
        std::fs::read(da.as_ref().unwrap()).unwrap(),
        std::fs::read(db.as_ref().unwrap()).unwrap()
    );
    std::fs::remove_dir_all(root_a).unwrap();
    std::fs::remove_dir_all(root_b).unwrap();
}

/// Copies the tree at `from` to `to`, symlinks as symlinks.
fn copy_tree(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        let kind = entry.file_type().unwrap();
        if kind.is_symlink() {
            std::os::unix::fs::symlink(std::fs::read_link(&src).unwrap(), &dst).unwrap();
        } else if kind.is_dir() {
            copy_tree(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).unwrap();
        }
    }
}

/// The built artifacts of the workdir under `root`: `images/` (with the
/// `.fp` sidecars), `levels/` and `objects/`.
fn workdir_artifacts(root: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    ["images", "levels", "objects"]
        .iter()
        .flat_map(|d| common::sorted_tree(&root.join("work").join(d)))
        .collect()
}

/// Sharing artifacts is copying a workdir: a copied, then renamed, workdir
/// builds as a no-op and keeps its artifacts byte for byte.
#[test]
fn a_copied_workdir_builds_as_a_no_op() {
    let parent = common::tmpdir("relocate");
    let root = parent.join("a");
    let (code, log) = common::run_cli(&root, &["build", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    let built = workdir_artifacts(&root);
    assert!(!built.is_empty());

    let copy = parent.join("b");
    copy_tree(&root, &copy);
    let moved = parent.join("c");
    for (at, step) in [(&copy, None), (&moved, Some(&copy))] {
        if let Some(from) = step {
            std::fs::rename(from, at).unwrap();
        }
        let (code, log) = common::run_cli(at, &["build", "hello.json"]);
        assert_eq!(code, 0, "{log:?}");
        assert!(
            log.iter().any(|l| l.contains(" 0 task(s) run")),
            "{}: {log:?}",
            at.display()
        );
        assert!(
            workdir_artifacts(at) == built,
            "{}: artifacts differ from the original workdir's",
            at.display()
        );
    }
    std::fs::remove_dir_all(parent).unwrap();
}

/// Every artifact file of a build (boot binary, disk image and their `.fp`
/// sidecars), in job order.
fn artifact_bytes(products: &marshal_core::BuildProducts) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for job in &products.jobs {
        let JobKind::Linux {
            boot_path,
            disk_path,
        } = &job.kind
        else {
            panic!("expected a Linux job");
        };
        for p in std::iter::once(boot_path).chain(disk_path) {
            out.push(std::fs::read(p).unwrap());
            out.push(std::fs::read(marshal_core::integrity::sidecar_path(p)).unwrap());
        }
    }
    out
}

/// [`artifact_bytes`] of a build of `workload` in the fresh workdir
/// `root/<workdir>`, on `jobs` workers (`None`: the host's parallelism).
fn cold_build(
    root: &std::path::Path,
    workdir: &str,
    workload: &str,
    jobs: Option<usize>,
) -> Vec<Vec<u8>> {
    let setup = marshal_workloads::setup(root).unwrap();
    let mut cold =
        marshal_core::Builder::new(setup.board, setup.search, root.join(workdir)).unwrap();
    let options = BuildOptions {
        jobs,
        ..BuildOptions::default()
    };
    artifact_bytes(&cold.build(workload, &options).unwrap())
}

/// Writes `w.json`, a workload over `br-base` whose overlay is `ov/`, into
/// the quickstart source directory and returns the overlay path.
fn overlay_workload(root: &std::path::Path) -> std::path::PathBuf {
    let dir = root.join("workloads/quickstart");
    std::fs::write(
        dir.join("w.json"),
        r#"{"name":"w","base":"br-base.json","overlay":"ov","command":"/bin/sh"}"#,
    )
    .unwrap();
    let ov = dir.join("ov");
    let _ = std::fs::remove_dir_all(&ov);
    std::fs::create_dir_all(ov.join("a")).unwrap();
    ov
}

#[test]
fn overlay_edits_rebuild_to_the_cold_build() {
    // Claim 1 under incremental builds: after each overlay edit, the
    // rebuilt artifacts must change and must equal a cold build of the
    // edited tree in a fresh workdir. Each edit keeps every file's bytes,
    // so only the tree's shape, an exec bit or a node kind tells them
    // apart.
    use std::os::unix::fs::{symlink, PermissionsExt};
    let root = common::tmpdir("fig3-overlay-edits");
    let mut builder = common::builder_in(&root);
    let ov = overlay_workload(&root);
    std::fs::write(ov.join("a/b"), b"bee").unwrap();
    std::fs::write(ov.join("a/c"), b"sea").unwrap();
    symlink("a/b", ov.join("s")).unwrap();

    let mut previous = artifact_bytes(&builder.build("w.json", &BuildOptions::default()).unwrap());
    let edits: [(&str, &dyn Fn()); 3] = [
        ("mv ov/a/c ov/c", &|| {
            std::fs::rename(ov.join("a/c"), ov.join("c")).unwrap();
        }),
        ("chmod +x ov/a/b", &|| {
            let mut perms = std::fs::metadata(ov.join("a/b")).unwrap().permissions();
            perms.set_mode(perms.mode() | 0o111);
            std::fs::set_permissions(ov.join("a/b"), perms).unwrap();
        }),
        ("symlink ov/s -> a/b becomes a file of a/b's bytes", &|| {
            std::fs::remove_file(ov.join("s")).unwrap();
            std::fs::write(ov.join("s"), b"bee").unwrap();
        }),
    ];
    for (step, (what, edit)) in edits.iter().enumerate() {
        edit();
        let incremental =
            artifact_bytes(&builder.build("w.json", &BuildOptions::default()).unwrap());
        assert_ne!(incremental, previous, "`{what}` must rebuild");
        let cold = cold_build(&root, &format!("cold-{step}"), "w.json", None);
        assert!(
            incremental == cold,
            "after `{what}` the incremental build differs from a cold build"
        );
        previous = incremental;
    }
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn dangling_overlay_symlink_builds() {
    // The image stores a symlink verbatim, so its target need not exist
    // on the host.
    let root = common::tmpdir("fig3-overlay-dangling");
    let mut builder = common::builder_in(&root);
    let ov = overlay_workload(&root);
    std::os::unix::fs::symlink("/no/such/target", ov.join("a/dangling")).unwrap();
    let products = builder.build("w.json", &BuildOptions::default()).unwrap();
    let JobKind::Linux {
        disk_path: Some(disk),
        ..
    } = &products.jobs[0].kind
    else {
        panic!("expected a Linux job with a disk");
    };
    let image = FsImage::from_bytes(&std::fs::read(disk).unwrap()).unwrap();
    assert_eq!(
        image.node("/a/dangling"),
        Some(&marshal_image::Node::Symlink("/no/such/target".to_owned()))
    );
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn files_edited_mid_build_are_not_stored_under_the_planned_key() {
    // A `files` source edited after planning, before its level task runs,
    // then reverted. The level must hold the bytes that were planned and
    // hashed, so the incremental rebuild equals a cold build. The level
    // task depends on `img:br-base`, so the scheduler cannot dispatch it
    // before its first progress report: the edit always lands in time.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let root = common::tmpdir("fig3-files-mid-build");
    let mut builder = common::builder_in(&root);
    let dir = root.join("workloads/quickstart");
    std::fs::write(
        dir.join("w.json"),
        r#"{"name":"w","base":"br-base.json","files":[["payload.txt","/payload.txt"]],"command":"/bin/sh"}"#,
    )
    .unwrap();
    let payload = dir.join("payload.txt");
    std::fs::write(&payload, b"planned bytes").unwrap();

    let edited = Arc::new(AtomicBool::new(false));
    let progress: marshal_depgraph::ProgressFn = {
        let (payload, edited) = (payload.clone(), Arc::clone(&edited));
        Arc::new(move |_| {
            if !edited.swap(true, Ordering::SeqCst) {
                std::fs::write(&payload, b"edited mid-build").unwrap();
            }
        })
    };
    let options = BuildOptions {
        progress: Some(progress),
        ..BuildOptions::default()
    };
    builder.build("w.json", &options).unwrap();
    assert!(edited.load(Ordering::SeqCst), "the progress callback ran");

    std::fs::write(&payload, b"planned bytes").unwrap();
    let rebuilt = builder.build("w.json", &BuildOptions::default()).unwrap();
    assert!(
        artifact_bytes(&rebuilt) == cold_build(&root, "cold", "w.json", None),
        "the incremental build ({:?} run) differs from a cold build",
        rebuilt.report.executed
    );
    std::fs::remove_dir_all(root).unwrap();
}

/// The bytes of the bare-metal server binary `latency-microbenchmark`'s
/// last build copied.
fn server_bin(products: &marshal_core::BuildProducts) -> Vec<u8> {
    let JobKind::Bare { bin_path } = &products.jobs[1].kind else {
        panic!("expected the bare-metal server job");
    };
    std::fs::read(bin_path).unwrap()
}

#[test]
fn host_init_regenerating_a_bin_reruns_its_copy_task() {
    let root = common::tmpdir("fig3-bin-regen");
    let mut builder = common::builder_in(&root);
    let first = builder
        .build("latency-microbenchmark.json", &BuildOptions::default())
        .unwrap();
    let before = server_bin(&first);

    // host-init reassembles `serve.s` into `serve.mexe` on every build.
    let src = root.join("workloads/pfa/src/serve.s");
    let text = std::fs::read_to_string(&src).unwrap();
    let edited = text.replace("li      t0, 10000", "li      t0, 10001");
    assert_ne!(edited, text, "the edit must hit the server's loop bound");
    std::fs::write(&src, edited).unwrap();
    let second = builder
        .build("latency-microbenchmark.json", &BuildOptions::default())
        .unwrap();
    assert_eq!(
        second.report.executed,
        vec!["bin:latency-microbenchmark.server".to_owned()]
    );
    let after = server_bin(&second);
    assert_ne!(after, before, "the new binary was copied");
    assert_eq!(
        after,
        std::fs::read(root.join("workloads/pfa/serve.mexe")).unwrap()
    );
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn dry_run_plans_a_bin_that_host_init_has_not_built() {
    // A dry run skips host-init, so `serve.mexe` does not exist yet. The
    // `bin:` task is still planned, and nothing but the run journal is
    // written.
    let root = common::tmpdir("fig3-bin-dry");
    let (code, log) = common::run_cli(
        &root,
        &["build", "--dry-run", "latency-microbenchmark.json"],
    );
    assert_eq!(code, 0, "{log:?}");
    assert!(
        log.iter()
            .any(|l| l.trim() == "would run bin:latency-microbenchmark.server"),
        "{log:?}"
    );
    assert!(!root.join("workloads/pfa/serve.mexe").exists());
    let written: Vec<String> = common::sorted_tree(&root.join("work"))
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !name.starts_with("runs/"))
        .collect();
    assert!(written.is_empty(), "a dry run wrote {written:?}");
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn a_missing_bin_fails_only_its_own_task() {
    // A `bin` that cannot be read is planned like any other, keyed as
    // empty, and fails its own task: `--keep-going` still builds the
    // other job, and without it the build fails naming the binary.
    let root = common::tmpdir("fig3-bin-missing");
    let mut builder = common::builder_in(&root);
    std::fs::write(
        root.join("workloads/quickstart/w.json"),
        r#"{"name":"w","base":"br-base.json","jobs":[
            {"name":"linux","command":"/bin/sh"},
            {"name":"bare","base":"bare-metal.json","bin":"missing.mexe"}]}"#,
    )
    .unwrap();
    let keep_going = BuildOptions {
        keep_going: true,
        ..BuildOptions::default()
    };
    let report = builder.build("w.json", &keep_going).unwrap().report;
    let failed: Vec<&str> = report.failed.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(failed, ["bin:w.bare"]);
    assert!(report.failed[0].1.contains("missing.mexe"), "{report:?}");
    assert!(report.ran("boot:w.linux"), "{report:?}");
    let err = builder
        .build("w.json", &BuildOptions::default())
        .unwrap_err();
    assert!(err.to_string().contains("missing.mexe"), "{err}");
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn editing_a_kernel_fragment_reruns_only_the_boot_binary() {
    let root = common::tmpdir("fig3-kfrag");
    let mut builder = common::builder_in(&root);
    builder
        .build("latency-microbenchmark.json", &BuildOptions::default())
        .unwrap();
    let frag = root.join("workloads/pfa/pfa.kfrag");
    let text = std::fs::read_to_string(&frag).unwrap();
    std::fs::write(&frag, format!("{text}# the PFA driver\n")).unwrap();
    let rebuilt = builder
        .build("latency-microbenchmark.json", &BuildOptions::default())
        .unwrap();
    assert_eq!(
        rebuilt.report.executed,
        vec!["boot:latency-microbenchmark.client".to_owned()]
    );
    let images: Vec<&String> = rebuilt
        .report
        .skipped
        .iter()
        .filter(|t| t.starts_with("img:"))
        .collect();
    assert!(!images.is_empty(), "{:?}", rebuilt.report.skipped);
    std::fs::remove_dir_all(root).unwrap();
}

/// The kind of a host overlay entry (symlinks are not followed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    File,
    Symlink,
    Dir,
}

/// Every entry under `dir` (relative path, kind), parents before children.
fn walk(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Kind)> {
    fn rec(
        root: &std::path::Path,
        dir: &std::path::Path,
        out: &mut Vec<(std::path::PathBuf, Kind)>,
    ) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for path in entries {
            let meta = std::fs::symlink_metadata(&path).unwrap();
            let kind = if meta.file_type().is_symlink() {
                Kind::Symlink
            } else if meta.is_dir() {
                Kind::Dir
            } else {
                Kind::File
            };
            out.push((path.strip_prefix(root).unwrap().to_path_buf(), kind));
            if kind == Kind::Dir {
                rec(root, &path, out);
            }
        }
    }
    let mut out = Vec::new();
    rec(dir, dir, &mut out);
    out
}

/// A fresh overlay entry name. The `q` prefix keeps generated paths clear
/// of the base image's `/bin`, `/etc` and `/files`.
fn entry_name(rng: &mut marshal_qcheck::Rng) -> String {
    format!("q{}", rng.lowercase(1, 3))
}

/// A directory of the overlay `ov` (itself included), picked at random.
fn some_dir(rng: &mut marshal_qcheck::Rng, ov: &std::path::Path) -> std::path::PathBuf {
    let mut dirs = vec![ov.to_path_buf()];
    dirs.extend(
        walk(ov)
            .into_iter()
            .filter(|(_, k)| *k == Kind::Dir)
            .map(|(p, _)| ov.join(p)),
    );
    rng.pick(&dirs).clone()
}

/// Adds one random entry to the overlay `ov`: a file of random bytes
/// (executable or not), a relative or dangling symlink, or an empty dir.
fn add_entry(rng: &mut marshal_qcheck::Rng, ov: &std::path::Path) {
    use std::os::unix::fs::{symlink, PermissionsExt};
    let path = some_dir(rng, ov).join(entry_name(rng));
    if std::fs::symlink_metadata(&path).is_ok() {
        return;
    }
    match rng.below(4) {
        0 => {
            std::fs::write(&path, rng.bytes_in(0, 24)).unwrap();
            if rng.bool() {
                std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
            }
        }
        1 => symlink(entry_name(rng), &path).unwrap(),
        2 => symlink(format!("/no/such/{}", entry_name(rng)), &path).unwrap(),
        _ => std::fs::create_dir(&path).unwrap(),
    }
}

/// Applies one edit of the given kind to the overlay `ov` and returns what
/// it did; falls back to adding an entry when the overlay has nothing the
/// edit applies to.
fn edit_overlay(rng: &mut marshal_qcheck::Rng, ov: &std::path::Path, kind: u64) -> String {
    use std::os::unix::fs::{symlink, PermissionsExt};
    let entries = walk(ov);
    let of = |want: &[Kind]| -> Vec<std::path::PathBuf> {
        entries
            .iter()
            .filter(|(_, k)| want.contains(k))
            .map(|(p, _)| ov.join(p))
            .collect()
    };
    let show = |p: &std::path::Path| p.strip_prefix(ov).unwrap().display().to_string();
    let files = of(&[Kind::File]);
    let leaves = of(&[Kind::File, Kind::Symlink]);
    let empty_dirs: Vec<_> = of(&[Kind::Dir])
        .into_iter()
        .filter(|d| std::fs::read_dir(d).unwrap().next().is_none())
        .collect();
    match kind {
        // A move across a directory.
        0 if !leaves.is_empty() => {
            let from = rng.pick(&leaves).clone();
            let name = from.file_name().unwrap();
            let mut dirs = of(&[Kind::Dir]);
            dirs.push(ov.to_path_buf());
            dirs.retain(|d| {
                d != from.parent().unwrap() && std::fs::symlink_metadata(d.join(name)).is_err()
            });
            let dir = if dirs.is_empty() {
                let dir = ov.join(format!("{}-moved", entry_name(rng)));
                std::fs::create_dir(&dir).unwrap();
                dir
            } else {
                rng.pick(&dirs).clone()
            };
            let to = dir.join(name);
            std::fs::rename(&from, &to).unwrap();
            format!("mv {} {}", show(&from), show(&to))
        }
        // chmod.
        1 if !files.is_empty() => {
            let path = rng.pick(&files).clone();
            let mode = std::fs::metadata(&path).unwrap().permissions().mode() ^ 0o111;
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(mode)).unwrap();
            format!("chmod {mode:o} {}", show(&path))
        }
        // A symlink <-> file swap.
        2 if !leaves.is_empty() => {
            let path = rng.pick(&leaves).clone();
            let meta = std::fs::symlink_metadata(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            if meta.file_type().is_symlink() {
                std::fs::write(&path, rng.bytes_in(0, 24)).unwrap();
                format!("symlink {} becomes a file", show(&path))
            } else {
                symlink(entry_name(rng), &path).unwrap();
                format!("file {} becomes a symlink", show(&path))
            }
        }
        // A content edit.
        3 if !files.is_empty() => {
            let path = rng.pick(&files).clone();
            let mut data = std::fs::read(&path).unwrap();
            data.push(rng.byte());
            std::fs::write(&path, data).unwrap();
            format!("append to {}", show(&path))
        }
        // A rename.
        4 if !entries.is_empty() => {
            let from = ov.join(&rng.pick(&entries).0);
            let to = from.with_file_name(entry_name(rng));
            if std::fs::symlink_metadata(&to).is_ok() {
                return "rename (name taken)".to_owned();
            }
            std::fs::rename(&from, &to).unwrap();
            format!("rename {} to {}", show(&from), show(&to))
        }
        // Removing an empty dir.
        5 if rng.bool() && !empty_dirs.is_empty() => {
            let dir = rng.pick(&empty_dirs).clone();
            std::fs::remove_dir(&dir).unwrap();
            format!("rmdir {}", show(&dir))
        }
        // Adding an empty dir, and the fallback.
        _ => {
            let dir = some_dir(rng, ov).join(entry_name(rng));
            if std::fs::symlink_metadata(&dir).is_ok() {
                return "mkdir (name taken)".to_owned();
            }
            std::fs::create_dir(&dir).unwrap();
            format!("mkdir {}", show(&dir))
        }
    }
}

#[test]
fn generated_edits_rebuild_to_the_cold_build() {
    // Claim 1 under incremental builds, checked on generated workloads:
    // a chain of 1-3 levels over `br-base`, level `i` being `l{i}.json`
    // with the overlay `ov{i}/` and 0-2 `files` entries `f{i}_{j}`. After
    // each of three random edits, the incremental build must equal a cold
    // `-j 1` build of the edited tree in a fresh workdir, for every
    // artifact and `.fp` sidecar. A failure names its case and seed.
    marshal_qcheck::cases(10, |rng| {
        let root = marshal_qcheck::scratch_dir("claim1-oracle");
        let src = root.join("workloads/quickstart");
        let mut builder = common::builder_in(&root);
        let levels = rng.range_usize(1, 4);
        let mut sources = Vec::new();
        for i in 1..=levels {
            let ov = src.join(format!("ov{i}"));
            std::fs::create_dir_all(&ov).unwrap();
            for _ in 0..rng.range_usize(1, 7) {
                add_entry(rng, &ov);
            }
            let mut files = Vec::new();
            for j in 0..rng.range_usize(0, 3) {
                let host = format!("f{i}_{j}");
                std::fs::write(src.join(&host), rng.bytes_in(0, 24)).unwrap();
                files.push(format!(r#"["{host}","/files/l{i}/{j}"]"#));
                sources.push(src.join(host));
            }
            let base = if i == 1 {
                "br-base.json".to_owned()
            } else {
                format!("l{}.json", i - 1)
            };
            std::fs::write(
                src.join(format!("l{i}.json")),
                format!(
                    r#"{{"name":"l{i}","base":"{base}","overlay":"ov{i}","files":[{}],"command":"/bin/sh"}}"#,
                    files.join(",")
                ),
            )
            .unwrap();
        }
        let top = format!("l{levels}.json");
        builder.build(&top, &BuildOptions::default()).unwrap();

        let mut done = Vec::new();
        for step in 0..3 {
            let what = match rng.below(8) {
                // A `files` source edit.
                6 if !sources.is_empty() => {
                    let path = rng.pick(&sources).clone();
                    std::fs::write(&path, rng.bytes_in(0, 24)).unwrap();
                    format!("rewrite {}", path.file_name().unwrap().to_string_lossy())
                }
                // An overlay edit to a base level.
                7 => {
                    let kind = rng.below(6);
                    format!("ov1: {}", edit_overlay(rng, &src.join("ov1"), kind))
                }
                kind => {
                    let i = rng.range_usize(1, levels + 1);
                    format!(
                        "ov{i}: {}",
                        edit_overlay(rng, &src.join(format!("ov{i}")), kind)
                    )
                }
            };
            done.push(what);
            let incremental =
                artifact_bytes(&builder.build(&top, &BuildOptions::default()).unwrap());
            let cold = cold_build(&root, &format!("cold-{step}"), &top, Some(1));
            assert!(
                incremental == cold,
                "{levels}-level chain: after {done:?} the incremental build differs from a cold -j 1 build"
            );
        }
        std::fs::remove_dir_all(root).unwrap();
    });
}
