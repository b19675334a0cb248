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
        let setup = marshal_workloads::setup(&root).unwrap();
        let mut cold = marshal_core::Builder::new(
            setup.board,
            setup.search,
            root.join(format!("cold-{step}")),
        )
        .unwrap();
        let cold = artifact_bytes(&cold.build("w.json", &BuildOptions::default()).unwrap());
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
