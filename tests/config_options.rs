//! E2 (Table II): every workload configuration option's semantics,
//! exercised through real builds and launches.

mod common;

use marshal_core::{launch, BuildOptions};

/// Writes a user workload directory and returns a builder that sees it.
fn user_workload(root: &std::path::Path, files: &[(&str, &str)]) -> marshal_core::Builder {
    let wl_dir = root.join("user-workloads");
    std::fs::create_dir_all(&wl_dir).unwrap();
    for (name, text) in files {
        let path = wl_dir.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).unwrap();
        }
        std::fs::write(path, text).unwrap();
    }
    let setup = marshal_workloads::setup(root).unwrap();
    let mut search = setup.search;
    search.add_dir(&wl_dir);
    marshal_core::Builder::new(setup.board, search, root.join("work")).unwrap()
}

#[test]
fn base_option_inherits_everything() {
    let root = common::tmpdir("opt-base");
    let mut b = user_workload(
        &root,
        &[
            (
                "parent.json",
                r#"{"name":"parent","base":"br-base.json","command":"/bin/sh","outputs":["/output"]}"#,
            ),
            ("child.json", r#"{"name":"child","base":"parent.json"}"#),
        ],
    );
    let products = b.build("child.json", &BuildOptions::default()).unwrap();
    // Child inherited the parent's command and outputs.
    assert_eq!(products.top_spec.command.as_deref(), Some("/bin/sh"));
    assert_eq!(products.top_spec.outputs, vec!["/output"]);
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn overlay_and_files_options() {
    let root = common::tmpdir("opt-overlay");
    let mut b = user_workload(
        &root,
        &[
            (
                "w.json",
                r#"{"name":"w","base":"br-base.json",
                    "overlay":"my-overlay",
                    "files":[{"host":"extra.txt","guest":"/etc/extra.txt"}]}"#,
            ),
            ("my-overlay/etc/from-overlay", "overlay file\n"),
            ("extra.txt", "from files option\n"),
        ],
    );
    let products = b.build("w.json", &BuildOptions::default()).unwrap();
    let result = common::simulate(&products.jobs[0]);
    let image = result.image.unwrap();
    assert_eq!(
        image.read_file("/etc/from-overlay").unwrap(),
        b"overlay file\n"
    );
    assert_eq!(
        image.read_file("/etc/extra.txt").unwrap(),
        b"from files option\n"
    );
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn host_init_generates_build_inputs() {
    let root = common::tmpdir("opt-hostinit");
    let mut b = user_workload(
        &root,
        &[
            (
                "w.json",
                r#"{"name":"w","base":"br-base.json","host-init":"gen.ms","overlay":"gen-overlay","command":"/bin/prog"}"#,
            ),
            (
                "gen.ms",
                "#!mscript\nassemble_str(\"_start:\\n li a0, 0\\n li a7, 93\\n ecall\\n\", \"gen-overlay/bin/prog\")\nwrite_file(\"gen-overlay/etc/generated\", \"by host-init\")\n",
            ),
        ],
    );
    std::fs::create_dir_all(root.join("user-workloads/gen-overlay")).unwrap();
    let products = b.build("w.json", &BuildOptions::default()).unwrap();
    let out = common::simulate(&products.jobs[0]);
    assert_eq!(out.exit_code, 0);
    assert_eq!(
        out.image.unwrap().read_file("/etc/generated").unwrap(),
        b"by host-init"
    );
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn guest_init_runs_exactly_once() {
    let root = common::tmpdir("opt-guestinit");
    let mut b = user_workload(
        &root,
        &[
            (
                "w.json",
                r#"{"name":"w","base":"br-base.json","guest-init":"setup.ms","command":"/bin/sh"}"#,
            ),
            (
                "setup.ms",
                "#!mscript\nlet n = 0\nif exists(\"/etc/gi-count\") { n = parse_int(read_file(\"/etc/gi-count\")) }\nwrite_file(\"/etc/gi-count\", str(n + 1))\n",
            ),
        ],
    );
    let products = b.build("w.json", &BuildOptions::default()).unwrap();
    let result = common::simulate(&products.jobs[0]);
    // guest-init ran once, during build — not again at launch.
    assert_eq!(
        result.image.unwrap().read_file("/etc/gi-count").unwrap(),
        b"1"
    );
    // A rebuild does not re-run it either (tasks are up to date).
    let products2 = b.build("w.json", &BuildOptions::default()).unwrap();
    assert!(products2.report.executed.is_empty());
    let result2 = common::simulate(&products2.jobs[0]);
    assert_eq!(
        result2.image.unwrap().read_file("/etc/gi-count").unwrap(),
        b"1"
    );
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn run_and_command_options() {
    let root = common::tmpdir("opt-run");
    let mut b = user_workload(
        &root,
        &[
            (
                "cmd.json",
                r#"{"name":"cmd","base":"br-base.json","command":"/bin/busybox"}"#,
            ),
            (
                "run.json",
                r#"{"name":"run","base":"br-base.json","overlay":"scripts","run":"myrun.ms"}"#,
            ),
            (
                "scripts/myrun.ms",
                "#!mscript\nprint(\"run script executed on boot\")\n",
            ),
        ],
    );
    let cmd = b.build("cmd.json", &BuildOptions::default()).unwrap();
    let out = common::simulate(&cmd.jobs[0]);
    assert!(out.serial.contains("BusyBox"));

    let run = b.build("run.json", &BuildOptions::default()).unwrap();
    let out = common::simulate(&run.jobs[0]);
    assert!(
        out.serial.contains("run script executed on boot"),
        "{}",
        out.serial
    );
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn outputs_and_post_run_hook_options() {
    let root = common::tmpdir("opt-outputs");
    let builder = {
        let mut b = user_workload(
            &root,
            &[
                (
                    "w.json",
                    r#"{"name":"w","base":"br-base.json","overlay":"s","run":"emit.ms",
                        "outputs":["/output"],"post-run-hook":"sum.ms"}"#,
                ),
                (
                    "s/emit.ms",
                    "#!mscript\nwrite_file(\"/output/value\", \"21\")\n",
                ),
                (
                    "sum.ms",
                    "#!mscript\nlet a = args()\nlet v = parse_int(read_file(a[0] + \"/output/value\"))\nwrite_file(\"doubled\", str(v * 2))\nprint(\"hook done\")\n",
                ),
            ],
        );
        let products = b.build("w.json", &BuildOptions::default()).unwrap();
        let run = launch::launch_workload(&b, &products, &Default::default()).unwrap();
        assert_eq!(run.hook_log, vec!["hook done"]);
        assert_eq!(
            std::fs::read_to_string(run.run_root.join("doubled")).unwrap(),
            "42"
        );
        b
    };
    drop(builder);
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn linux_options_change_kernel() {
    let root = common::tmpdir("opt-linux");
    let mut b = user_workload(
        &root,
        &[
            (
                "w.json",
                r#"{"name":"w","base":"br-base.json",
                    "linux":{"source":"pfa-linux","config":"my.kfrag",
                             "modules":{"mydrv":"mydrv-src-v1"}}}"#,
            ),
            ("my.kfrag", "CONFIG_PFA=y\n# CONFIG_DEBUG_INFO is not set\n"),
        ],
    );
    let products = b.build("w.json", &BuildOptions::default()).unwrap();
    let result = common::simulate(&products.jobs[0]);
    // Custom kernel source version in the banner; fragment-enabled PFA
    // driver line; user module loaded by the initramfs.
    assert!(result.serial.contains("5.7.0-pfa"), "{}", result.serial);
    assert!(result
        .serial
        .contains("pfa: page fault accelerator driver registered"));
    assert!(result.serial.contains("mydrv: module loaded"));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn firmware_option_switches_sbi() {
    let root = common::tmpdir("opt-fw");
    let mut b = user_workload(
        &root,
        &[(
            "w.json",
            r#"{"name":"w","base":"br-base.json","firmware":{"use":"bbl"}}"#,
        )],
    );
    let products = b.build("w.json", &BuildOptions::default()).unwrap();
    let result = common::simulate(&products.jobs[0]);
    assert!(result.serial.contains("bbl loader"), "{}", result.serial);
    assert!(!result.serial.contains("OpenSBI"));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn spike_option_selects_simulator_with_args() {
    let root = common::tmpdir("opt-spike");
    let mut b = user_workload(
        &root,
        &[(
            "w.json",
            r#"{"name":"w","base":"br-base.json","spike":"pfa-spike","spike-args":["--isa=rv64imac"]}"#,
        )],
    );
    let products = b.build("w.json", &BuildOptions::default()).unwrap();
    let result = common::simulate(&products.jobs[0]);
    assert!(
        result.serial.contains("spike: starting"),
        "{}",
        result.serial
    );
    assert!(result.serial.contains("--isa=rv64imac"));
    assert!(result.serial.contains("feature `pfa` enabled"));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn rootfs_size_option_enforced() {
    let root = common::tmpdir("opt-size");
    let big = "x".repeat(8192);
    let mut b = user_workload(
        &root,
        &[
            (
                "w.json",
                r#"{"name":"w","base":"br-base.json","overlay":"big","rootfs-size":"1KiB"}"#,
            ),
            ("big/blob.bin", big.as_str()),
        ],
    );
    // The overlay pushes the image past 1 KiB: the build fails at the
    // size check.
    let err = b.build("w.json", &BuildOptions::default()).unwrap_err();
    assert!(err.to_string().contains("exceeds limit"), "{err}");
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn jobs_option_expands_nodes() {
    let root = common::tmpdir("opt-jobs");
    let mut b = user_workload(
        &root,
        &[(
            "w.json",
            r#"{"name":"w","base":"br-base.json","jobs":[
                {"name":"n0","command":"/bin/busybox"},
                {"name":"n1","command":"/bin/busybox"},
                {"name":"n2","command":"/bin/busybox"}]}"#,
        )],
    );
    let products = b.build("w.json", &BuildOptions::default()).unwrap();
    assert_eq!(products.jobs.len(), 3);
    assert_eq!(products.jobs[0].name, "w.n0");
    assert_eq!(products.jobs[2].name, "w.n2");
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn bin_option_makes_bare_metal_job() {
    let root = common::tmpdir("opt-bin");
    let mut b = user_workload(
        &root,
        &[
            (
                "w.json",
                r#"{"name":"w","base":"bare-metal.json","host-init":"mk.ms","bin":"prog.mexe"}"#,
            ),
            (
                "mk.ms",
                "#!mscript\nassemble_str(\"_start:\\n li a0, 7\\n li a7, 93\\n ecall\\n\", \"prog.mexe\")\n",
            ),
        ],
    );
    let products = b.build("w.json", &BuildOptions::default()).unwrap();
    assert!(matches!(
        products.jobs[0].kind,
        marshal_core::JobKind::Bare { .. }
    ));
    let result = common::simulate(&products.jobs[0]);
    assert_eq!(result.exit_code, 7);
    assert!(result.image.is_none());
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn yaml_workloads_build_and_run() {
    // FireMarshal accepts YAML specs interchangeably with JSON.
    let root = common::tmpdir("opt-yaml");
    let mut b = user_workload(
        &root,
        &[(
            "yamlwork.yaml",
            "name: yamlwork\nbase: br-base.json\ncommand: /bin/busybox\noutputs:\n  - /output\n",
        )],
    );
    let products = b.build("yamlwork.yaml", &BuildOptions::default()).unwrap();
    assert_eq!(products.top_spec.outputs, vec!["/output"]);
    let out = common::simulate(&products.jobs[0]);
    assert!(out.serial.contains("BusyBox"));
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn img_option_uses_hardcoded_image() {
    // Table II: users may provide a hard-coded disk image.
    let root = common::tmpdir("opt-img");
    // Pre-build a custom image file.
    let mut custom = marshal_image::FsImage::new();
    custom.mkdir_p("/etc/init.d").unwrap();
    custom
        .write_file("/etc/custom-marker", b"hard-coded")
        .unwrap();
    let wl_dir = root.join("user-workloads");
    std::fs::create_dir_all(&wl_dir).unwrap();
    std::fs::write(wl_dir.join("prebuilt.img"), custom.to_bytes()).unwrap();
    let mut b = user_workload(
        &root,
        &[(
            "w.json",
            r#"{"name":"w","base":"br-base.json","img":"prebuilt.img"}"#,
        )],
    );
    let products = b.build("w.json", &BuildOptions::default()).unwrap();
    let result = common::simulate(&products.jobs[0]);
    let image = result.image.unwrap();
    assert_eq!(
        image.read_file("/etc/custom-marker").unwrap(),
        b"hard-coded"
    );
    // The hard-coded image replaced the distro base entirely.
    assert!(!image.exists("/etc/os-release"));
    std::fs::remove_dir_all(root).unwrap();
}
