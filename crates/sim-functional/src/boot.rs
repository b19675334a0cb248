//! The full-system boot flow: firmware → kernel → initramfs → init system
//! → workload payload.
//!
//! Both functional simulators and the cycle-exact simulator drive this same
//! flow with the same artifacts; only the [`Executor`] differs. This is the
//! mechanism behind the paper's §III-E guarantee: "the workload outputs are
//! not modified in any way between the launch and install commands; the
//! exact same artifacts are run on both simulators."

use marshal_firmware::BootBinary;
use marshal_image::{initsys, FsImage};
use marshal_isa::MexeFile;

use crate::checkpoint::BootSnapshot;
use crate::guest::{Executor, GuestEnv, GuestOs};
use crate::machine::{LaunchMode, SimConfig, SimError, SimResult, WATCHDOG_EXIT_CODE};
use crate::syscall::{OsServices, UserRunner};

/// Whether a payload error means the guest hung and the watchdog fired.
///
/// Budget exhaustion reaches us three ways: as [`SimError::Budget`]
/// directly, stringified through mscript as a [`SimError::Script`], or —
/// most reliably — as an exhausted budget counter on the OS (executors
/// account the consumed budget before reporting the error).
fn watchdog_fired(err: &SimError, os: &GuestOs) -> bool {
    os.remaining_budget().is_err()
        || matches!(err, SimError::Budget { .. })
        || matches!(err, SimError::Script(m) if m.contains("instruction budget exhausted"))
}

/// Boots a Linux workload and runs its payload, with boot checkpointing.
///
/// `disk` is required when the kernel's initramfs hands off to `/dev/vda`
/// (normal builds) and unused for diskless (`--no-disk`) builds.
///
/// With `resume = Some(snapshot)` (and [`LaunchMode::Run`]) the entire boot
/// phase is skipped: the OS is rebuilt from the snapshot and only the
/// payload phase executes — `boot` and `disk` are not consulted at all.
///
/// On a cold run the boot state is captured at the payload seam and
/// returned alongside the result, but only when the boot phase retired zero
/// user instructions: a boot that executed guest binaries (init scripts
/// exec-ing programs, a still-pending `guest-init`) would have warmed the
/// cycle-exact simulator's timing pipeline, and restoring past it could
/// change modelled time. Refusing to capture keeps restores bit-exact by
/// construction. [`LaunchMode::GuestInit`] runs never capture or resume —
/// their purpose is the boot itself.
///
/// # Errors
///
/// [`SimError::BadArtifact`] for inconsistent artifacts (e.g. missing disk),
/// plus any trap/budget/script error from the payload.
pub fn simulate_linux<E: Executor>(
    cfg: &SimConfig,
    boot: &BootBinary,
    disk: Option<&FsImage>,
    mode: LaunchMode,
    exec: &mut E,
    resume: Option<&BootSnapshot>,
) -> Result<(SimResult, Option<BootSnapshot>), SimError> {
    let resume = resume.filter(|_| matches!(mode, LaunchMode::Run));
    let (os, systemd) = match resume {
        Some(snap) => (GuestOs::from_snapshot(snap, cfg), snap.systemd),
        None => boot_linux(cfg, boot, disk, exec)?,
    };
    let captured = if resume.is_none() && matches!(mode, LaunchMode::Run) && os.instructions == 0 {
        Some(os.snapshot(systemd))
    } else {
        None
    };
    let result = run_payload(cfg, os, systemd, mode, exec)?;
    Ok((result, captured))
}

/// The boot phase: firmware → kernel → initramfs → root mount → init
/// system → (pending) guest-init. Returns the OS at the payload seam and
/// the detected-systemd flag.
fn boot_linux<E: Executor>(
    cfg: &SimConfig,
    boot: &BootBinary,
    disk: Option<&FsImage>,
    exec: &mut E,
) -> Result<(GuestOs, bool), SimError> {
    // --- Simulator banner -------------------------------------------------
    let mut preboot = Vec::new();
    let args = if cfg.extra_args.is_empty() {
        String::new()
    } else {
        format!(" {}", cfg.extra_args.join(" "))
    };
    preboot.push(format!(
        "{}: starting full-system simulation{args}",
        cfg.kind.name()
    ));
    for feature in &cfg.features {
        preboot.push(format!("{}: feature `{feature}` enabled", cfg.kind.name()));
    }

    // --- Firmware ----------------------------------------------------------
    for line in boot.firmware().banner().lines() {
        preboot.push(line.to_owned());
    }

    // --- Kernel ------------------------------------------------------------
    let kernel = boot.kernel();
    let initramfs_img = kernel
        .initramfs()
        .unpack()
        .map_err(|e| SimError::BadArtifact(e.to_string()))?;

    // Start the OS on the initramfs; the /init script picks the real root.
    let mut os = GuestOs::new(initramfs_img.clone(), cfg);
    for line in preboot {
        os.serial_line(&line);
    }
    os.dmesg(&kernel.banner());
    os.dmesg(&format!("Machine model: firemarshal,{}", cfg.kind.name()));
    os.dmesg("Memory: 16384MB available");
    let cpus = kernel
        .config()
        .get("NR_CPUS")
        .and_then(|v| match v {
            marshal_linux::ConfigValue::Int(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(1);
    os.dmesg(&format!("smp: Brought up 1 node, {cpus} CPUs"));
    if kernel.config().is_enabled("NET") {
        os.dmesg("NET: Registered protocol family 2");
    }
    if kernel.config().is_enabled("SERIAL_8250") {
        os.dmesg("Serial: 8250/16550 driver");
    }
    if kernel.config().is_enabled("PFA") {
        os.dmesg("pfa: page fault accelerator driver registered");
    }
    // Boot work scales with the artifact like real load/decompress time.
    os.account(0, boot.size() / 256);
    os.dmesg(&format!(
        "Unpacking initramfs... ({} modules)",
        kernel.initramfs().module_names().len()
    ));

    // --- First-stage init (initramfs /init) --------------------------------
    if os.image.exists(marshal_linux::initramfs::INIT_PATH) {
        let init_src = String::from_utf8_lossy(
            os.image
                .read_file(marshal_linux::initramfs::INIT_PATH)
                .expect("checked exists"),
        )
        .into_owned();
        let mut env = GuestEnv::new(&mut os, exec);
        env.run_script_source(&init_src, &[])?;
    }

    // --- Mount the real root -----------------------------------------------
    let target = os.switch_root_target.clone();
    let rootfs = match target.as_deref() {
        Some("initramfs") => {
            // Diskless: the initramfs payload IS the rootfs.
            let mut root = os.image.clone();
            root.remove(marshal_linux::initramfs::INIT_PATH);
            root
        }
        Some(_dev) => disk
            .ok_or_else(|| {
                SimError::BadArtifact(
                    "kernel wants a root block device but no disk image was provided".to_owned(),
                )
            })?
            .clone(),
        None => match disk {
            Some(d) => d.clone(),
            None => os.image.clone(),
        },
    };
    os.image = rootfs;
    os.image
        .write_file("/etc/kernel-release", kernel.version().as_bytes())?;
    os.dmesg("VFS: Mounted root (ext4 filesystem) readonly on device 254:0.");

    // --- Init system --------------------------------------------------------
    let systemd = os.image.exists("/etc/systemd/system");
    if systemd {
        os.serial_line("systemd[1]: Detected architecture riscv64.");
        os.serial_line("systemd[1]: Reached target Local File Systems.");
        os.serial_line("systemd[1]: Reached target Multi-User System.");
    } else {
        os.serial_line("Starting syslogd: OK");
        os.serial_line("Starting network: OK");
    }

    // --- guest-init (one-shot, §III-B step 5b) ------------------------------
    if initsys::guest_init_pending(&os.image) {
        let src = String::from_utf8_lossy(
            os.image
                .read_file(initsys::GUEST_INIT_PATH)
                .expect("pending implies present"),
        )
        .into_owned();
        os.serial_line("firemarshal: running one-shot guest-init");
        // Scar the image before the script runs: a crash (or torn image
        // write) mid-guest-init leaves `guest-init.started` behind, so the
        // interrupted image is detectable instead of silently half-built.
        initsys::mark_guest_init_started(&mut os.image)?;
        {
            let mut env = GuestEnv::new(&mut os, exec);
            env.run_script_source(&src, &[])?;
        }
        initsys::mark_guest_init_done(&mut os.image)?;
        os.serial_line("firemarshal: guest-init complete");
    }

    Ok((os, systemd))
}

/// The payload phase: everything after the post-init seam.
fn run_payload<E: Executor>(
    cfg: &SimConfig,
    mut os: GuestOs,
    systemd: bool,
    mode: LaunchMode,
    exec: &mut E,
) -> Result<SimResult, SimError> {
    // --- Workload payload ----------------------------------------------------
    // Boot problems (init scripts, guest-init) stay hard errors: a broken
    // image is a build defect, not a hung workload. Only the payload phase
    // runs under the watchdog — budget exhaustion there terminates the
    // guest and salvages the partial serial log and image instead of
    // throwing everything away.
    let mut timed_out = false;
    if matches!(mode, LaunchMode::Run) {
        if os.image.exists(initsys::RUN_SCRIPT) {
            let src =
                String::from_utf8_lossy(os.image.read_file(initsys::RUN_SCRIPT).expect("exists"))
                    .into_owned();
            if systemd {
                os.serial_line("systemd[1]: Starting FireMarshal workload payload...");
            } else {
                os.serial_line("Starting firemarshal payload:");
            }
            let payload_err = {
                let mut env = GuestEnv::new(&mut os, exec);
                env.run_script_source(&src, &[]).err()
            };
            if let Some(e) = payload_err {
                if watchdog_fired(&e, &os) {
                    timed_out = true;
                    os.serial_line(&format!(
                        "firemarshal: watchdog: instruction budget exhausted \
                         ({} instructions); terminating hung guest",
                        cfg.max_instructions
                    ));
                    os.last_exit = WATCHDOG_EXIT_CODE;
                } else {
                    return Err(e);
                }
            }
        } else {
            os.serial_line("firemarshal: no run/command configured; interactive console");
            os.serial_line("buildroot login: root (automatic login)");
            os.serial_line("#");
        }
    }

    if !timed_out {
        os.dmesg("reboot: Power down");
    }
    let (serial, image, instructions, exit_code) = os.into_parts();
    Ok(SimResult {
        serial,
        image: Some(image),
        exit_code,
        instructions,
        timed_out,
    })
}

/// The only device of a bare-metal machine: a console whose output is
/// captured. File access fails.
pub struct BareConsole {
    /// The serial log so far.
    pub serial: String,
}

impl OsServices for BareConsole {
    fn serial_write(&mut self, bytes: &[u8]) {
        self.serial.push_str(&String::from_utf8_lossy(bytes));
    }
    fn file_read(&mut self, _path: &str) -> Option<Vec<u8>> {
        None
    }
    fn file_write(&mut self, _path: &str, _data: &[u8]) -> bool {
        false
    }
}

/// Loads a bare-metal workload binary onto a fresh hart with the UART
/// mapped.
///
/// # Errors
///
/// [`SimError::BadArtifact`] for non-MEXE binaries.
pub fn load_bare(bin: &[u8]) -> Result<UserRunner, SimError> {
    if !MexeFile::sniff(bin) {
        return Err(SimError::BadArtifact(
            "bare-metal workload binary is not a MEXE image".to_owned(),
        ));
    }
    let exe = MexeFile::from_bytes(bin)
        .map_err(|e| SimError::BadArtifact(format!("bare-metal binary: {e}")))?;
    let mut runner = UserRunner::new(&exe, &[])?;
    runner.bus.enable_uart();
    Ok(runner)
}

/// Runs a bare-metal workload: the hard-coded `bin` executes directly on
/// the hart with the console as its only device.
///
/// # Errors
///
/// [`SimError::BadArtifact`] for non-MEXE binaries; traps and budget errors
/// from execution.
pub(crate) fn simulate_bare(cfg: &SimConfig, bin: &[u8]) -> Result<SimResult, SimError> {
    let mut runner = load_bare(bin)?;
    let mut os = BareConsole {
        serial: format!("{}: starting bare-metal simulation\n", cfg.kind.name()),
    };
    let limit = cfg.max_instructions;
    let (exit_code, instructions, timed_out) = match runner.run(&mut os, limit, &mut ())? {
        (Some(code), insts) => (code, insts, false),
        (None, _) => {
            os.serial.push_str(&format!(
                "{}: watchdog: instruction budget exhausted ({limit} instructions); \
                 terminating hung guest\n",
                cfg.kind.name()
            ));
            (WATCHDOG_EXIT_CODE, limit, true)
        }
    };
    if !timed_out {
        os.serial.push_str(&format!(
            "{}: exited with code {exit_code}\n",
            cfg.kind.name()
        ));
    }
    Ok(SimResult {
        serial: os.serial,
        image: None,
        exit_code,
        instructions,
        timed_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest::FunctionalExecutor;
    use crate::machine::SimKind;
    use marshal_firmware::{build_firmware, link_boot_binary, FirmwareBuild};
    use marshal_image::{BootPayload, InitSystem};
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;
    use marshal_linux::kconfig::KernelConfig;
    use marshal_linux::kernel::{build_kernel, KernelSource};
    use marshal_linux::InitramfsSpec;

    fn boot_binary(diskless_rootfs: Option<FsImage>) -> BootBinary {
        let config = KernelConfig::riscv_defconfig();
        let src = KernelSource::default_source();
        let mut spec = InitramfsSpec::new().module("iceblk", "v1");
        if let Some(rootfs) = diskless_rootfs {
            spec = spec.embed_rootfs(rootfs);
        }
        let initramfs = spec.build(&config, &src).unwrap();
        let kernel = build_kernel(&src, &config, &initramfs).unwrap();
        let fw = build_firmware(&FirmwareBuild::default()).unwrap();
        link_boot_binary(&fw, &kernel).unwrap()
    }

    /// A cold boot with no snapshot to resume from.
    fn cold(
        cfg: &SimConfig,
        boot: &BootBinary,
        disk: Option<&FsImage>,
        mode: LaunchMode,
    ) -> Result<SimResult, SimError> {
        simulate_linux(cfg, boot, disk, mode, &mut FunctionalExecutor, None).map(|(r, _)| r)
    }

    fn disk_with_payload(cmd: &str) -> FsImage {
        let mut img = FsImage::new();
        img.write_file("/etc/hostname", b"buildroot").unwrap();
        img.mkdir_p("/etc/init.d").unwrap();
        let exe = assemble(
            r#"
        .data
msg:    .ascii "payload ran\n"
        .text
_start:
        li      a0, 1
        la      a1, msg
        li      a2, 12
        li      a7, 64
        ecall
        li      a0, 0
        li      a7, 93
        ecall
"#,
            abi::USER_BASE,
        )
        .unwrap();
        img.write_exec("/bin/payload", &exe.to_bytes()).unwrap();
        InitSystem::Initd
            .install_payload(&mut img, &BootPayload::Command(cmd.to_owned()))
            .unwrap();
        img
    }

    #[test]
    fn full_boot_runs_payload() {
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(None);
        let disk = disk_with_payload("/bin/payload");
        let result = cold(&cfg, &boot, Some(&disk), LaunchMode::Run).unwrap();
        let serial = &result.serial;
        assert!(serial.contains("OpenSBI"), "firmware banner: {serial}");
        assert!(serial.contains("Linux version"), "kernel banner");
        assert!(serial.contains("iceblk: module loaded"), "module load");
        assert!(serial.contains("payload ran"), "payload output: {serial}");
        assert!(serial.contains("reboot: Power down"));
        assert_eq!(result.exit_code, 0);
        assert!(result.instructions > 0);
    }

    /// The snapshot a cold `Run` of `disk` captures.
    fn capture(cfg: &SimConfig, boot: &BootBinary, disk: &FsImage) -> (SimResult, BootSnapshot) {
        let (result, snap) = simulate_linux(
            cfg,
            boot,
            Some(disk),
            LaunchMode::Run,
            &mut FunctionalExecutor,
            None,
        )
        .unwrap();
        (
            result,
            snap.expect("a cold eligible Run captures a snapshot"),
        )
    }

    #[test]
    fn restored_run_equals_cold_run() {
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(None);
        let disk = disk_with_payload("/bin/payload");
        let (cold_run, snap) = capture(&cfg, &boot, &disk);
        assert_eq!(snap.instructions, 0);
        // No disk: a cold boot would fail, so the restore provably skipped
        // the boot phase.
        let (restored, again) = simulate_linux(
            &cfg,
            &boot,
            None,
            LaunchMode::Run,
            &mut FunctionalExecutor,
            Some(&snap),
        )
        .unwrap();
        assert_eq!(restored, cold_run);
        assert!(again.is_none(), "a restored run captures nothing");
    }

    #[test]
    fn guest_init_neither_resumes_nor_captures() {
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(None);
        let mut disk = disk_with_payload("/bin/payload");
        let (_, snap) = capture(&cfg, &boot, &disk);
        initsys::install_guest_init(&mut disk, "#!mscript\nprint(\"guest-init!\")\n").unwrap();
        let (result, captured) = simulate_linux(
            &cfg,
            &boot,
            Some(&disk),
            LaunchMode::GuestInit,
            &mut FunctionalExecutor,
            Some(&snap),
        )
        .unwrap();
        assert!(captured.is_none());
        assert!(result.serial.contains("guest-init!"), "booted, not resumed");
        assert_eq!(
            result,
            cold(&cfg, &boot, Some(&disk), LaunchMode::GuestInit).unwrap()
        );
    }

    #[test]
    fn boot_that_retired_user_instructions_is_not_captured() {
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(None);
        let mut disk = disk_with_payload("/bin/payload");
        // A pending guest-init runs during a `Run` boot and execs a program.
        initsys::install_guest_init(&mut disk, "#!mscript\nexec(\"/bin/payload\")\n").unwrap();
        let (result, captured) = simulate_linux(
            &cfg,
            &boot,
            Some(&disk),
            LaunchMode::Run,
            &mut FunctionalExecutor,
            None,
        )
        .unwrap();
        assert!(result.serial.contains("guest-init complete"));
        assert!(captured.is_none());
    }

    #[test]
    fn bare_jobs_ignore_resume_and_capture_nothing() {
        let cfg = SimConfig::new(SimKind::Spike);
        let (_, snap) = capture(&cfg, &boot_binary(None), &disk_with_payload("/bin/payload"));
        let exe = assemble("_start:\n li a0, 7\n li a7, 93\n ecall\n", abi::USER_BASE).unwrap();
        let job = crate::LoadedJob::Bare {
            bin: exe.to_bytes(),
        };
        let sim = crate::FunctionalSim::new(SimKind::Spike);
        let (resumed, captured) = sim.run(&job, LaunchMode::Run, Some(&snap)).unwrap();
        assert!(captured.is_none());
        assert_eq!(resumed.exit_code, 7);
        assert_eq!(resumed, sim.run(&job, LaunchMode::Run, None).unwrap().0);
    }

    #[test]
    fn boot_order_is_correct() {
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(None);
        let disk = disk_with_payload("/bin/payload");
        let result = cold(&cfg, &boot, Some(&disk), LaunchMode::Run).unwrap();
        let s = &result.serial;
        let fw = s.find("OpenSBI").unwrap();
        let kernel = s.find("Linux version").unwrap();
        let module = s.find("iceblk: module loaded").unwrap();
        let init = s.find("Starting syslogd").unwrap();
        let payload = s.find("payload ran").unwrap();
        let off = s.find("reboot: Power down").unwrap();
        assert!(fw < kernel && kernel < module && module < init && init < payload && payload < off);
    }

    #[test]
    fn missing_disk_is_error() {
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(None);
        assert!(matches!(
            cold(&cfg, &boot, None, LaunchMode::Run),
            Err(SimError::BadArtifact(_))
        ));
    }

    #[test]
    fn diskless_boot_uses_embedded_rootfs() {
        let rootfs = disk_with_payload("/bin/payload");
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(Some(rootfs));
        let result = cold(&cfg, &boot, None, LaunchMode::Run).unwrap();
        assert!(result.serial.contains("switching root to initramfs"));
        assert!(result.serial.contains("payload ran"));
    }

    #[test]
    fn guest_init_runs_once_and_marks_done() {
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(None);
        let mut disk = disk_with_payload("/bin/payload");
        initsys::install_guest_init(
            &mut disk,
            "#!mscript\nprint(\"guest-init!\")\nwrite_file(\"/etc/setup-done\", \"yes\")\n",
        )
        .unwrap();
        let result = cold(&cfg, &boot, Some(&disk), LaunchMode::GuestInit).unwrap();
        assert!(result.serial.contains("guest-init!"));
        // Payload NOT run in guest-init mode.
        assert!(!result.serial.contains("payload ran"));
        let image = result.image.unwrap();
        assert_eq!(image.read_file("/etc/setup-done").unwrap(), b"yes");
        assert!(!initsys::guest_init_pending(&image));

        // Booting the post-init image again: guest-init must not re-run.
        let result2 = cold(&cfg, &boot, Some(&image), LaunchMode::Run).unwrap();
        assert!(!result2.serial.contains("guest-init!"));
        assert!(result2.serial.contains("payload ran"));
    }

    #[test]
    fn interactive_boot_without_payload() {
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(None);
        let mut disk = FsImage::new();
        disk.mkdir_p("/etc/init.d").unwrap();
        let result = cold(&cfg, &boot, Some(&disk), LaunchMode::Run).unwrap();
        assert!(result.serial.contains("interactive console"));
    }

    #[test]
    fn systemd_images_print_systemd_lines() {
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(None);
        let mut disk = FsImage::new();
        InitSystem::Systemd
            .install_payload(&mut disk, &BootPayload::Command("/bin/payload".into()))
            .unwrap();
        let exe = assemble("_start:\n li a0, 0\n li a7, 93\n ecall\n", abi::USER_BASE).unwrap();
        disk.write_exec("/bin/payload", &exe.to_bytes()).unwrap();
        let result = cold(&cfg, &boot, Some(&disk), LaunchMode::Run).unwrap();
        assert!(result.serial.contains("Multi-User System"));
        assert!(result
            .serial
            .contains("Starting FireMarshal workload payload"));
    }

    #[test]
    fn bare_metal_runs() {
        let cfg = SimConfig::new(SimKind::Spike);
        let exe = assemble(
            r#"
        .data
msg:    .ascii "bare metal ok\n"
        .text
_start:
        li      a0, 1
        la      a1, msg
        li      a2, 14
        li      a7, 64
        ecall
        li      a0, 0
        li      a7, 93
        ecall
"#,
            abi::USER_BASE,
        )
        .unwrap();
        let result = simulate_bare(&cfg, &exe.to_bytes()).unwrap();
        assert!(result.serial.contains("bare metal ok"));
        assert_eq!(result.exit_code, 0);
        assert!(result.image.is_none());
        assert!(simulate_bare(&cfg, b"garbage").is_err());
    }

    #[test]
    fn watchdog_salvages_hung_payload() {
        let mut cfg = SimConfig::new(SimKind::Qemu);
        cfg.max_instructions = 50_000;
        let boot = boot_binary(None);
        let mut disk = FsImage::new();
        disk.mkdir_p("/etc/init.d").unwrap();
        let spin = assemble("_start:\n j _start\n", abi::USER_BASE).unwrap();
        disk.write_exec("/bin/spin", &spin.to_bytes()).unwrap();
        InitSystem::Initd
            .install_payload(&mut disk, &BootPayload::Command("/bin/spin".to_owned()))
            .unwrap();
        let result = cold(&cfg, &boot, Some(&disk), LaunchMode::Run).unwrap();
        assert!(result.timed_out);
        assert!(!result.success());
        assert_eq!(result.exit_code, WATCHDOG_EXIT_CODE);
        let serial = &result.serial;
        assert!(
            serial.contains("watchdog: instruction budget exhausted"),
            "diagnostic in salvaged log: {serial}"
        );
        // Everything up to the hang is salvaged; the clean-shutdown line
        // is not faked.
        assert!(serial.contains("OpenSBI"), "boot log salvaged: {serial}");
        assert!(!serial.contains("reboot: Power down"));
        assert!(result.image.is_some(), "partial image salvaged");
    }

    #[test]
    fn hung_guest_init_is_a_hard_error() {
        // A hang during build-time guest-init is a build defect, not a
        // workload timeout: no salvage.
        let mut cfg = SimConfig::new(SimKind::Qemu);
        cfg.max_instructions = 50_000;
        let boot = boot_binary(None);
        let mut disk = disk_with_payload("/bin/payload");
        let spin = assemble("_start:\n j _start\n", abi::USER_BASE).unwrap();
        disk.write_exec("/bin/spin", &spin.to_bytes()).unwrap();
        initsys::install_guest_init(&mut disk, "#!mscript\nexec(\"/bin/spin\")\n").unwrap();
        assert!(cold(&cfg, &boot, Some(&disk), LaunchMode::GuestInit).is_err());
    }

    #[test]
    fn bare_metal_watchdog() {
        let mut cfg = SimConfig::new(SimKind::Spike);
        cfg.max_instructions = 10_000;
        let spin = assemble("_start:\n j _start\n", abi::USER_BASE).unwrap();
        let result = simulate_bare(&cfg, &spin.to_bytes()).unwrap();
        assert!(result.timed_out);
        assert!(!result.success());
        assert_eq!(result.exit_code, WATCHDOG_EXIT_CODE);
        assert!(result.serial.contains("watchdog"), "{}", result.serial);
    }

    #[test]
    fn deterministic_serial_logs() {
        let cfg = SimConfig::new(SimKind::Qemu);
        let boot = boot_binary(None);
        let disk = disk_with_payload("/bin/payload");
        let a = cold(&cfg, &boot, Some(&disk), LaunchMode::Run).unwrap();
        let b = cold(&cfg, &boot, Some(&disk), LaunchMode::Run).unwrap();
        assert_eq!(a.serial, b.serial);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn different_simulators_differ_only_in_volatile_lines() {
        let boot = boot_binary(None);
        let disk = disk_with_payload("/bin/payload");
        let q = cold(
            &SimConfig::new(SimKind::Qemu),
            &boot,
            Some(&disk),
            LaunchMode::Run,
        )
        .unwrap();
        let s = cold(
            &SimConfig::new(SimKind::Spike),
            &boot,
            Some(&disk),
            LaunchMode::Run,
        )
        .unwrap();
        // Raw logs differ (timestamps, banner)...
        assert_ne!(q.serial, s.serial);
        // ...but stripping the volatile prefix yields identical content.
        let clean = |log: &str| -> Vec<String> {
            log.lines()
                .filter(|l| !l.starts_with("qemu") && !l.starts_with("spike"))
                .map(|l| match l.find("] ") {
                    Some(i) if l.starts_with('[') => l[i + 2..].to_owned(),
                    _ => l.to_owned(),
                })
                .filter(|l| !l.starts_with("Machine model"))
                .collect()
        };
        assert_eq!(clean(&q.serial), clean(&s.serial));
    }
}

#[cfg(test)]
mod mmio_tests {
    use super::*;
    use crate::machine::{SimConfig, SimKind};
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;

    #[test]
    fn bare_metal_mmio_uart() {
        // A driver-style program that writes the console through the
        // memory-mapped UART instead of the syscall ABI (§IV-A-1 bare
        // metal unit tests).
        let src = r#"
        .equ UART_TX, 0x60000000
        .data
msg:    .asciiz "mmio uart ok"
        .text
_start:
        li      t0, UART_TX
        la      t1, msg
loop:
        lbu     t2, 0(t1)
        beqz    t2, done
        # poll status (always ready in the model), then transmit
        ld      t3, 0(t0)
        sb      t2, 0(t0)
        addi    t1, t1, 1
        j       loop
done:
        li      t2, 10          # newline
        sb      t2, 0(t0)
        li      a0, 0
        li      a7, 93
        ecall
"#;
        let exe = assemble(src, abi::USER_BASE).unwrap();
        let cfg = SimConfig::new(SimKind::Spike);
        let result = simulate_bare(&cfg, &exe.to_bytes()).unwrap();
        assert!(
            result.serial.contains("mmio uart ok\n"),
            "{}",
            result.serial
        );
        assert_eq!(result.exit_code, 0);
    }
}
