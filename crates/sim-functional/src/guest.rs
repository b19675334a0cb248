//! The modelled guest operating system.
//!
//! [`GuestOs`] owns the mounted root filesystem, the serial console, and
//! the guest clock. [`GuestEnv`] exposes the guest to mscript — it is the
//! environment in which init scripts, `guest-init`, and the workload's
//! boot payload run. Program execution goes through the [`Executor`] trait
//! so the cycle-exact simulator can attach its timing model while sharing
//! every other piece of the OS model; every executor runs programs with
//! [`exec_timed`].

use marshal_image::FsImage;
use marshal_isa::MexeFile;
use marshal_script::{Extern, ExternResult, Interp, Value};

use crate::checkpoint::BootSnapshot;
use crate::machine::{SimConfig, SimError, SimKind};
use crate::syscall::{OsServices, Timing, UserRunner};

/// Maximum nesting of guest scripts/binaries (scripts invoking scripts).
const MAX_EXEC_DEPTH: u32 = 8;

/// Executes user programs — functionally here, with a timing model in the
/// cycle-exact simulator.
pub trait Executor {
    /// Runs `exe` with `args` against the guest OS; returns
    /// `(exit_code, instructions)`.
    ///
    /// # Errors
    ///
    /// Propagates traps, budget exhaustion, and artifact errors.
    fn exec(
        &mut self,
        exe: &MexeFile,
        args: &[String],
        os: &mut GuestOs,
    ) -> Result<(i64, u64), SimError>;
}

/// The functional executor: no timing model, one cycle per instruction.
#[derive(Debug, Clone, Copy)]
pub struct FunctionalExecutor;

impl Executor for FunctionalExecutor {
    fn exec(
        &mut self,
        exe: &MexeFile,
        args: &[String],
        os: &mut GuestOs,
    ) -> Result<(i64, u64), SimError> {
        exec_timed(&mut (), exe, args, os)
    }
}

/// Runs `exe` with `args` under the timing model `timing` and charges the
/// guest clock: the model's cycles when it keeps them, else one cycle per
/// instruction. The body of every [`Executor`]; returns
/// `(exit_code, instructions)`.
///
/// # Errors
///
/// [`SimError::Budget`] when the program exhausts the remaining
/// instruction budget, plus any error from [`UserRunner::run`].
pub fn exec_timed<T: Timing + ?Sized>(
    timing: &mut T,
    exe: &MexeFile,
    args: &[String],
    os: &mut GuestOs,
) -> Result<(i64, u64), SimError> {
    let budget = os.remaining_budget()?;
    let mut runner = UserRunner::new(exe, args)?;
    let start = timing.cycles();
    let (exit, insts) = runner.run(os, budget, timing)?;
    let end = timing.cycles();
    let cycles = |insts: u64| match (start, end) {
        (Some(start), Some(end)) => end - start,
        _ => insts,
    };
    match exit {
        Some(code) => {
            os.account(insts, cycles(insts));
            Ok((code, insts))
        }
        None => {
            // The program consumed the whole remaining budget before it
            // was stopped. Account it so `remaining_budget()` reports
            // exhaustion — the watchdog relies on this to tell a hung
            // guest apart from an ordinary script failure even after
            // the error has been stringified through mscript.
            os.account(budget, cycles(budget));
            Err(SimError::Budget { limit: budget })
        }
    }
}

/// The guest operating system state during a simulation.
#[derive(Debug)]
pub struct GuestOs {
    /// The mounted root filesystem (mutated by the run).
    pub image: FsImage,
    serial: String,
    /// Guest cycles (functional sims count instructions).
    pub cycles: u64,
    /// Total user instructions retired.
    pub instructions: u64,
    kind: SimKind,
    max_instructions: u64,
    /// Exit code of the most recently executed program.
    pub last_exit: i64,
    /// Root device requested by the initramfs `switch_root` call.
    pub switch_root_target: Option<String>,
}

impl GuestOs {
    /// Creates the guest OS around a root filesystem.
    pub fn new(image: FsImage, cfg: &SimConfig) -> GuestOs {
        GuestOs {
            image,
            serial: String::new(),
            cycles: 0,
            instructions: 0,
            kind: cfg.kind,
            max_instructions: cfg.max_instructions,
            last_exit: 0,
            switch_root_target: None,
        }
    }

    /// The serial log so far.
    pub fn serial(&self) -> &str {
        &self.serial
    }

    /// Captures the complete observable OS state as a [`BootSnapshot`].
    ///
    /// `systemd` is the init-system flag the boot phase computed; it rides
    /// along so a restored payload phase prints the identical console
    /// lines. The image clone is O(1) (copy-on-write).
    pub fn snapshot(&self, systemd: bool) -> BootSnapshot {
        BootSnapshot {
            serial: self.serial.clone(),
            image: self.image.clone(),
            cycles: self.cycles,
            instructions: self.instructions,
            last_exit: self.last_exit,
            switch_root_target: self.switch_root_target.clone(),
            systemd,
        }
    }

    /// Rebuilds the OS exactly as it was when `snap` was captured.
    ///
    /// `cfg` must describe the same simulator configuration the snapshot
    /// was taken under (the checkpoint store keys snapshots by it).
    pub fn from_snapshot(snap: &BootSnapshot, cfg: &SimConfig) -> GuestOs {
        GuestOs {
            image: snap.image.clone(),
            serial: snap.serial.clone(),
            cycles: snap.cycles,
            instructions: snap.instructions,
            kind: cfg.kind,
            max_instructions: cfg.max_instructions,
            last_exit: snap.last_exit,
            switch_root_target: snap.switch_root_target.clone(),
        }
    }

    /// Takes the serial log out of the OS.
    pub fn into_parts(self) -> (String, FsImage, u64, i64) {
        (self.serial, self.image, self.instructions, self.last_exit)
    }

    /// Appends a raw line to the serial console.
    pub fn serial_line(&mut self, line: &str) {
        self.serial.push_str(line);
        self.serial.push('\n');
    }

    /// Appends a kernel-style line with a `[ seconds.micros ]` timestamp
    /// derived from the guest clock — the non-deterministic-looking prefix
    /// FireMarshal's output cleaning strips.
    pub fn dmesg(&mut self, line: &str) {
        let ns = self.cycles * self.kind.ns_per_instruction();
        let secs = ns / 1_000_000_000;
        let micros = (ns % 1_000_000_000) / 1_000;
        self.serial
            .push_str(&format!("[{secs:5}.{micros:06}] {line}\n"));
        // Each dmesg line models a little boot work.
        self.cycles += 1_000;
    }

    /// Instruction budget remaining.
    ///
    /// # Errors
    ///
    /// [`SimError::Budget`] once the budget is exhausted.
    pub fn remaining_budget(&self) -> Result<u64, SimError> {
        if self.instructions >= self.max_instructions {
            return Err(SimError::Budget {
                limit: self.max_instructions,
            });
        }
        Ok(self.max_instructions - self.instructions)
    }

    /// Accounts executed instructions and elapsed cycles.
    pub fn account(&mut self, instructions: u64, cycles: u64) {
        self.instructions += instructions;
        self.cycles += cycles;
    }

    /// Loads an executable file from the image.
    ///
    /// # Errors
    ///
    /// [`SimError::BadArtifact`] when missing or not executable.
    pub fn load_program(&self, path: &str) -> Result<GuestProgram, SimError> {
        let data = self
            .image
            .read_file(path)
            .map_err(|e| SimError::BadArtifact(format!("exec {path}: {e}")))?;
        if MexeFile::sniff(data) {
            let exe = MexeFile::from_bytes(data)
                .map_err(|e| SimError::BadArtifact(format!("exec {path}: {e}")))?;
            Ok(GuestProgram::Binary(exe))
        } else if marshal_script::is_mscript(data) {
            Ok(GuestProgram::Script(
                String::from_utf8_lossy(data).into_owned(),
            ))
        } else {
            Err(SimError::BadArtifact(format!(
                "exec {path}: not a MEXE binary or mscript"
            )))
        }
    }
}

/// An executable loaded from the guest image.
#[derive(Debug, Clone)]
pub enum GuestProgram {
    /// A MEXE machine-code binary.
    Binary(MexeFile),
    /// An mscript source file.
    Script(String),
}

impl OsServices for GuestOs {
    fn serial_write(&mut self, bytes: &[u8]) {
        self.serial.push_str(&String::from_utf8_lossy(bytes));
    }

    fn file_read(&mut self, path: &str) -> Option<Vec<u8>> {
        self.image.read_file(path).ok().map(<[u8]>::to_vec)
    }

    fn file_write(&mut self, path: &str, data: &[u8]) -> bool {
        self.image.write_file(path, data).is_ok()
    }
}

/// The mscript environment for guest scripts.
pub struct GuestEnv<'a, E: Executor> {
    /// The guest OS.
    pub os: &'a mut GuestOs,
    /// Program executor (functional or timed).
    pub exec: &'a mut E,
    depth: u32,
}

impl<'a, E: Executor> GuestEnv<'a, E> {
    /// Creates the environment.
    pub fn new(os: &'a mut GuestOs, exec: &'a mut E) -> GuestEnv<'a, E> {
        GuestEnv { os, exec, depth: 0 }
    }

    /// Runs a guest script from source with arguments.
    ///
    /// # Errors
    ///
    /// Script errors and any execution error, as [`SimError::Script`].
    pub fn run_script_source(&mut self, source: &str, args: &[Value]) -> Result<Value, SimError> {
        let mut interp = Interp::new();
        let result = interp
            .run(source, self, args)
            .map_err(|e| SimError::Script(e.to_string()))?;
        Ok(result)
    }

    fn exec_path(&mut self, path: &str, args: &[String]) -> Result<i64, SimError> {
        if self.depth >= MAX_EXEC_DEPTH {
            return Err(SimError::Script(format!(
                "exec depth limit reached running {path}"
            )));
        }
        let program = self.os.load_program(path)?;
        let code = match program {
            GuestProgram::Binary(exe) => {
                let mut argv = vec![path.to_owned()];
                argv.extend(args.iter().cloned());
                let (code, _) = self.exec.exec(&exe, &argv, self.os)?;
                code
            }
            GuestProgram::Script(source) => {
                self.depth += 1;
                let argv: Vec<Value> = args.iter().map(|a| Value::Str(a.clone())).collect();
                let result = self.run_script_source(&source, &argv);
                self.depth -= 1;
                result?;
                self.os.last_exit
            }
        };
        self.os.last_exit = code;
        Ok(code)
    }

    fn exec_line(&mut self, line: &str) -> Result<i64, SimError> {
        let mut parts = line.split_whitespace();
        let Some(path) = parts.next() else {
            return Ok(0);
        };
        let args: Vec<String> = parts.map(str::to_owned).collect();
        self.exec_path(path, &args)
    }
}

impl<E: Executor> Extern for GuestEnv<'_, E> {
    fn call(&mut self, name: &str, args: &[Value]) -> ExternResult {
        let str_arg = |i: usize| -> Result<&str, String> {
            match args.get(i) {
                Some(Value::Str(s)) => Ok(s.as_str()),
                other => Err(format!(
                    "{name}: argument {i} must be a string, got {:?}",
                    other.map(Value::type_name)
                )),
            }
        };
        let result = (|| -> Result<Option<Value>, String> {
            match name {
                "print" => {
                    let line = args.iter().map(Value::render).collect::<Vec<_>>().join(" ");
                    self.os.serial_line(&line);
                    Ok(Some(Value::Null))
                }
                "exec" => {
                    let path = str_arg(0)?.to_owned();
                    let rest: Vec<String> = args[1..]
                        .iter()
                        .map(|v| match v {
                            Value::Str(s) => s.clone(),
                            other => other.render(),
                        })
                        .collect();
                    let code = self.exec_path(&path, &rest).map_err(|e| e.to_string())?;
                    Ok(Some(Value::Int(code)))
                }
                "exec_line" => {
                    let line = str_arg(0)?.to_owned();
                    let code = self.exec_line(&line).map_err(|e| e.to_string())?;
                    Ok(Some(Value::Int(code)))
                }
                "run_script" => {
                    let path = str_arg(0)?.to_owned();
                    let code = self.exec_path(&path, &[]).map_err(|e| e.to_string())?;
                    Ok(Some(Value::Int(code)))
                }
                "read_file" => {
                    let path = str_arg(0)?;
                    let data = self.os.image.read_file(path).map_err(|e| e.to_string())?;
                    Ok(Some(Value::Str(String::from_utf8_lossy(data).into_owned())))
                }
                "write_file" => {
                    let path = str_arg(0)?.to_owned();
                    let body = str_arg(1)?;
                    self.os
                        .image
                        .write_file(&path, body.as_bytes())
                        .map_err(|e| e.to_string())?;
                    Ok(Some(Value::Null))
                }
                "append_file" => {
                    let path = str_arg(0)?.to_owned();
                    let body = str_arg(1)?.to_owned();
                    let mut data = self
                        .os
                        .image
                        .read_file(&path)
                        .map(<[u8]>::to_vec)
                        .unwrap_or_default();
                    data.extend_from_slice(body.as_bytes());
                    self.os
                        .image
                        .write_file(&path, &data)
                        .map_err(|e| e.to_string())?;
                    Ok(Some(Value::Null))
                }
                "exists" => Ok(Some(Value::Bool(self.os.image.exists(str_arg(0)?)))),
                "list_dir" => {
                    let names = self
                        .os
                        .image
                        .list_dir(str_arg(0)?)
                        .map_err(|e| e.to_string())?;
                    Ok(Some(Value::List(
                        names.into_iter().map(Value::Str).collect(),
                    )))
                }
                "remove" => Ok(Some(Value::Bool(self.os.image.remove(str_arg(0)?)))),
                "hostname" => {
                    let name = self
                        .os
                        .image
                        .read_file("/etc/hostname")
                        .map(|d| String::from_utf8_lossy(d).trim().to_owned())
                        .unwrap_or_else(|_| "(none)".to_owned());
                    Ok(Some(Value::Str(name)))
                }
                "cycles" => Ok(Some(Value::Int(self.os.cycles as i64))),
                "load_module" => {
                    let path = str_arg(0)?.to_owned();
                    if !self.os.image.exists(&path) {
                        return Err(format!("load_module: {path} not found"));
                    }
                    let name = path
                        .rsplit('/')
                        .next()
                        .unwrap_or(&path)
                        .trim_end_matches(".ko")
                        .to_owned();
                    self.os.dmesg(&format!("{name}: module loaded"));
                    Ok(Some(Value::Null))
                }
                "switch_root" => {
                    let target = str_arg(0)?.to_owned();
                    self.os.dmesg(&format!("switching root to {target}"));
                    self.os.switch_root_target = Some(target);
                    Ok(Some(Value::Null))
                }
                "install_packages" => {
                    // Fedora-style guest-init package installation.
                    for pkg in args {
                        let pkg = pkg.render();
                        self.os.serial_line(&format!("Installing : {pkg:<30} 1/1"));
                        let _ = self
                            .os
                            .image
                            .write_file(&format!("/usr/share/packages/{pkg}"), b"installed");
                    }
                    Ok(Some(Value::Null))
                }
                "uname" => Ok(Some(Value::Str(
                    self.os
                        .image
                        .read_file("/etc/kernel-release")
                        .map(|d| String::from_utf8_lossy(d).trim().to_owned())
                        .unwrap_or_else(|_| "unknown".to_owned()),
                ))),
                _ => Ok(None),
            }
        })();
        match result {
            Ok(Some(v)) => ExternResult::Value(v),
            Ok(None) => ExternResult::NotHandled,
            Err(m) => ExternResult::Err(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;

    fn os_with(files: &[(&str, &[u8])]) -> GuestOs {
        let mut img = FsImage::new();
        for (p, d) in files {
            img.write_exec(p, d).unwrap();
        }
        GuestOs::new(img, &SimConfig::new(SimKind::Qemu))
    }

    fn hello_exe() -> Vec<u8> {
        assemble(
            r#"
        .data
msg:    .ascii "bench output: 7\n"
        .text
_start:
        li      a0, 1
        la      a1, msg
        li      a2, 16
        li      a7, 64
        ecall
        li      a0, 0
        li      a7, 93
        ecall
"#,
            abi::USER_BASE,
        )
        .unwrap()
        .to_bytes()
    }

    #[test]
    fn exec_binary_writes_serial() {
        let mut os = os_with(&[("/bin/bench", &hello_exe())]);
        let mut fexec = FunctionalExecutor;
        let mut env = GuestEnv::new(&mut os, &mut fexec);
        let code = env.exec_line("/bin/bench --fast").unwrap();
        assert_eq!(code, 0);
        assert!(os.serial().contains("bench output: 7"));
        assert!(os.instructions > 0);
    }

    #[test]
    fn script_execs_binary() {
        let script = b"#!mscript\nprint(\"starting\")\nlet rc = exec(\"/bin/bench\")\nprint(\"rc=\" + str(rc))\n";
        let mut os = os_with(&[("/bin/bench", &hello_exe()), ("/run.ms", script)]);
        let mut fexec = FunctionalExecutor;
        let mut env = GuestEnv::new(&mut os, &mut fexec);
        env.exec_line("/run.ms").unwrap();
        let serial = os.serial();
        let starting = serial.find("starting").unwrap();
        let output = serial.find("bench output").unwrap();
        let rc = serial.find("rc=0").unwrap();
        assert!(starting < output && output < rc, "serial order: {serial}");
    }

    #[test]
    fn guest_file_builtins() {
        let script = b"#!mscript\nwrite_file(\"/output/r.csv\", \"a,b\\n\")\nappend_file(\"/output/r.csv\", \"1,2\\n\")\nprint(read_file(\"/output/r.csv\"))\nprint(exists(\"/output/r.csv\"), exists(\"/nope\"))\n";
        let mut os = os_with(&[("/go.ms", script)]);
        let mut fexec = FunctionalExecutor;
        let mut env = GuestEnv::new(&mut os, &mut fexec);
        env.exec_line("/go.ms").unwrap();
        assert_eq!(os.image.read_file("/output/r.csv").unwrap(), b"a,b\n1,2\n");
        assert!(os.serial().contains("true false"));
    }

    #[test]
    fn exec_depth_bounded() {
        let script = b"#!mscript\nexec(\"/loop.ms\")\n";
        let mut os = os_with(&[("/loop.ms", script)]);
        let mut fexec = FunctionalExecutor;
        let mut env = GuestEnv::new(&mut os, &mut fexec);
        assert!(env.exec_line("/loop.ms").is_err());
    }

    #[test]
    fn dmesg_stamps_monotonic() {
        let mut os = os_with(&[]);
        os.dmesg("first");
        os.account(1_000_000, 1_000_000);
        os.dmesg("second");
        let lines: Vec<&str> = os.serial().lines().collect();
        assert!(lines[0].contains("first"));
        assert!(lines[0].starts_with('['));
        assert_ne!(lines[0].split(']').next(), lines[1].split(']').next());
    }

    #[test]
    fn missing_program_errors() {
        let mut os = os_with(&[]);
        let mut fexec = FunctionalExecutor;
        let mut env = GuestEnv::new(&mut os, &mut fexec);
        assert!(env.exec_line("/not/there").is_err());
    }

    #[test]
    fn non_executable_rejected() {
        let mut os = os_with(&[("/etc/plain.txt", b"not a program")]);
        let mut fexec = FunctionalExecutor;
        let mut env = GuestEnv::new(&mut os, &mut fexec);
        assert!(matches!(
            env.exec_line("/etc/plain.txt"),
            Err(SimError::BadArtifact(_))
        ));
    }
}

#[cfg(test)]
mod identity_tests {
    use super::*;
    use crate::machine::{SimConfig, SimKind};
    use marshal_image::FsImage;

    #[test]
    fn hostname_uname_and_cycles_builtins() {
        let mut img = FsImage::new();
        img.write_file("/etc/hostname", b"buildroot\n").unwrap();
        img.write_file("/etc/kernel-release", b"5.7.0-firemarshal\n")
            .unwrap();
        let script = br#"#!mscript
print("host=" + hostname())
print("kernel=" + uname())
let c = cycles()
print("cycles nonneg=" + str(c >= 0))
"#;
        img.write_exec("/id.ms", script).unwrap();
        let mut os = GuestOs::new(img, &SimConfig::new(SimKind::Qemu));
        os.account(0, 123);
        let mut fexec = FunctionalExecutor;
        let mut env = GuestEnv::new(&mut os, &mut fexec);
        env.exec_line("/id.ms").unwrap();
        let serial = os.serial();
        assert!(serial.contains("host=buildroot"), "{serial}");
        assert!(serial.contains("kernel=5.7.0-firemarshal"));
        assert!(serial.contains("cycles nonneg=true"));
    }

    #[test]
    fn hostname_defaults_when_missing() {
        let mut os = GuestOs::new(FsImage::new(), &SimConfig::new(SimKind::Qemu));
        let mut fexec = FunctionalExecutor;
        let mut env = GuestEnv::new(&mut os, &mut fexec);
        let v = env.run_script_source("hostname()", &[]).unwrap();
        assert_eq!(v, marshal_script::Value::Str("(none)".into()));
    }
}
