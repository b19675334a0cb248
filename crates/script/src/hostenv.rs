//! The host-side script environment.
//!
//! `host-init` and `post-run-hook` scripts run on the build machine with
//! access to a sandboxed directory tree (the workload directory or the run
//! output directory) and — crucially — the cross-compiler: `assemble()`
//! plays the role Speckle/GCC played in the paper's workloads, turning
//! benchmark assembly sources into guest binaries at build time.

use std::path::{Path, PathBuf};

use marshal_isa::abi;
use marshal_isa::asm::assemble;

use crate::interp::{Extern, ExternResult, Value};

/// Host environment: sandboxed file access plus cross-compilation.
///
/// All paths are interpreted relative to the sandbox root; absolute paths
/// and `..` components are rejected.
///
/// ```rust
/// use marshal_script::{HostEnv, Interp, Value};
/// # let dir = std::env::temp_dir().join(format!("hostenv-doc-{}", std::process::id()));
/// # std::fs::create_dir_all(&dir).unwrap();
/// let mut env = HostEnv::new(&dir);
/// let mut interp = Interp::new();
/// interp
///     .run(r#"write_file("hello.txt", "hi") print(read_file("hello.txt"))"#, &mut env, &[])
///     .unwrap();
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct HostEnv {
    root: PathBuf,
    /// Lines printed by the script (host scripts print to the build log).
    pub log: Vec<String>,
}

impl HostEnv {
    /// Creates a host environment rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> HostEnv {
        HostEnv {
            root: root.into(),
            log: Vec::new(),
        }
    }

    /// The sandbox root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, rel: &str) -> Result<PathBuf, String> {
        let p = Path::new(rel);
        if p.is_absolute() {
            return Err(format!("absolute paths not allowed in host scripts: {rel}"));
        }
        for comp in p.components() {
            if matches!(comp, std::path::Component::ParentDir) {
                return Err(format!("`..` not allowed in host scripts: {rel}"));
            }
        }
        Ok(self.root.join(p))
    }

    fn str_arg<'a>(&self, args: &'a [Value], i: usize, name: &str) -> Result<&'a str, String> {
        match args.get(i) {
            Some(Value::Str(s)) => Ok(s),
            other => Err(format!(
                "{name}: argument {i} must be a string, got {:?}",
                other.map(Value::type_name)
            )),
        }
    }
}

impl Extern for HostEnv {
    fn call(&mut self, name: &str, args: &[Value]) -> ExternResult {
        let result = (|| -> Result<Option<Value>, String> {
            match name {
                "print" => {
                    self.log
                        .push(args.iter().map(Value::render).collect::<Vec<_>>().join(" "));
                    Ok(Some(Value::Null))
                }
                "read_file" => {
                    let path = self.resolve(self.str_arg(args, 0, name)?)?;
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("read {}: {e}", path.display()))?;
                    Ok(Some(Value::Str(text)))
                }
                "write_file" => {
                    let path = self.resolve(self.str_arg(args, 0, name)?)?;
                    let text = self.str_arg(args, 1, name)?;
                    if let Some(parent) = path.parent() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
                    }
                    std::fs::write(&path, text)
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                    Ok(Some(Value::Null))
                }
                "append_file" => {
                    let path = self.resolve(self.str_arg(args, 0, name)?)?;
                    let text = self.str_arg(args, 1, name)?;
                    let mut existing = if path.exists() {
                        std::fs::read_to_string(&path)
                            .map_err(|e| format!("read {}: {e}", path.display()))?
                    } else {
                        if let Some(parent) = path.parent() {
                            std::fs::create_dir_all(parent)
                                .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
                        }
                        String::new()
                    };
                    existing.push_str(text);
                    std::fs::write(&path, existing)
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                    Ok(Some(Value::Null))
                }
                "exists" => {
                    let path = self.resolve(self.str_arg(args, 0, name)?)?;
                    Ok(Some(Value::Bool(path.exists())))
                }
                "mkdir" => {
                    let path = self.resolve(self.str_arg(args, 0, name)?)?;
                    std::fs::create_dir_all(&path)
                        .map_err(|e| format!("mkdir {}: {e}", path.display()))?;
                    Ok(Some(Value::Null))
                }
                "list_dir" => {
                    let path = self.resolve(self.str_arg(args, 0, name)?)?;
                    let mut names: Vec<String> = std::fs::read_dir(&path)
                        .map_err(|e| format!("list {}: {e}", path.display()))?
                        .filter_map(Result::ok)
                        .map(|e| e.file_name().to_string_lossy().into_owned())
                        .collect();
                    names.sort();
                    Ok(Some(Value::List(
                        names.into_iter().map(Value::Str).collect(),
                    )))
                }
                "copy" => {
                    let src = self.resolve(self.str_arg(args, 0, name)?)?;
                    let dst = self.resolve(self.str_arg(args, 1, name)?)?;
                    if let Some(parent) = dst.parent() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
                    }
                    std::fs::copy(&src, &dst)
                        .map_err(|e| format!("copy {} -> {}: {e}", src.display(), dst.display()))?;
                    Ok(Some(Value::Null))
                }
                // Cross-compilation: the Speckle substitute. Assembles a
                // guest program source into a MEXE binary.
                "assemble" => {
                    let src_path = self.resolve(self.str_arg(args, 0, name)?)?;
                    let out_rel = self.str_arg(args, 1, name)?;
                    let out_path = self.resolve(out_rel)?;
                    let source = std::fs::read_to_string(&src_path)
                        .map_err(|e| format!("read {}: {e}", src_path.display()))?;
                    let exe = assemble(&source, abi::USER_BASE)
                        .map_err(|e| format!("assemble {}: {e}", src_path.display()))?;
                    if let Some(parent) = out_path.parent() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
                    }
                    std::fs::write(&out_path, exe.to_bytes())
                        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
                    Ok(Some(Value::Null))
                }
                "assemble_str" => {
                    let source = self.str_arg(args, 0, name)?;
                    let out_path = self.resolve(self.str_arg(args, 1, name)?)?;
                    let exe =
                        assemble(source, abi::USER_BASE).map_err(|e| format!("assemble: {e}"))?;
                    if let Some(parent) = out_path.parent() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
                    }
                    std::fs::write(&out_path, exe.to_bytes())
                        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
                    Ok(Some(Value::Null))
                }
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
    use crate::interp::Interp;
    use marshal_qcheck::scratch_dir;

    #[test]
    fn file_roundtrip_and_log() {
        let dir = scratch_dir("roundtrip");
        let mut env = HostEnv::new(&dir);
        let mut i = Interp::new();
        i.run(
            r#"
            write_file("sub/a.txt", "hello")
            append_file("sub/a.txt", " world")
            print(read_file("sub/a.txt"))
            print(exists("sub/a.txt"), exists("nope"))
        "#,
            &mut env,
            &[],
        )
        .unwrap();
        assert_eq!(env.log, vec!["hello world", "true false"]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sandbox_escapes_rejected() {
        let dir = scratch_dir("sandbox");
        let mut env = HostEnv::new(&dir);
        let mut i = Interp::new();
        assert!(i.run(r#"read_file("/etc/passwd")"#, &mut env, &[]).is_err());
        assert!(i
            .run(r#"read_file("../outside.txt")"#, &mut env, &[])
            .is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn assemble_produces_mexe() {
        let dir = scratch_dir("assemble");
        std::fs::write(
            dir.join("prog.s"),
            "_start:\n li a0, 9\n li a7, 93\n ecall\n",
        )
        .unwrap();
        let mut env = HostEnv::new(&dir);
        let mut i = Interp::new();
        i.run(r#"assemble("prog.s", "overlay/bin/prog")"#, &mut env, &[])
            .unwrap();
        let bytes = std::fs::read(dir.join("overlay/bin/prog")).unwrap();
        assert!(marshal_isa::MexeFile::sniff(&bytes));
        let exe = marshal_isa::MexeFile::from_bytes(&bytes).unwrap();
        assert_eq!(exe.entry(), abi::USER_BASE);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn assemble_errors_propagate() {
        let dir = scratch_dir("asm-err");
        std::fs::write(dir.join("bad.s"), "bogus instruction\n").unwrap();
        let mut env = HostEnv::new(&dir);
        let mut i = Interp::new();
        let err = i
            .run(r#"assemble("bad.s", "out")"#, &mut env, &[])
            .unwrap_err();
        assert!(err.message.contains("assemble"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_and_copy() {
        let dir = scratch_dir("listcopy");
        let mut env = HostEnv::new(&dir);
        let mut i = Interp::new();
        let v = i
            .run(
                r#"
            write_file("x/b.txt", "B")
            write_file("x/a.txt", "A")
            copy("x/a.txt", "y/a2.txt")
            list_dir("x")
        "#,
                &mut env,
                &[],
            )
            .unwrap();
        assert_eq!(
            v,
            Value::List(vec![Value::Str("a.txt".into()), Value::Str("b.txt".into())])
        );
        assert_eq!(std::fs::read_to_string(dir.join("y/a2.txt")).unwrap(), "A");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
