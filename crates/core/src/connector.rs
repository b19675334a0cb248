//! Pluggable simulator connectors — the paper's §VI extension.
//!
//! "While the board and base distribution systems are well modularized,
//! simulator integration is not. In the future, we hope to enable pluggable
//! simulator connectors to expand the scope and capability of the install
//! command, including support for other RTL simulation platforms."
//!
//! A [`SimulatorConnector`] converts built workload artifacts into the
//! configuration a specific RTL-level simulator consumes. Three connectors
//! ship: the FireSim-style manifest (the default `install` behaviour), and
//! VCS-/Verilator-style run scripts (the integrations §III-E says were
//! planned).

use std::path::{Path, PathBuf};

use crate::build::{BuildProducts, JobKind};
use crate::error::MarshalError;

/// Converts built artifacts into one RTL simulator's configuration format.
pub trait SimulatorConnector {
    /// The connector's registry name (`firesim`, `vcs`, `verilator`).
    fn name(&self) -> &'static str;

    /// Writes the simulator configuration for `products` into `dir`;
    /// returns the primary configuration file.
    ///
    /// # Errors
    ///
    /// I/O failures or missing artifacts.
    fn install(&self, products: &BuildProducts, dir: &Path) -> Result<PathBuf, MarshalError>;
}

/// The FireSim-style connector: the JSON manifest `install` has always
/// written (see [`crate::install`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FireSimConnector;

impl SimulatorConnector for FireSimConnector {
    fn name(&self) -> &'static str {
        "firesim"
    }

    fn install(&self, products: &BuildProducts, dir: &Path) -> Result<PathBuf, MarshalError> {
        crate::install::write_manifest(products, dir).map(|(_, path)| path)
    }
}

/// A VCS-style connector: emits a `sim_<job>.sh` per job invoking `simv`
/// with plusargs pointing at the unmodified artifacts.
#[derive(Debug, Clone, Copy, Default)]
pub struct VcsConnector;

impl SimulatorConnector for VcsConnector {
    fn name(&self) -> &'static str {
        "vcs"
    }

    fn install(&self, products: &BuildProducts, dir: &Path) -> Result<PathBuf, MarshalError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| MarshalError::Io(format!("mkdir {}: {e}", dir.display())))?;
        let mut runner =
            String::from("#!/bin/sh\n# Generated by marshal install (vcs connector)\nset -e\n");
        for job in &products.jobs {
            let (script, line) = match &job.kind {
                JobKind::Linux {
                    boot_path,
                    disk_path,
                } => {
                    let disk_arg = disk_path
                        .as_ref()
                        .map(|d| format!(" +blkdev0={}", d.display()))
                        .unwrap_or_default();
                    (
                        format!("sim_{}.sh", sanitize(&job.name)),
                        format!(
                            "./simv +permissive +bootrom={boot} +uartlog=uartlog-{name}{disk} +permissive-off\n",
                            boot = boot_path.display(),
                            name = sanitize(&job.name),
                            disk = disk_arg
                        ),
                    )
                }
                JobKind::Bare { bin_path } => (
                    format!("sim_{}.sh", sanitize(&job.name)),
                    format!(
                        "./simv +permissive +bootrom={} +uartlog=uartlog-{} +permissive-off\n",
                        bin_path.display(),
                        sanitize(&job.name)
                    ),
                ),
            };
            let body = format!("#!/bin/sh\n# job: {}\nset -e\n{line}", job.name);
            std::fs::write(dir.join(&script), body)
                .map_err(|e| MarshalError::Io(format!("write {script}: {e}")))?;
            runner.push_str(&format!("sh {script}\n"));
        }
        let path = dir.join("run_all.sh");
        std::fs::write(&path, runner)
            .map_err(|e| MarshalError::Io(format!("write {}: {e}", path.display())))?;
        Ok(path)
    }
}

/// A Verilator-style connector: one `config.cfg` listing elf/disk pairs in
/// the `+arg=value` form Verilator harnesses read.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerilatorConnector;

impl SimulatorConnector for VerilatorConnector {
    fn name(&self) -> &'static str {
        "verilator"
    }

    fn install(&self, products: &BuildProducts, dir: &Path) -> Result<PathBuf, MarshalError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| MarshalError::Io(format!("mkdir {}: {e}", dir.display())))?;
        let mut cfg = format!("# workload: {}\n", products.workload);
        for job in &products.jobs {
            cfg.push_str(&format!("[{}]\n", job.name));
            match &job.kind {
                JobKind::Linux {
                    boot_path,
                    disk_path,
                } => {
                    cfg.push_str(&format!("binary={}\n", boot_path.display()));
                    if let Some(d) = disk_path {
                        cfg.push_str(&format!("disk={}\n", d.display()));
                    }
                }
                JobKind::Bare { bin_path } => {
                    cfg.push_str(&format!("binary={}\n", bin_path.display()));
                }
            }
        }
        let path = dir.join("verilator_config.cfg");
        std::fs::write(&path, cfg)
            .map_err(|e| MarshalError::Io(format!("write {}: {e}", path.display())))?;
        Ok(path)
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Looks up a connector by name.
pub fn connector_by_name(name: &str) -> Option<Box<dyn SimulatorConnector>> {
    match name {
        "firesim" => Some(Box::new(FireSimConnector)),
        "vcs" => Some(Box::new(VcsConnector)),
        "verilator" => Some(Box::new(VerilatorConnector)),
        _ => None,
    }
}

/// All registered connector names.
pub fn connector_names() -> &'static [&'static str] {
    &["firesim", "vcs", "verilator"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Board;
    use crate::build::{BuildOptions, Builder};
    use marshal_config::SearchPath;
    use marshal_qcheck::scratch_dir;

    fn products(root: &std::path::Path) -> (Builder, BuildProducts) {
        let mut search = SearchPath::new();
        search.add_builtin(
            "w.json",
            r#"{"name":"w","distro":"buildroot","command":"/bin/x",
                "jobs":[{"name":"a","command":"/bin/x"},{"name":"b","command":"/bin/y"}]}"#,
        );
        let mut b = Builder::new(Board::minimal("t"), search, root.join("work")).unwrap();
        let p = b.build("w.json", &BuildOptions::default()).unwrap();
        (b, p)
    }

    #[test]
    fn registry_lookup() {
        for name in connector_names() {
            assert_eq!(connector_by_name(name).unwrap().name(), *name);
        }
        assert!(connector_by_name("modelsim").is_none());
    }

    #[test]
    fn firesim_connector_matches_install() {
        let root = scratch_dir("fs");
        let (_b, p) = products(&root);
        let path = FireSimConnector.install(&p, &root.join("out")).unwrap();
        let manifest = crate::install::load_manifest(&path).unwrap();
        assert_eq!(manifest.jobs.len(), 2);
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn vcs_connector_emits_per_job_scripts() {
        let root = scratch_dir("vcs");
        let (_b, p) = products(&root);
        let path = VcsConnector.install(&p, &root.join("out")).unwrap();
        let runner = std::fs::read_to_string(&path).unwrap();
        assert!(runner.contains("sim_w_a.sh"));
        assert!(runner.contains("sim_w_b.sh"));
        let per_job = std::fs::read_to_string(root.join("out/sim_w_a.sh")).unwrap();
        assert!(per_job.contains("+bootrom="));
        assert!(per_job.contains("+blkdev0="));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn verilator_connector_lists_artifacts() {
        let root = scratch_dir("vl");
        let (_b, p) = products(&root);
        let path = VerilatorConnector.install(&p, &root.join("out")).unwrap();
        let cfg = std::fs::read_to_string(&path).unwrap();
        assert!(cfg.contains("[w.a]"));
        assert!(cfg.contains("binary="));
        assert!(cfg.contains("disk="));
        std::fs::remove_dir_all(root).unwrap();
    }
}
