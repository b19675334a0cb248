//! The `install` command (§III-E): convert a built workload into a
//! configuration for the cycle-exact RTL simulator.
//!
//! "FireMarshal provides the install command to convert the workload
//! specification into a valid configuration for the RTL-level simulator.
//! From there, users interact with the simulator normally... the exact same
//! artifacts are run on both simulators."

use std::path::{Path, PathBuf};

use marshal_config::Value;
use marshal_sim_functional::{LaunchMode, LoadedJob};
use marshal_sim_rtl::{FireSim, HardwareConfig, NodeResult};

use crate::build::{BuildProducts, Builder, JobKind};
use crate::error::MarshalError;
use crate::launch::load_artifacts;

/// The manifest `install` writes for the RTL simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct InstallManifest {
    /// Workload name.
    pub workload: String,
    /// Per-job entries: `(qualified name, artifact kind, artifact paths)`.
    pub jobs: Vec<InstalledJob>,
}

/// One installed job.
#[derive(Debug, Clone, PartialEq)]
pub struct InstalledJob {
    /// Qualified job name (one simulated node).
    pub name: String,
    /// `linux` or `bare`.
    pub kind: String,
    /// Path to the boot binary or bare binary.
    pub primary: PathBuf,
    /// Path to the disk image, if any.
    pub disk: Option<PathBuf>,
}

impl InstallManifest {
    /// Serialises to the JSON the RTL simulator consumes.
    pub fn to_json(&self) -> String {
        let jobs: Value = self
            .jobs
            .iter()
            .map(|j| {
                let mut m = std::collections::BTreeMap::new();
                m.insert("name".to_owned(), Value::Str(j.name.clone()));
                m.insert("kind".to_owned(), Value::Str(j.kind.clone()));
                m.insert(
                    "primary".to_owned(),
                    Value::Str(j.primary.to_string_lossy().into_owned()),
                );
                m.insert(
                    "disk".to_owned(),
                    match &j.disk {
                        Some(d) => Value::Str(d.to_string_lossy().into_owned()),
                        None => Value::Null,
                    },
                );
                Value::Object(m)
            })
            .collect();
        let mut root = std::collections::BTreeMap::new();
        root.insert("workload".to_owned(), Value::Str(self.workload.clone()));
        root.insert("jobs".to_owned(), jobs);
        Value::Object(root).to_json()
    }

    /// Parses a manifest back from JSON.
    ///
    /// # Errors
    ///
    /// [`MarshalError::Other`] on malformed manifests.
    pub fn from_json(text: &str) -> Result<InstallManifest, MarshalError> {
        let v = marshal_config::json::parse(text)
            .map_err(|e| MarshalError::Other(format!("install manifest: {e}")))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| MarshalError::Other("manifest missing `workload`".to_owned()))?
            .to_owned();
        let jobs = v
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or_else(|| MarshalError::Other("manifest missing `jobs`".to_owned()))?
            .iter()
            .map(|j| {
                Ok(InstalledJob {
                    name: j
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| MarshalError::Other("job missing `name`".to_owned()))?
                        .to_owned(),
                    kind: j
                        .get("kind")
                        .and_then(Value::as_str)
                        .unwrap_or("linux")
                        .to_owned(),
                    primary: PathBuf::from(
                        j.get("primary").and_then(Value::as_str).ok_or_else(|| {
                            MarshalError::Other("job missing `primary`".to_owned())
                        })?,
                    ),
                    disk: j.get("disk").and_then(Value::as_str).map(PathBuf::from),
                })
            })
            .collect::<Result<Vec<_>, MarshalError>>()?;
        Ok(InstallManifest { workload, jobs })
    }
}

/// Builds the manifest describing a built workload's artifacts.
pub fn manifest_for(products: &BuildProducts) -> InstallManifest {
    let jobs = products
        .jobs
        .iter()
        .map(|j| match &j.kind {
            JobKind::Linux {
                boot_path,
                disk_path,
            } => InstalledJob {
                name: j.name.clone(),
                kind: "linux".to_owned(),
                primary: boot_path.clone(),
                disk: disk_path.clone(),
            },
            JobKind::Bare { bin_path } => InstalledJob {
                name: j.name.clone(),
                kind: "bare".to_owned(),
                primary: bin_path.clone(),
                disk: None,
            },
        })
        .collect();
    InstallManifest {
        workload: products.workload.clone(),
        jobs,
    }
}

/// Installs a built workload: writes the RTL simulator manifest.
///
/// # Errors
///
/// I/O failures.
pub fn install_workload(
    builder: &Builder,
    products: &BuildProducts,
) -> Result<(InstallManifest, PathBuf), MarshalError> {
    let manifest = manifest_for(products);
    let dir = builder.install_dir(&products.workload);
    std::fs::create_dir_all(&dir)
        .map_err(|e| MarshalError::Io(format!("mkdir {}: {e}", dir.display())))?;
    let path = dir.join("firesim_config.json");
    std::fs::write(&path, manifest.to_json())
        .map_err(|e| MarshalError::Io(format!("write {}: {e}", path.display())))?;
    Ok((manifest, path))
}

/// Runs an installed workload on the cycle-exact backend — "users
/// interact with the simulator normally", which for this reproduction means
/// handing the manifest to the cycle-exact [`FireSim`]. Jobs become cluster
/// nodes and run in parallel when `parallel` is set (the paper's
/// two-weeks-to-two-days optimisation).
///
/// # Errors
///
/// Artifact and simulation errors.
pub fn run_installed(
    manifest: &InstallManifest,
    hw: HardwareConfig,
    parallel: bool,
) -> Result<Vec<NodeResult>, MarshalError> {
    let mut nodes = Vec::with_capacity(manifest.jobs.len());
    for job in &manifest.jobs {
        let payload = if job.kind == "bare" {
            let bin = std::fs::read(&job.primary)
                .map_err(|e| MarshalError::Io(format!("read {}: {e}", job.primary.display())))?;
            LoadedJob::Bare { bin }
        } else {
            let boot_bytes = std::fs::read(&job.primary)
                .map_err(|e| MarshalError::Io(format!("read {}: {e}", job.primary.display())))?;
            let boot = marshal_firmware::BootBinary::from_bytes(&boot_bytes)
                .map_err(|e| MarshalError::Other(format!("boot binary: {e}")))?;
            let disk = match &job.disk {
                Some(p) => {
                    let bytes = std::fs::read(p)
                        .map_err(|e| MarshalError::Io(format!("read {}: {e}", p.display())))?;
                    Some(
                        marshal_image::FsImage::from_bytes(&bytes)
                            .map_err(|e| MarshalError::Other(format!("disk image: {e}")))?,
                    )
                }
                None => None,
            };
            LoadedJob::Linux { boot, disk }
        };
        nodes.push((job.name.clone(), payload));
    }
    Ok(FireSim::new(hw).launch_cluster(&nodes, parallel)?)
}

/// Convenience: runs a job's artifacts directly on the cycle-exact
/// backend without writing a manifest (used by tests and benches).
///
/// # Errors
///
/// Artifact and simulation errors.
pub fn run_job_cycle_exact(
    job: &crate::build::JobArtifacts,
    hw: HardwareConfig,
) -> Result<NodeResult, MarshalError> {
    let loaded = load_artifacts(job)?;
    let (result, report, _) = FireSim::new(hw).run(&loaded, LaunchMode::Run, None)?;
    Ok(NodeResult {
        name: job.name.clone(),
        result,
        report,
    })
}

/// Loads a previously written manifest.
///
/// # Errors
///
/// I/O and parse failures.
pub fn load_manifest(path: &Path) -> Result<InstallManifest, MarshalError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| MarshalError::Io(format!("read {}: {e}", path.display())))?;
    InstallManifest::from_json(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_json_roundtrip() {
        let m = InstallManifest {
            workload: "intspeed".to_owned(),
            jobs: vec![
                InstalledJob {
                    name: "intspeed.600.perlbench_s".to_owned(),
                    kind: "linux".to_owned(),
                    primary: PathBuf::from("/w/images/a/boot.bin"),
                    disk: Some(PathBuf::from("/w/images/a/rootfs.img")),
                },
                InstalledJob {
                    name: "server".to_owned(),
                    kind: "bare".to_owned(),
                    primary: PathBuf::from("/w/images/s/bin.mexe"),
                    disk: None,
                },
            ],
        };
        let json = m.to_json();
        let back = InstallManifest::from_json(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn malformed_manifest_rejected() {
        assert!(InstallManifest::from_json("{}").is_err());
        assert!(InstallManifest::from_json("not json").is_err());
        assert!(
            InstallManifest::from_json(r#"{"workload":"x","jobs":[{"kind":"linux"}]}"#).is_err()
        );
    }
}
