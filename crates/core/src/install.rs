//! The `install` command (§III-E): convert a built workload into a
//! configuration for the cycle-exact RTL simulator.
//!
//! "FireMarshal provides the install command to convert the workload
//! specification into a valid configuration for the RTL-level simulator.
//! From there, users interact with the simulator normally... the exact same
//! artifacts are run on both simulators."

use std::path::{Path, PathBuf};

use marshal_config::Value;
use marshal_sim_functional::LaunchMode;
use marshal_sim_rtl::{FireSim, HardwareConfig, NodeResult};

use crate::build::{BuildProducts, Builder, JobKind};
use crate::error::MarshalError;
use crate::launch::load_artifacts;

/// The manifest `install` writes for the RTL simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct InstallManifest {
    /// Workload name.
    pub workload: String,
    /// Per-job entries: qualified name and artifact paths.
    pub jobs: Vec<InstalledJob>,
}

/// One installed job.
#[derive(Debug, Clone, PartialEq)]
pub struct InstalledJob {
    /// Qualified job name (one simulated node).
    pub name: String,
    /// The job's artifacts: JSON `kind` (`linux`/`bare`), `primary` (boot
    /// or bare binary) and `disk` (disk image or `null`).
    pub kind: JobKind,
}

impl InstallManifest {
    /// Serialises to the JSON the RTL simulator consumes.
    pub fn to_json(&self) -> String {
        let jobs: Value = self
            .jobs
            .iter()
            .map(|j| {
                let path = |p: &Path| Value::Str(p.to_string_lossy().into_owned());
                let (kind, primary, disk) = match &j.kind {
                    JobKind::Linux {
                        boot_path,
                        disk_path,
                    } => ("linux", boot_path, disk_path.as_deref()),
                    JobKind::Bare { bin_path } => ("bare", bin_path, None),
                };
                let mut m = std::collections::BTreeMap::new();
                m.insert("name".to_owned(), Value::Str(j.name.clone()));
                m.insert("kind".to_owned(), Value::Str(kind.to_owned()));
                m.insert("primary".to_owned(), path(primary));
                m.insert("disk".to_owned(), disk.map_or(Value::Null, path));
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
                let field = |key: &str| {
                    j.get(key)
                        .and_then(Value::as_str)
                        .ok_or_else(|| MarshalError::Other(format!("job missing `{key}`")))
                };
                let primary = PathBuf::from(field("primary")?);
                let kind = match field("kind")? {
                    "linux" => JobKind::Linux {
                        boot_path: primary,
                        disk_path: j.get("disk").and_then(Value::as_str).map(PathBuf::from),
                    },
                    "bare" => JobKind::Bare { bin_path: primary },
                    other => {
                        return Err(MarshalError::Other(format!(
                            "job kind `{other}` is neither `linux` nor `bare`"
                        )))
                    }
                };
                Ok(InstalledJob {
                    name: field("name")?.to_owned(),
                    kind,
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
        .map(|j| InstalledJob {
            name: j.name.clone(),
            kind: j.kind.clone(),
        })
        .collect();
    InstallManifest {
        workload: products.workload.clone(),
        jobs,
    }
}

/// Installs a built workload: writes the RTL simulator manifest into the
/// workload's install directory.
///
/// # Errors
///
/// I/O failures.
pub fn install_workload(
    builder: &Builder,
    products: &BuildProducts,
) -> Result<(InstallManifest, PathBuf), MarshalError> {
    write_manifest(products, &builder.install_dir(&products.workload))
}

/// Writes `firesim_config.json` for `products` into `dir`: the one writer
/// of that file, behind both [`install_workload`] and the FireSim
/// connector.
pub(crate) fn write_manifest(
    products: &BuildProducts,
    dir: &Path,
) -> Result<(InstallManifest, PathBuf), MarshalError> {
    let manifest = manifest_for(products);
    let path = dir.join("firesim_config.json");
    marshal_depgraph::persist::write_atomic(&path, manifest.to_json().as_bytes())
        .map_err(|e| MarshalError::Io(e.to_string()))?;
    Ok((manifest, path))
}

/// Runs an installed workload on the cycle-exact backend — "users
/// interact with the simulator normally", which for this reproduction means
/// handing the manifest to the cycle-exact [`FireSim`]. Jobs become cluster
/// nodes and run in parallel when `parallel` is set (the paper's
/// two-weeks-to-two-days optimisation). Artifacts load exactly as
/// [`load_artifacts`] loads them, verified against their sidecars.
///
/// # Errors
///
/// Artifact errors ([`MarshalError::Corrupt`] for a damaged artifact) and
/// simulation errors.
pub fn run_installed(
    manifest: &InstallManifest,
    hw: HardwareConfig,
    parallel: bool,
) -> Result<Vec<NodeResult>, MarshalError> {
    let nodes = manifest
        .jobs
        .iter()
        .map(|job| Ok((job.name.clone(), job.kind.load()?)))
        .collect::<Result<Vec<_>, MarshalError>>()?;
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
                    kind: JobKind::Linux {
                        boot_path: PathBuf::from("/w/images/a/boot.bin"),
                        disk_path: Some(PathBuf::from("/w/images/a/rootfs.img")),
                    },
                },
                InstalledJob {
                    name: "server".to_owned(),
                    kind: JobKind::Bare {
                        bin_path: PathBuf::from("/w/images/s/bin.mexe"),
                    },
                },
            ],
        };
        let json = m.to_json();
        assert_eq!(
            json,
            concat!(
                r#"{"jobs":[{"disk":"/w/images/a/rootfs.img","kind":"linux","#,
                r#""name":"intspeed.600.perlbench_s","primary":"/w/images/a/boot.bin"},"#,
                r#"{"disk":null,"kind":"bare","name":"server","primary":"/w/images/s/bin.mexe"}],"#,
                r#""workload":"intspeed"}"#
            )
        );
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
        let job = |kind: &str| {
            format!(r#"{{"workload":"x","jobs":[{{"name":"n","primary":"/b"{kind}}}]}}"#)
        };
        assert!(InstallManifest::from_json(&job(r#","kind":"linux""#)).is_ok());
        for bad in ["", r#","kind":"linx""#, r#","kind":null"#] {
            let err = InstallManifest::from_json(&job(bad)).unwrap_err();
            assert!(err.to_string().contains("kind"), "{bad}: {err}");
        }
    }
}
