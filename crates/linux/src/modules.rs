//! Kernel module builds (§III-B step 4b).
//!
//! "With a valid kernel configuration, any needed kernel modules defined in
//! the workload can now be built. This includes system-provided device
//! drivers, as well as user-provided kernel modules."

use marshal_depgraph::{Fingerprint, Hasher128};
use marshal_trace::bytes::Writer;

use crate::kconfig::KernelConfig;
use crate::LinuxError;

/// Magic bytes at the start of every built module blob.
pub const MODULE_MAGIC: &[u8; 4] = b"MKO\x01";

/// A built kernel module (a modelled `.ko`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleArtifact {
    name: String,
    source_id: String,
    fingerprint: Fingerprint,
    bytes: Vec<u8>,
}

impl ModuleArtifact {
    /// The module name (e.g. `icenet`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source identifier the module was built from.
    pub fn source_id(&self) -> &str {
        &self.source_id
    }

    /// The module's content fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The built module bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The in-image path where this module is installed.
    pub fn install_path(&self, kernel_version: &str) -> String {
        format!("/lib/modules/{kernel_version}/{}.ko", self.name)
    }
}

/// Builds a module against a kernel configuration.
///
/// Like a real module build, the result depends on both the module source
/// and the kernel configuration it is compiled against — rebuilding with a
/// different config produces a different artifact.
///
/// # Errors
///
/// [`LinuxError::Build`] when the kernel configuration does not enable
/// `MODULES`.
pub fn build_module(
    name: &str,
    source_id: &str,
    config: &KernelConfig,
) -> Result<ModuleArtifact, LinuxError> {
    if !config.is_enabled("MODULES") {
        return Err(LinuxError::Build(format!(
            "cannot build module `{name}`: CONFIG_MODULES is not enabled"
        )));
    }
    let mut h = Hasher128::new();
    h.update_field(name.as_bytes());
    h.update_field(source_id.as_bytes());
    h.update_field(config.fingerprint().to_string().as_bytes());
    let fingerprint = h.finish();

    let mut w = Writer::default();
    w.bytes(MODULE_MAGIC)
        .field32(name.as_bytes())
        .u128(fingerprint.0);
    // Modelled code payload: deterministic pseudo-text derived from the
    // fingerprint, sized like a small driver.
    let body = format!(
        "module {name} source {source_id} built-against {}\n",
        fingerprint.short()
    );
    for _ in 0..16 {
        w.bytes(body.as_bytes());
    }
    Ok(ModuleArtifact {
        name: name.to_owned(),
        source_id: source_id.to_owned(),
        fingerprint,
        bytes: w.into_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_build() {
        let config = KernelConfig::riscv_defconfig();
        let a = build_module("icenet", "icenet-v1", &config).unwrap();
        let b = build_module("icenet", "icenet-v1", &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn source_and_config_affect_artifact() {
        let config = KernelConfig::riscv_defconfig();
        let a = build_module("icenet", "icenet-v1", &config).unwrap();
        let b = build_module("icenet", "icenet-v2", &config).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());

        let mut config2 = KernelConfig::riscv_defconfig();
        config2.merge_fragment("CONFIG_PFA=y").unwrap();
        let c = build_module("icenet", "icenet-v1", &config2).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn requires_modules_enabled() {
        let mut config = KernelConfig::riscv_defconfig();
        config
            .merge_fragment("# CONFIG_MODULES is not set")
            .unwrap();
        assert!(matches!(
            build_module("icenet", "v", &config),
            Err(LinuxError::Build(_))
        ));
    }

    #[test]
    fn install_path_versioned() {
        let config = KernelConfig::riscv_defconfig();
        let m = build_module("iceblk", "v1", &config).unwrap();
        assert_eq!(m.install_path("5.7.0"), "/lib/modules/5.7.0/iceblk.ko");
        assert!(m.bytes().starts_with(MODULE_MAGIC));
    }
}
