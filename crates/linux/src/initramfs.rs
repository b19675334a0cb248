//! Initramfs generation (§III-B step 4c).
//!
//! "In order to load drivers as early as possible, and to provide a mostly
//! workload-independent boot phase, FireMarshal generates an initramfs as
//! the first-stage init. This initramfs loads both system and user-provided
//! kernel modules."

use marshal_image::{cpio, FsImage};

use crate::kconfig::KernelConfig;
use crate::kernel::KernelSource;
use crate::modules::{build_module, ModuleArtifact};
use crate::LinuxError;

/// Path of the first-stage init script inside the initramfs.
pub const INIT_PATH: &str = "/init";

/// Specification of an initramfs build: which modules to include and an
/// optional embedded rootfs (for `--no-disk` workloads, §III-B step 6).
#[derive(Debug, Clone, Default)]
pub struct InitramfsSpec {
    modules: Vec<(String, String)>,
    embedded_rootfs: Option<FsImage>,
}

impl InitramfsSpec {
    /// An initramfs with no modules and no embedded rootfs.
    pub fn new() -> InitramfsSpec {
        InitramfsSpec::default()
    }

    /// Adds a kernel module (name, source id) to build and embed.
    pub fn module(
        mut self,
        name: impl Into<String>,
        source_id: impl Into<String>,
    ) -> InitramfsSpec {
        self.modules.push((name.into(), source_id.into()));
        self
    }

    /// Embeds a whole rootfs (diskless builds: the disk image becomes the
    /// initramfs payload).
    pub fn embed_rootfs(mut self, rootfs: FsImage) -> InitramfsSpec {
        self.embedded_rootfs = Some(rootfs);
        self
    }

    /// Builds the initramfs archive.
    ///
    /// The result contains `/init` (a script that loads each module in
    /// order and then hands off to the real root), the built modules under
    /// `/lib/modules/<version>/`, and — for diskless builds — the embedded
    /// rootfs contents.
    ///
    /// # Errors
    ///
    /// Module build failures ([`LinuxError::Build`]) or image errors.
    pub fn build(
        &self,
        config: &KernelConfig,
        source: &KernelSource,
    ) -> Result<InitramfsArtifact, LinuxError> {
        let mut img = FsImage::new();
        let mut built: Vec<ModuleArtifact> = Vec::new();
        for (name, src) in &self.modules {
            built.push(build_module(name, src, config)?);
        }

        let mut init = String::from("#!mscript\n# FireMarshal first-stage init\n");
        for m in &built {
            let path = m.install_path(source.version());
            img.write_file(&path, m.bytes())?;
            init.push_str(&format!("load_module(\"{path}\")\n"));
        }
        if self.embedded_rootfs.is_some() {
            init.push_str("switch_root(\"initramfs\")\n");
        } else {
            init.push_str("switch_root(\"/dev/vda\")\n");
        }
        img.write_exec(INIT_PATH, init.as_bytes())?;

        if let Some(rootfs) = &self.embedded_rootfs {
            img.apply_overlay(rootfs);
        }

        Ok(InitramfsArtifact {
            archive: cpio::pack(&img),
            module_names: built.iter().map(|m| m.name().to_owned()).collect(),
            diskless: self.embedded_rootfs.is_some(),
        })
    }
}

/// A built initramfs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitramfsArtifact {
    archive: Vec<u8>,
    module_names: Vec<String>,
    diskless: bool,
}

impl InitramfsArtifact {
    /// Reassembles an artifact from raw parts (used when parsing a
    /// serialised kernel blob back into structured form).
    pub(crate) fn from_raw(
        archive: Vec<u8>,
        module_names: Vec<String>,
        diskless: bool,
    ) -> InitramfsArtifact {
        InitramfsArtifact {
            archive,
            module_names,
            diskless,
        }
    }

    /// The packed archive bytes (cpio-like).
    pub fn archive(&self) -> &[u8] {
        &self.archive
    }

    /// Names of the modules embedded, in load order.
    pub fn module_names(&self) -> &[String] {
        &self.module_names
    }

    /// Whether a full rootfs is embedded (diskless/`--no-disk` build).
    pub fn is_diskless(&self) -> bool {
        self.diskless
    }

    /// Unpacks the archive back into a filesystem tree (used by the
    /// simulators at boot).
    ///
    /// # Errors
    ///
    /// [`LinuxError::Image`] if the archive is malformed.
    pub fn unpack(&self) -> Result<FsImage, LinuxError> {
        cpio::unpack(&self.archive).map_err(|e| LinuxError::Image(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_loads_modules_in_order() {
        let config = KernelConfig::riscv_defconfig();
        let src = KernelSource::default_source();
        let art = InitramfsSpec::new()
            .module("iceblk", "iceblk-v1")
            .module("icenet", "icenet-v1")
            .build(&config, &src)
            .unwrap();
        let img = art.unpack().unwrap();
        let init = std::str::from_utf8(img.read_file(INIT_PATH).unwrap())
            .unwrap()
            .to_owned();
        let blk = init.find("iceblk.ko").unwrap();
        let net = init.find("icenet.ko").unwrap();
        assert!(blk < net, "modules must load in declaration order");
        assert!(init.contains("switch_root(\"/dev/vda\")"));
        assert_eq!(art.module_names(), ["iceblk", "icenet"]);
    }

    #[test]
    fn diskless_embeds_rootfs() {
        let config = KernelConfig::riscv_defconfig();
        let src = KernelSource::default_source();
        let mut rootfs = FsImage::new();
        rootfs.write_file("/etc/hostname", b"diskless").unwrap();
        let art = InitramfsSpec::new()
            .embed_rootfs(rootfs)
            .build(&config, &src)
            .unwrap();
        assert!(art.is_diskless());
        let img = art.unpack().unwrap();
        assert_eq!(img.read_file("/etc/hostname").unwrap(), b"diskless");
        let init = std::str::from_utf8(img.read_file(INIT_PATH).unwrap()).unwrap();
        assert!(init.contains("switch_root(\"initramfs\")"));
    }

    #[test]
    fn deterministic_archives() {
        let config = KernelConfig::riscv_defconfig();
        let src = KernelSource::default_source();
        let build = || {
            InitramfsSpec::new()
                .module("icenet", "v1")
                .build(&config, &src)
                .unwrap()
        };
        assert_eq!(build().archive(), build().archive());
    }

    #[test]
    fn module_build_failure_propagates() {
        let mut config = KernelConfig::riscv_defconfig();
        config
            .merge_fragment("# CONFIG_MODULES is not set")
            .unwrap();
        let src = KernelSource::default_source();
        assert!(InitramfsSpec::new()
            .module("icenet", "v1")
            .build(&config, &src)
            .is_err());
    }
}
