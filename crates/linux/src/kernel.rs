//! The modelled kernel compilation (§III-B step 4d).
//!
//! "The full Linux kernel can now be compiled with a reference to the
//! initramfs to embed." A [`KernelArtifact`] is the deterministic product:
//! its identity (and the boot banner the simulators print) is a pure
//! function of the source tree, the final configuration, and the embedded
//! initramfs.

use marshal_depgraph::{Fingerprint, Hasher128};
use marshal_trace::bytes::{Reader, Writer};

use crate::initramfs::InitramfsArtifact;
use crate::kconfig::KernelConfig;
use crate::LinuxError;

/// Magic bytes at the start of a built kernel blob.
pub const KERNEL_MAGIC: &[u8; 4] = b"MKRN";

/// A modelled kernel source tree.
///
/// Real FireMarshal boards name "a version of Linux known to work with the
/// board or... the default version included with FireMarshal". Custom trees
/// (like the PFA case study's `pfa-linux`) are identified by name and carry
/// their own version string and feature set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSource {
    id: String,
    version: String,
    /// Feature tags the tree carries beyond mainline (e.g. `pfa`).
    features: Vec<String>,
}

impl KernelSource {
    /// The default kernel tree bundled with the tool.
    pub fn default_source() -> KernelSource {
        KernelSource {
            id: "linux-default".to_owned(),
            version: "5.7.0-firemarshal".to_owned(),
            features: Vec::new(),
        }
    }

    /// A custom source tree with explicit version and features.
    pub fn custom(
        id: impl Into<String>,
        version: impl Into<String>,
        features: Vec<String>,
    ) -> KernelSource {
        KernelSource {
            id: id.into(),
            version: version.into(),
            features,
        }
    }

    /// The source identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The version string (`uname -r` style).
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Feature tags carried by this tree.
    pub fn features(&self) -> &[String] {
        &self.features
    }

    /// Whether the tree carries a feature (e.g. `pfa`).
    pub fn has_feature(&self, name: &str) -> bool {
        self.features.iter().any(|f| f == name)
    }
}

/// A compiled kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelArtifact {
    version: String,
    source_id: String,
    features: Vec<String>,
    config: KernelConfig,
    config_fingerprint: Fingerprint,
    initramfs: InitramfsArtifact,
    fingerprint: Fingerprint,
    text_size: u64,
}

/// Compiles a kernel from a source tree, final configuration, and
/// initramfs.
///
/// # Errors
///
/// [`LinuxError::Build`] when the configuration violates a build invariant
/// (missing `RISCV`/`64BIT`, or `BLK_DEV_INITRD` disabled while an
/// initramfs is supplied).
pub fn build_kernel(
    source: &KernelSource,
    config: &KernelConfig,
    initramfs: &InitramfsArtifact,
) -> Result<KernelArtifact, LinuxError> {
    for required in ["RISCV", "64BIT"] {
        if !config.is_enabled(required) {
            return Err(LinuxError::Build(format!(
                "CONFIG_{required} must be enabled for a RISC-V kernel"
            )));
        }
    }
    if !config.is_enabled("BLK_DEV_INITRD") {
        return Err(LinuxError::Build(
            "CONFIG_BLK_DEV_INITRD must be enabled to embed an initramfs".to_owned(),
        ));
    }
    let config_fingerprint = config.fingerprint();
    let mut h = Hasher128::new();
    h.update_field(source.id.as_bytes());
    h.update_field(source.version.as_bytes());
    for f in &source.features {
        h.update_field(f.as_bytes());
    }
    h.update_field(config_fingerprint.to_string().as_bytes());
    h.update_field(initramfs.archive());
    let fingerprint = h.finish();

    // Size model: a base text size plus a per-enabled-option cost. Feeds
    // the simulators' boot-time model the way real kernel size affects
    // load/decompress time.
    let text_size = (4u64 << 20) + (config.enabled_count() as u64) * (16 << 10);

    Ok(KernelArtifact {
        version: source.version.clone(),
        source_id: source.id.clone(),
        features: source.features.clone(),
        config: config.clone(),
        config_fingerprint,
        initramfs: initramfs.clone(),
        fingerprint,
        text_size,
    })
}

impl KernelArtifact {
    /// The kernel version string.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The source tree this kernel was built from.
    pub fn source_id(&self) -> &str {
        &self.source_id
    }

    /// Feature tags of the source tree.
    pub fn features(&self) -> &[String] {
        &self.features
    }

    /// Whether this kernel carries a feature (e.g. `pfa`).
    pub fn has_feature(&self, name: &str) -> bool {
        self.features.iter().any(|f| f == name)
    }

    /// The final (post-fragment-merge) configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Fingerprint of the final configuration.
    pub fn config_fingerprint(&self) -> Fingerprint {
        self.config_fingerprint
    }

    /// The embedded initramfs.
    pub fn initramfs(&self) -> &InitramfsArtifact {
        &self.initramfs
    }

    /// The artifact's content fingerprint (identity of the build).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Modelled text size in bytes (drives boot timing).
    pub fn text_size(&self) -> u64 {
        self.text_size
    }

    /// The boot banner the simulators print, like a real kernel's first
    /// dmesg line.
    pub fn banner(&self) -> String {
        format!(
            "Linux version {} (firemarshal@build) (config {}) #1 SMP",
            self.version,
            self.config_fingerprint.short()
        )
    }

    /// Serialises the kernel to a deterministic binary blob (`MKRN`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(KERNEL_MAGIC)
            .field64(self.version.as_bytes())
            .field64(self.source_id.as_bytes())
            .u32(self.features.len() as u32);
        for f in &self.features {
            w.field64(f.as_bytes());
        }
        w.field64(self.config.to_config_text().as_bytes())
            .field64(self.initramfs.archive())
            .u8(u8::from(self.initramfs.is_diskless()));
        w.into_bytes()
    }

    /// Parses a serialised kernel blob.
    ///
    /// # Errors
    ///
    /// [`LinuxError::Build`] for malformed blobs, trailing bytes included.
    pub fn from_bytes(bytes: &[u8]) -> Result<KernelArtifact, LinuxError> {
        let mut r = Reader::new(bytes);
        r.magic(KERNEL_MAGIC)?;
        let version = r.str64()?.to_owned();
        let source_id = r.str64()?.to_owned();
        let nfeat = r.u32()?;
        let mut features = Vec::new();
        for _ in 0..nfeat {
            features.push(r.str64()?.to_owned());
        }
        let mut config = KernelConfig::new();
        config.merge_fragment(r.str64()?)?;
        let archive = r.field64()?.to_vec();
        let diskless = r.u8()? == 1;
        r.finish()?;
        // Rebuild via the same path so every derived field is consistent.
        let initramfs = initramfs_from_archive(archive, diskless)?;
        let source = KernelSource::custom(source_id, version, features);
        build_kernel(&source, &config, &initramfs)
    }
}

/// Rebuilds the [`InitramfsArtifact`] a kernel blob embeds, validating the
/// archive by unpacking it.
fn initramfs_from_archive(
    archive: Vec<u8>,
    diskless: bool,
) -> Result<InitramfsArtifact, LinuxError> {
    let img =
        marshal_image::cpio::unpack(&archive).map_err(|e| LinuxError::Image(e.to_string()))?;
    let mut names = Vec::new();
    for version_dir in img.list_dir("/lib/modules").unwrap_or_default() {
        let mods = img.list_dir(&format!("/lib/modules/{version_dir}"));
        for m in mods.unwrap_or_default() {
            names.push(m.trim_end_matches(".ko").to_owned());
        }
    }
    Ok(InitramfsArtifact::from_raw(archive, names, diskless))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initramfs::InitramfsSpec;

    fn kernel() -> KernelArtifact {
        let config = KernelConfig::riscv_defconfig();
        let src = KernelSource::default_source();
        let initramfs = InitramfsSpec::new()
            .module("iceblk", "v1")
            .build(&config, &src)
            .unwrap();
        build_kernel(&src, &config, &initramfs).unwrap()
    }

    #[test]
    fn deterministic() {
        assert_eq!(kernel().fingerprint(), kernel().fingerprint());
        assert_eq!(kernel().to_bytes(), kernel().to_bytes());
    }

    #[test]
    fn config_changes_identity() {
        let src = KernelSource::default_source();
        let base_cfg = KernelConfig::riscv_defconfig();
        let initramfs = InitramfsSpec::new().build(&base_cfg, &src).unwrap();
        let a = build_kernel(&src, &base_cfg, &initramfs).unwrap();
        let mut cfg2 = KernelConfig::riscv_defconfig();
        cfg2.merge_fragment("CONFIG_PFA=y").unwrap();
        let b = build_kernel(&src, &cfg2, &initramfs).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.banner(), b.banner());
    }

    #[test]
    fn invariants_enforced() {
        let src = KernelSource::default_source();
        let cfg = KernelConfig::riscv_defconfig();
        let initramfs = InitramfsSpec::new().build(&cfg, &src).unwrap();
        let mut no_riscv = cfg.clone();
        no_riscv
            .merge_fragment("# CONFIG_RISCV is not set")
            .unwrap();
        assert!(build_kernel(&src, &no_riscv, &initramfs).is_err());
        let mut no_initrd = cfg.clone();
        no_initrd
            .merge_fragment("# CONFIG_BLK_DEV_INITRD is not set")
            .unwrap();
        assert!(build_kernel(&src, &no_initrd, &initramfs).is_err());
    }

    #[test]
    fn blob_roundtrip() {
        let k = kernel();
        let bytes = k.to_bytes();
        let back = KernelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.version(), k.version());
        assert_eq!(back.config_fingerprint(), k.config_fingerprint());
        assert_eq!(back.fingerprint(), k.fingerprint());
        assert_eq!(
            back.initramfs().module_names(),
            k.initramfs().module_names()
        );
    }

    #[test]
    fn custom_source_features() {
        let src = KernelSource::custom("pfa-linux", "5.7.0-pfa", vec!["pfa".into()]);
        let mut cfg = KernelConfig::riscv_defconfig();
        cfg.merge_fragment("CONFIG_PFA=y").unwrap();
        let initramfs = InitramfsSpec::new().build(&cfg, &src).unwrap();
        let k = build_kernel(&src, &cfg, &initramfs).unwrap();
        assert!(k.has_feature("pfa"));
        assert!(k.banner().contains("5.7.0-pfa"));
    }

    #[test]
    fn size_model_grows_with_config() {
        let src = KernelSource::default_source();
        let small = KernelConfig::riscv_defconfig();
        let mut big = small.clone();
        big.merge_fragment("CONFIG_EXTRA1=y\nCONFIG_EXTRA2=y\nCONFIG_EXTRA3=y\n")
            .unwrap();
        let ir_small = InitramfsSpec::new().build(&small, &src).unwrap();
        let ir_big = InitramfsSpec::new().build(&big, &src).unwrap();
        let ks = build_kernel(&src, &small, &ir_small).unwrap();
        let kb = build_kernel(&src, &big, &ir_big).unwrap();
        assert!(kb.text_size() > ks.text_size());
    }
}
