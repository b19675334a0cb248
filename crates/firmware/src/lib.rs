//! # marshal-firmware
//!
//! SBI firmware models and boot-binary linking.
//!
//! "RISC-V systems require a supervisor binary interface (SBI) to perform
//! low-level functions. Users may provide their own implementations of
//! either OpenSBI or the Berkeley Boot Loader (bbl) (or use the included
//! defaults)" (§III-A-2). "The desired firmware is compiled and linked with
//! the Linux binary. At this stage, the boot binary is complete"
//! (§III-B step 4e).
//!
//! ## Example
//!
//! ```rust
//! use marshal_firmware::{build_firmware, link_boot_binary, FirmwareBuild};
//! use marshal_config::FirmwareKind;
//! use marshal_linux::{kconfig::KernelConfig, kernel::{KernelSource, build_kernel}, InitramfsSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = KernelConfig::riscv_defconfig();
//! let src = KernelSource::default_source();
//! let initramfs = InitramfsSpec::new().build(&config, &src)?;
//! let kernel = build_kernel(&src, &config, &initramfs)?;
//! let fw = build_firmware(&FirmwareBuild::default())?;
//! let boot = link_boot_binary(&fw, &kernel)?;
//! assert!(boot.firmware().banner().contains("OpenSBI"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use marshal_depgraph::{Fingerprint, Hasher128};
use marshal_linux::kernel::KernelArtifact;
use marshal_trace::bytes::{DecodeError, Reader, Writer};

pub use marshal_config::FirmwareKind;

/// Magic bytes of a serialised boot binary.
pub const BOOT_MAGIC: &[u8; 4] = b"MBBN";

/// Firmware errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FirmwareError {
    /// A malformed serialised boot binary.
    BadBootBinary(String),
}

impl std::fmt::Display for FirmwareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FirmwareError::BadBootBinary(m) => write!(f, "bad boot binary: {m}"),
        }
    }
}

impl std::error::Error for FirmwareError {}

impl From<DecodeError> for FirmwareError {
    fn from(e: DecodeError) -> FirmwareError {
        FirmwareError::BadBootBinary(e.to_string())
    }
}

/// Inputs to a firmware build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirmwareBuild {
    /// Which implementation to build.
    pub kind: FirmwareKind,
    /// Source identifier (custom trees supported, defaults bundled).
    pub source: String,
    /// Extra build arguments (folded into the artifact identity).
    pub build_args: Vec<String>,
}

impl Default for FirmwareBuild {
    fn default() -> FirmwareBuild {
        FirmwareBuild {
            kind: FirmwareKind::OpenSbi,
            source: "default".to_owned(),
            build_args: Vec::new(),
        }
    }
}

/// A built firmware image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirmwareArtifact {
    kind: FirmwareKind,
    version: String,
    source: String,
    build_args: Vec<String>,
    fingerprint: Fingerprint,
}

impl FirmwareArtifact {
    /// Which implementation this is.
    pub fn kind(&self) -> FirmwareKind {
        self.kind
    }

    /// Version string.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Source identifier.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Content fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The banner printed at the very start of boot, like the real
    /// firmware's console output.
    pub fn banner(&self) -> String {
        match self.kind {
            FirmwareKind::OpenSbi => format!(
                "OpenSBI {} (build {})\nPlatform Name: firemarshal,model\nBoot HART ID: 0",
                self.version,
                self.fingerprint.short()
            ),
            FirmwareKind::Bbl => format!(
                "bbl loader {} (build {})",
                self.version,
                self.fingerprint.short()
            ),
        }
    }

    /// Modelled firmware size in bytes (drives boot timing).
    pub fn size(&self) -> u64 {
        match self.kind {
            FirmwareKind::OpenSbi => 192 << 10,
            FirmwareKind::Bbl => 64 << 10,
        }
    }
}

/// Builds a firmware artifact.
///
/// # Errors
///
/// Currently infallible for all valid [`FirmwareBuild`]s; returns
/// `Result` for forward compatibility with source validation.
pub fn build_firmware(build: &FirmwareBuild) -> Result<FirmwareArtifact, FirmwareError> {
    let version = match build.kind {
        FirmwareKind::OpenSbi => "v0.9",
        FirmwareKind::Bbl => "v1.0.0",
    };
    let mut h = Hasher128::new();
    h.update_field(build.kind.name().as_bytes());
    h.update_field(build.source.as_bytes());
    for a in &build.build_args {
        h.update_field(a.as_bytes());
    }
    Ok(FirmwareArtifact {
        kind: build.kind,
        version: version.to_owned(),
        source: build.source.clone(),
        build_args: build.build_args.clone(),
        fingerprint: h.finish(),
    })
}

/// A complete boot binary: firmware linked with the kernel payload.
///
/// This is the artifact FireMarshal's `build` command outputs (Fig. 3) and
/// both simulators consume unmodified — the portability guarantee depends
/// on this being one deterministic blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootBinary {
    firmware: FirmwareArtifact,
    kernel: KernelArtifact,
    fingerprint: Fingerprint,
}

impl BootBinary {
    /// The firmware component.
    pub fn firmware(&self) -> &FirmwareArtifact {
        &self.firmware
    }

    /// The kernel component.
    pub fn kernel(&self) -> &KernelArtifact {
        &self.kernel
    }

    /// Identity of the whole boot binary.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Total modelled size (firmware + kernel text + initramfs).
    pub fn size(&self) -> u64 {
        self.firmware.size()
            + self.kernel.text_size()
            + self.kernel.initramfs().archive().len() as u64
    }

    /// Serialises to a deterministic blob (`MBBN`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let fw_kind = match self.firmware.kind {
            FirmwareKind::OpenSbi => 0u8,
            FirmwareKind::Bbl => 1u8,
        };
        let mut w = Writer::default();
        w.bytes(BOOT_MAGIC)
            .u8(fw_kind)
            .field64(self.firmware.source.as_bytes())
            .u32(self.firmware.build_args.len() as u32);
        for a in &self.firmware.build_args {
            w.field64(a.as_bytes());
        }
        w.field64(&self.kernel.to_bytes());
        w.into_bytes()
    }

    /// Parses a serialised boot binary.
    ///
    /// # Errors
    ///
    /// [`FirmwareError::BadBootBinary`] for malformed blobs.
    pub fn from_bytes(bytes: &[u8]) -> Result<BootBinary, FirmwareError> {
        let mut r = Reader::new(bytes);
        r.magic(BOOT_MAGIC)?;
        let kind = match r.u8()? {
            0 => FirmwareKind::OpenSbi,
            1 => FirmwareKind::Bbl,
            k => {
                return Err(FirmwareError::BadBootBinary(format!(
                    "unknown firmware kind {k}"
                )))
            }
        };
        let source = r.str64()?.to_owned();
        let nargs = r.u32()?;
        let mut build_args = Vec::new();
        for _ in 0..nargs {
            build_args.push(r.str64()?.to_owned());
        }
        let kernel_bytes = r.field64()?;
        r.finish()?;
        let kernel = KernelArtifact::from_bytes(kernel_bytes)
            .map_err(|e| FirmwareError::BadBootBinary(e.to_string()))?;
        let firmware = build_firmware(&FirmwareBuild {
            kind,
            source,
            build_args,
        })?;
        link_boot_binary(&firmware, &kernel)
    }

    /// Whether `bytes` look like a boot binary.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.starts_with(BOOT_MAGIC)
    }
}

/// Links firmware and kernel into the final boot binary.
///
/// # Errors
///
/// Currently infallible for valid inputs; returns `Result` for forward
/// compatibility with link-time checks.
pub fn link_boot_binary(
    firmware: &FirmwareArtifact,
    kernel: &KernelArtifact,
) -> Result<BootBinary, FirmwareError> {
    let mut h = Hasher128::new();
    h.update_field(firmware.fingerprint.to_string().as_bytes());
    h.update_field(kernel.fingerprint().to_string().as_bytes());
    Ok(BootBinary {
        firmware: firmware.clone(),
        kernel: kernel.clone(),
        fingerprint: h.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_linux::kconfig::KernelConfig;
    use marshal_linux::kernel::{build_kernel, KernelSource};
    use marshal_linux::InitramfsSpec;

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
    fn firmware_builds_deterministic() {
        let a = build_firmware(&FirmwareBuild::default()).unwrap();
        let b = build_firmware(&FirmwareBuild::default()).unwrap();
        assert_eq!(a, b);
        assert!(a.banner().contains("OpenSBI v0.9"));
    }

    #[test]
    fn build_args_change_identity() {
        let a = build_firmware(&FirmwareBuild::default()).unwrap();
        let b = build_firmware(&FirmwareBuild {
            build_args: vec!["FW_TEXT_START=0x80000000".to_owned()],
            ..FirmwareBuild::default()
        })
        .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn bbl_flavour() {
        let fw = build_firmware(&FirmwareBuild {
            kind: FirmwareKind::Bbl,
            ..FirmwareBuild::default()
        })
        .unwrap();
        assert!(fw.banner().contains("bbl"));
        assert!(fw.size() < build_firmware(&FirmwareBuild::default()).unwrap().size());
    }

    #[test]
    fn boot_binary_roundtrip() {
        let fw = build_firmware(&FirmwareBuild::default()).unwrap();
        let boot = link_boot_binary(&fw, &kernel()).unwrap();
        let bytes = boot.to_bytes();
        assert!(BootBinary::sniff(&bytes));
        let back = BootBinary::from_bytes(&bytes).unwrap();
        assert_eq!(back.fingerprint(), boot.fingerprint());
        assert_eq!(back.kernel().version(), boot.kernel().version());
        assert_eq!(back.firmware().kind(), FirmwareKind::OpenSbi);
    }

    #[test]
    fn garbage_rejected() {
        assert!(BootBinary::from_bytes(b"XXXX").is_err());
        let fw = build_firmware(&FirmwareBuild::default()).unwrap();
        let boot = link_boot_binary(&fw, &kernel()).unwrap();
        let mut bytes = boot.to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(BootBinary::from_bytes(&bytes).is_err());
        let mut extra = boot.to_bytes();
        extra.push(7);
        assert!(BootBinary::from_bytes(&extra).is_err());
    }

    #[test]
    fn identity_tracks_components() {
        let fw_a = build_firmware(&FirmwareBuild::default()).unwrap();
        let fw_b = build_firmware(&FirmwareBuild {
            kind: FirmwareKind::Bbl,
            ..FirmwareBuild::default()
        })
        .unwrap();
        let k = kernel();
        let boot_a = link_boot_binary(&fw_a, &k).unwrap();
        let boot_b = link_boot_binary(&fw_b, &k).unwrap();
        assert_ne!(boot_a.fingerprint(), boot_b.fingerprint());
        assert!(boot_a.size() > 0);
    }
}
