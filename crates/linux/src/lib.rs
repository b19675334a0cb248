//! # marshal-linux
//!
//! The modelled Linux kernel — the substrate FireMarshal's build phase
//! manipulates (§III-B steps 4a–4d of the paper).
//!
//! What FireMarshal actually touches in a real kernel is its *build
//! artifact structure*: a defconfig refined by ordered configuration
//! fragments, out-of-tree modules, a generated initramfs for early boot,
//! and a final compiled image whose identity is a function of all of the
//! above. This crate reproduces exactly that structure with a real
//! Kconfig-style option system and a deterministic "compilation" that
//! produces content-addressed kernel artifacts.
//!
//! ## Example
//!
//! ```rust
//! use marshal_linux::kconfig::{KernelConfig, ConfigValue};
//! use marshal_linux::kernel::{KernelSource, build_kernel};
//! use marshal_linux::initramfs::InitramfsSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut config = KernelConfig::riscv_defconfig();
//! config.merge_fragment("CONFIG_PFA=y\n# CONFIG_DEBUG_INFO is not set\n")?;
//! assert_eq!(config.get("PFA"), Some(&ConfigValue::Yes));
//!
//! let src = KernelSource::default_source();
//! let initramfs = InitramfsSpec::new().build(&config, &src)?;
//! let kernel = build_kernel(&src, &config, &initramfs)?;
//! assert!(kernel.version().starts_with("5."));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod initramfs;
pub mod kconfig;
pub mod kernel;
pub mod modules;

pub use initramfs::InitramfsSpec;
pub use kconfig::{ConfigValue, KernelConfig};
pub use kernel::{build_kernel, KernelArtifact, KernelSource};
pub use modules::{build_module, ModuleArtifact};

/// Errors from the modelled kernel build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinuxError {
    /// A configuration fragment line could not be parsed.
    BadFragment {
        /// 1-based line number within the fragment.
        line: usize,
        /// Description.
        message: String,
    },
    /// An image operation failed while generating the initramfs.
    Image(String),
    /// Kernel build failure (e.g. config invariant violated).
    Build(String),
}

impl std::fmt::Display for LinuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinuxError::BadFragment { line, message } => {
                write!(f, "bad config fragment at line {line}: {message}")
            }
            LinuxError::Image(m) => write!(f, "initramfs image error: {m}"),
            LinuxError::Build(m) => write!(f, "kernel build error: {m}"),
        }
    }
}

impl std::error::Error for LinuxError {}

impl From<marshal_trace::bytes::DecodeError> for LinuxError {
    fn from(e: marshal_trace::bytes::DecodeError) -> LinuxError {
        LinuxError::Build(format!("malformed kernel blob: {e}"))
    }
}

impl From<marshal_image::FsError> for LinuxError {
    fn from(e: marshal_image::FsError) -> LinuxError {
        LinuxError::Image(e.to_string())
    }
}
