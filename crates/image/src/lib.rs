//! # marshal-image
//!
//! Deterministic filesystem images — the "disk image" half of a FireMarshal
//! workload (Fig. 3 of the paper).
//!
//! - [`fs`]: an in-memory filesystem tree (files, directories, symlinks,
//!   permission bits) with path operations; copy-on-write with memoized
//!   Merkle fingerprints, so cloning an image is O(1) and re-hashing after
//!   a mutation costs only the changed subtree.
//! - [`format`](mod@format): a byte-stable binary image format (`MIMG`).
//! - [`store`]: a content-addressed blob store plus `MMAN` manifests, so
//!   persisted levels share payload bytes instead of repeating them.
//! - [`cpio`]: a newc-inspired archive used for initramfs payloads.
//! - [`overlay`]: overlaying trees and host directories onto an image.
//! - [`initsys`]: init-system integration — Buildroot-style `init` scripts
//!   and Fedora-style `systemd` units that run a workload's `command`/`run`
//!   payload at boot, and one-shot `guest-init` hooks.
//!
//! ## Example
//!
//! ```rust
//! use marshal_image::FsImage;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut img = FsImage::new();
//! img.write_file("/etc/hostname", b"buildroot")?;
//! img.write_exec("/bin/bench", b"MEXE...")?;
//! assert_eq!(img.read_file("/etc/hostname")?, b"buildroot");
//! let bytes = img.to_bytes();
//! let back = FsImage::from_bytes(&bytes)?;
//! assert_eq!(back.read_file("/etc/hostname")?, b"buildroot");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cpio;
pub mod format;
pub mod fs;
pub mod initsys;
pub mod overlay;
pub mod store;

pub use fs::{Blob, Dir, FsError, FsImage, Node};
pub use initsys::{BootPayload, InitSystem};
pub use store::{manifest_refs, read_level, BlobStore, StoreError, StoreStats};
