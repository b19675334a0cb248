//! # marshal-config
//!
//! Workload specifications: the JSON/YAML configuration language of
//! FireMarshal (§III-A, Table II of the paper).
//!
//! - [`value`]: a dynamically-typed document tree shared by both syntaxes.
//! - [`json`]: JSON specs, read and written through the workspace's one
//!   codec, `marshal_trace::Json`.
//! - [`yaml`]: a YAML-subset parser (block mappings, sequences, scalars).
//! - [`schema`]: the typed [`WorkloadSpec`] with every Table II option.
//! - [`search`]: `$PATH`-style workload lookup across built-in and
//!   user-provided locations.
//! - [`inherit`]: recursive `base` resolution with per-option merge rules.
//! - [`jobs`]: expansion of the `jobs` option into per-node workloads.
//!
//! ## Example
//!
//! ```rust
//! use marshal_config::{SearchPath, resolve_workload};
//!
//! # fn main() -> Result<(), marshal_config::ConfigError> {
//! let mut search = SearchPath::new();
//! search.add_builtin("base.json", r#"{ "name": "base", "rootfs-size": "1GiB" }"#);
//! search.add_builtin(
//!     "bench.json",
//!     r#"{ "name": "bench", "base": "base.json", "command": "/run.sh" }"#,
//! );
//! let w = resolve_workload(&search, "bench.json")?;
//! assert_eq!(w.spec.command.as_deref(), Some("/run.sh"));
//! assert_eq!(w.spec.rootfs_size, Some(1 << 30)); // inherited
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod inherit;
pub mod jobs;
pub mod json;
pub mod schema;
pub mod search;
pub mod value;
pub mod yaml;

pub use error::ConfigError;
pub use inherit::{resolve_workload, ResolvedWorkload};
pub use jobs::expand_jobs;
pub use schema::{FirmwareKind, FirmwareSpec, JobSpec, LinuxSpec, TestingSpec, WorkloadSpec};
pub use search::SearchPath;
pub use value::Value;
