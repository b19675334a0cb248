//! # marshal-core
//!
//! The FireMarshal tool itself: the paper's primary contribution.
//!
//! Implements the five lifecycle phases of §II with Table I's command
//! surface:
//!
//! | command | module | paper section |
//! |---|---|---|
//! | `build` | [`build`] | §III-B: recursive parent builds, kernel/firmware, disk image, `--no-disk` |
//! | `launch` | [`launch`] | §III-C: functional simulation, output collection, post-run hooks |
//! | `test` | [`test`](mod@test) | §III-D: reference-output matching with output cleaning |
//! | `install` | [`install`] | §III-E: cycle-exact simulator configuration generation |
//! | `clean` | [`clean`] | artifact/state removal |
//! | `scrub` | [`scrub`] | pool verification and quarantine |
//!
//! The [`cli`] module is the `marshal` command-line front-end.
//!
//! ## Example
//!
//! ```rust,no_run
//! use marshal_core::{Builder, Board};
//! use marshal_config::SearchPath;
//!
//! # fn main() -> Result<(), marshal_core::MarshalError> {
//! let board = Board::minimal("demo");
//! let mut search = SearchPath::new();
//! search.add_builtin("hello.json",
//!     r#"{"name":"hello","distro":"buildroot","command":"/bin/hello"}"#);
//! let mut builder = Builder::new(board, search, "./marshal-workdir")?;
//! let products = builder.build("hello.json", &Default::default())?;
//! let output = marshal_core::launch::launch_job(&builder, &products, 0, &Default::default())?;
//! println!("{}", output.serial);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod board;
pub mod build;
pub mod checkpoint;
pub mod clean;
pub mod cli;
pub mod connector;
pub mod cosim;
pub mod error;
pub mod faultinject;
pub mod imagestore;
pub mod install;
pub mod integrity;
pub mod launch;
pub mod output;
pub mod scrub;
pub mod simulator;
pub mod test;
pub mod warnings;

pub use board::Board;
pub use build::{BuildOptions, BuildProducts, Builder, JobArtifacts, JobKind};
pub use checkpoint::{checkpoint_key, CheckpointLoad, CheckpointStore};
pub use clean::{prune_runs, CleanReport, DEFAULT_KEEP_RUNS};
pub use cosim::{CosimOptions, CosimReport, Divergence};
pub use error::MarshalError;
pub use imagestore::{ImageStore, PoolPin};
pub use install::InstallManifest;
pub use launch::{LaunchOptions, LaunchOutput};
pub use scrub::{scrub_pool, ScrubReport};
pub use simulator::{simulator_for, simulator_names, BackendOptions, SimRun, Simulator};
pub use test::{clean_output, TestOutcome, TestReport};
pub use warnings::{Severity, Warning};
