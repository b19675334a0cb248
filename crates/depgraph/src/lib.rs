//! # marshal-depgraph
//!
//! A doit-style incremental build engine, reproducing the dependency
//! tracking FireMarshal gets from the `doit` Python package (§III-B of the
//! paper): tasks form a DAG, each task carries a *fingerprint* of its
//! inputs, and a persisted state database lets later builds skip any task
//! whose fingerprint is unchanged and whose outputs still exist.
//!
//! [`Graph::execute`] is the one way to run a graph. Its [`Plan`] says
//! what to build (every task, or a root subset and its dependencies), on
//! how many threads, and whether to run anything: [`Plan::local`] is the
//! whole graph on a pool of a given width, and a dry run plans without
//! executing. The pool's workers share the build state under one lock and
//! the calling thread is one of them, so `-j 1` builds on the caller.
//! [`ExecOptions`] carries the settings that hold at every width:
//! keep-going, the run-journal recorder, and the progress callback.
//!
//! Work that is not a graph — N independent jobs whose results are wanted
//! in order, such as the simulations of one workload's jobs — goes
//! through [`run_ordered`], the one ordered worker pool. Both pools take
//! their default width from [`host_threads`].
//!
//! ## Example
//!
//! ```rust
//! use marshal_depgraph::{ExecOptions, Graph, Plan, StateDb, Task};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), marshal_depgraph::BuildError> {
//! let runs = Arc::new(AtomicUsize::new(0));
//! let mut g = Graph::new();
//! let r = runs.clone();
//! g.add(Task::new("compile", move || { r.fetch_add(1, Ordering::SeqCst); Ok(()) })
//!     .input(b"source-v1"))?;
//! let r = runs.clone();
//! g.add(Task::new("link", move || { r.fetch_add(1, Ordering::SeqCst); Ok(()) })
//!     .dep("compile"))?;
//!
//! let mut db = StateDb::in_memory();
//! let opts = ExecOptions::default();
//! let report = g.execute(&mut db, Plan::local(1), &opts)?;
//! assert_eq!(report.executed.len(), 2);
//! // Second build: nothing changed, everything is skipped.
//! let report = g.execute(&mut db, Plan::local(1), &opts)?;
//! assert!(report.executed.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod claims;
pub mod error;
pub mod exec;
pub mod graph;
pub mod hash;
pub mod persist;
mod pool;
pub mod state;
pub mod task;

pub use claims::assert_claimed;
pub use error::BuildError;
pub use exec::{BuildReport, ExecOptions, ExecProgress, Plan, ProgressFn};
pub use graph::Graph;
pub use hash::{Fingerprint, Hasher128};
pub use pool::{host_threads, run_ordered};
pub use state::StateDb;
pub use task::Task;
