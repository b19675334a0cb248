//! Task definitions.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use crate::hash::{Fingerprint, Hasher128};

/// The action a task performs when it is out of date.
pub type Action = Arc<dyn Fn() -> Result<(), String> + Send + Sync>;

/// A unit of build work.
///
/// A task is identified by a unique id, depends on other tasks by id,
/// carries input bytes that are folded into its fingerprint, and may declare
/// output files whose absence forces a re-run even when inputs are
/// unchanged (mirroring `doit`'s `targets`).
///
/// ```rust
/// use marshal_depgraph::Task;
/// let t = Task::new("kernel", || Ok(()))
///     .dep("initramfs")
///     .input(b"config-fragment-v2")
///     .output("/tmp/kernel.bin");
/// assert_eq!(t.id(), "kernel");
/// ```
#[derive(Clone)]
pub struct Task {
    id: String,
    deps: Vec<String>,
    inputs: Vec<Vec<u8>>,
    outputs: Vec<PathBuf>,
    claims: Vec<PathBuf>,
    claim_trees: Vec<PathBuf>,
    retries: u32,
    action: Action,
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("id", &self.id)
            .field("deps", &self.deps)
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs)
            .finish()
    }
}

impl Task {
    /// Creates a task with the given id and action.
    pub fn new<F>(id: impl Into<String>, action: F) -> Task
    where
        F: Fn() -> Result<(), String> + Send + Sync + 'static,
    {
        Task {
            id: id.into(),
            deps: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            claims: Vec::new(),
            claim_trees: Vec::new(),
            retries: 0,
            action: Arc::new(action),
        }
    }

    /// Adds a dependency edge: this task runs after `dep`.
    pub fn dep(mut self, dep: impl Into<String>) -> Task {
        self.deps.push(dep.into());
        self
    }

    /// Folds input bytes into the task fingerprint.
    pub fn input(mut self, bytes: &[u8]) -> Task {
        self.inputs.push(bytes.to_vec());
        self
    }

    /// Declares an output file; if missing at build time the task re-runs.
    /// Outputs are also write claims (see [`Task::claim`]).
    pub fn output(mut self, path: impl Into<PathBuf>) -> Task {
        self.outputs.push(path.into());
        self
    }

    /// Declares an additional write claim: a path this task's action writes
    /// that is not a tracked output (checksum sidecars, shared caches).
    ///
    /// The executor rejects a graph in which two tasks claim the same path
    /// unless one depends (transitively) on the other, so claims are what
    /// make parallel execution safe. In debug builds, writes routed through
    /// [`crate::claims::assert_claimed`] additionally verify at run time
    /// that the written path was declared. Like the retry budget, claims
    /// are execution metadata and do not change the task fingerprint.
    pub fn claim(mut self, path: impl Into<PathBuf>) -> Task {
        self.claims.push(path.into());
        self
    }

    /// Declares a *shared* write claim over a directory tree: this task may
    /// write any path under `root`, and other tasks claiming the same tree
    /// may do so concurrently.
    ///
    /// This is the claim shape for content-addressed stores, where the
    /// exact paths are derived from content at run time and concurrent
    /// writes of the same path are idempotent (write-once blobs landed via
    /// [`crate::persist::write_atomic`]). The executor therefore allows any
    /// number of unordered tree claimants of the same root, but still
    /// rejects an unordered *exact* claim under another task's tree — an
    /// exclusive writer racing the shared pool is a real conflict. Like
    /// [`Task::claim`], tree claims are execution metadata and do not
    /// change the task fingerprint.
    pub fn claim_tree(mut self, root: impl Into<PathBuf>) -> Task {
        self.claim_trees.push(root.into());
        self
    }

    /// Marks the task as retryable: on failure its action is re-run up to
    /// `n` additional times before the failure is reported. Retries are
    /// deterministic — a fixed attempt budget, no wall-clock backoff — so
    /// a build with a persistently failing task behaves identically on
    /// every run.
    pub fn retries(mut self, n: u32) -> Task {
        self.retries = n;
        self
    }

    /// The retry budget set with [`Task::retries`] (0 = fail on first error).
    pub fn retry_budget(&self) -> u32 {
        self.retries
    }

    /// The unique task id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Dependency ids.
    pub fn deps(&self) -> &[String] {
        &self.deps
    }

    /// Declared output files.
    pub fn outputs(&self) -> &[PathBuf] {
        &self.outputs
    }

    /// Every path this task declares it writes: outputs plus extra claims.
    pub fn claims(&self) -> impl Iterator<Item = &PathBuf> {
        self.outputs.iter().chain(self.claims.iter())
    }

    /// Shared directory-tree claims declared with [`Task::claim_tree`].
    pub fn claim_trees(&self) -> &[PathBuf] {
        &self.claim_trees
    }

    /// Runs the task's action.
    ///
    /// # Errors
    ///
    /// Propagates the action's error message.
    pub fn run(&self) -> Result<(), String> {
        (self.action)()
    }

    /// The fingerprint of this task's own inputs (not including deps).
    /// Output paths are left out, so a copied or moved workdir keeps its
    /// tasks up to date; a missing output still forces a re-run
    /// ([`Task::outputs_exist`]).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = Hasher128::new();
        h.update_field(self.id.as_bytes());
        for d in &self.deps {
            h.update_field(d.as_bytes());
        }
        for i in &self.inputs {
            h.update_field(i);
        }
        h.finish()
    }

    /// Whether every declared output currently exists on disk.
    ///
    /// Tasks with no declared outputs vacuously report `true`.
    pub fn outputs_exist(&self) -> bool {
        self.outputs.iter().all(|p| p.exists())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_changes_with_inputs() {
        let a = Task::new("t", || Ok(())).input(b"one");
        let b = Task::new("t", || Ok(())).input(b"two");
        let c = Task::new("t", || Ok(())).input(b"one");
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_includes_identity_and_deps() {
        let a = Task::new("a", || Ok(()));
        let b = Task::new("b", || Ok(()));
        assert_ne!(a.fingerprint(), b.fingerprint());
        let a2 = Task::new("a", || Ok(())).dep("x");
        assert_ne!(a.fingerprint(), a2.fingerprint());
    }

    #[test]
    fn missing_outputs_detected() {
        let t = Task::new("t", || Ok(())).output("/definitely/not/here");
        assert!(!t.outputs_exist());
        let t = Task::new("t", || Ok(()));
        assert!(t.outputs_exist());
    }

    #[test]
    fn action_errors_propagate() {
        let t = Task::new("t", || Err("nope".to_owned()));
        assert_eq!(t.run(), Err("nope".to_owned()));
    }

    #[test]
    fn retry_budget_defaults_to_zero() {
        assert_eq!(Task::new("t", || Ok(())).retry_budget(), 0);
        assert_eq!(Task::new("t", || Ok(())).retries(3).retry_budget(), 3);
    }

    #[test]
    fn claims_cover_outputs_and_extras() {
        let t = Task::new("t", || Ok(()))
            .output("/tmp/a.bin")
            .claim("/tmp/a.bin.fp");
        let claimed: Vec<_> = t.claims().map(|p| p.display().to_string()).collect();
        assert_eq!(claimed, vec!["/tmp/a.bin", "/tmp/a.bin.fp"]);
    }

    #[test]
    fn claims_do_not_change_fingerprint() {
        // Claims are execution metadata, like retries: declaring them must
        // not invalidate previously built state.
        let a = Task::new("t", || Ok(())).input(b"x");
        let b = Task::new("t", || Ok(())).input(b"x").claim("/tmp/side.fp");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Task::new("t", || Ok(()))
            .input(b"x")
            .claim_tree("/tmp/objects");
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn claim_trees_accessible() {
        let t = Task::new("t", || Ok(()))
            .claim_tree("/work/objects")
            .claim_tree("/work/cache");
        let trees: Vec<_> = t
            .claim_trees()
            .iter()
            .map(|p| p.display().to_string())
            .collect();
        assert_eq!(trees, vec!["/work/objects", "/work/cache"]);
        // Tree claims are not exact claims.
        assert_eq!(t.claims().count(), 0);
    }

    #[test]
    fn retry_budget_does_not_change_fingerprint() {
        // Retry policy is execution behaviour, not content: changing it must
        // not invalidate previously built state.
        let a = Task::new("t", || Ok(())).input(b"x");
        let b = Task::new("t", || Ok(())).input(b"x").retries(2);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
