//! The runtime side of the write-claim registry.
//!
//! While a task's action runs, the executor installs the task's declared
//! claims in a thread-local; library code that writes build artifacts calls
//! [`assert_claimed`] on each path it is about to write. In debug builds an
//! undeclared write panics with the offending task and path, so a task
//! whose action grew a new output without a matching [`crate::Task::claim`]
//! declaration is caught by the test suite instead of silently racing other
//! tasks under parallel execution. Release builds skip the check entirely.

use std::cell::RefCell;
use std::path::{Path, PathBuf};

use crate::task::Task;

/// (task id, exact claims, tree claims) for the running task.
type ActiveClaims = (String, Vec<PathBuf>, Vec<PathBuf>);

thread_local! {
    static CURRENT: RefCell<Option<ActiveClaims>> = const { RefCell::new(None) };
}

/// Installs a task's claims for the duration of its action; the executor
/// holds one of these across [`Task::run`]. Dropping it clears the context.
pub(crate) struct ClaimScope;

impl ClaimScope {
    pub(crate) fn enter(task: &Task) -> ClaimScope {
        CURRENT.with(|c| {
            *c.borrow_mut() = Some((
                task.id().to_owned(),
                task.claims().cloned().collect(),
                task.claim_trees().to_vec(),
            ));
        });
        ClaimScope
    }
}

impl Drop for ClaimScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.borrow_mut().take());
    }
}

/// Debug-asserts that the currently running task declared `path` as a write
/// claim. Outside a task action (host-init, output collection, tests that
/// call actions directly) there is no context and the call is a no-op, as
/// it is in release builds.
///
/// # Panics
///
/// In debug builds, when called from inside a task action whose task did
/// not declare `path` via [`Task::output`], [`Task::claim`], or a
/// [`Task::claim_tree`] containing it.
pub fn assert_claimed(path: &Path) {
    if !cfg!(debug_assertions) {
        return;
    }
    CURRENT.with(|c| {
        if let Some((task, claims, trees)) = &*c.borrow() {
            assert!(
                claims.iter().any(|p| p == path) || trees.iter().any(|t| path.starts_with(t)),
                "task `{task}` wrote `{}` without declaring a write claim; \
                 add .output(), .claim(), or .claim_tree() for it so the \
                 parallel scheduler can audit cross-task conflicts",
                path.display()
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_context_is_a_noop() {
        // Outside any task action the check never fires.
        assert_claimed(Path::new("/anything/at/all"));
    }

    #[test]
    fn claimed_write_passes() {
        let t = Task::new("t", || Ok(())).output("/tmp/claimed.bin");
        let _scope = ClaimScope::enter(&t);
        assert_claimed(Path::new("/tmp/claimed.bin"));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug-only check")]
    #[should_panic(expected = "without declaring a write claim")]
    fn undeclared_write_panics_in_debug() {
        let t = Task::new("t", || Ok(())).output("/tmp/claimed.bin");
        let _scope = ClaimScope::enter(&t);
        assert_claimed(Path::new("/tmp/not-claimed.bin"));
    }

    #[test]
    fn tree_claim_covers_nested_paths() {
        let t = Task::new("t", || Ok(())).claim_tree("/work/objects");
        let _scope = ClaimScope::enter(&t);
        assert_claimed(Path::new("/work/objects/ab/abcdef.blob"));
        assert_claimed(Path::new("/work/objects"));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug-only check")]
    #[should_panic(expected = "without declaring a write claim")]
    fn tree_claim_does_not_cover_siblings() {
        let t = Task::new("t", || Ok(())).claim_tree("/work/objects");
        let _scope = ClaimScope::enter(&t);
        assert_claimed(Path::new("/work/levels/base.img"));
    }

    #[test]
    fn scope_clears_on_drop() {
        let t = Task::new("t", || Ok(()));
        {
            let _scope = ClaimScope::enter(&t);
        }
        // Context gone: an unclaimed path no longer trips the assertion.
        assert_claimed(Path::new("/tmp/whatever"));
    }
}
