//! Build errors.

use std::fmt;

/// Error raised while constructing or executing a build graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A task with the same id was already registered.
    DuplicateTask(String),
    /// A task depends on an id that was never registered.
    UnknownDependency {
        /// The task with the bad edge.
        task: String,
        /// The missing dependency id.
        dependency: String,
    },
    /// The graph contains a dependency cycle through the named task.
    Cycle(String),
    /// A task action returned an error.
    TaskFailed {
        /// The failing task id.
        task: String,
        /// The action's error message.
        message: String,
    },
    /// Two tasks that are not ordered by a dependency both claim to write
    /// the same path — running them concurrently (or in either order)
    /// would race on the file, so the graph is rejected before anything
    /// executes.
    Conflict {
        /// The doubly-claimed path.
        path: String,
        /// The first claiming task (lexicographically smaller id).
        first: String,
        /// The second claiming task.
        second: String,
    },
    /// The persistent state database could not be read or written.
    State(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateTask(id) => write!(f, "duplicate task `{id}`"),
            BuildError::UnknownDependency { task, dependency } => {
                write!(f, "task `{task}` depends on unknown task `{dependency}`")
            }
            BuildError::Cycle(id) => write!(f, "dependency cycle through task `{id}`"),
            BuildError::TaskFailed { task, message } => {
                write!(f, "task `{task}` failed: {message}")
            }
            BuildError::Conflict {
                path,
                first,
                second,
            } => write!(
                f,
                "write conflict: tasks `{first}` and `{second}` both claim `{path}` \
                 but neither depends on the other; add a dependency edge or give \
                 them distinct output paths"
            ),
            BuildError::State(msg) => write!(f, "state database error: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = BuildError::TaskFailed {
            task: "kernel".into(),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "task `kernel` failed: boom");
        assert!(BuildError::Cycle("a".into()).to_string().contains("cycle"));
        let e = BuildError::Conflict {
            path: "/tmp/rootfs.img".into(),
            first: "img:a".into(),
            second: "img:b".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("img:a") && msg.contains("img:b"), "{msg}");
        assert!(msg.contains("/tmp/rootfs.img"), "{msg}");
    }
}
