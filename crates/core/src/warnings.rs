//! Structured warnings.
//!
//! Library code never prints to stderr: anything worth telling the user
//! that is not an error is returned as a [`Warning`] on the operation's
//! result ([`crate::build::BuildProducts::warnings`],
//! [`crate::launch::LaunchOutput::warnings`]) and rendered exactly once by
//! the CLI, in the order it was produced. This keeps `run_command`'s
//! `(code, log)` contract complete — embedders see every diagnostic — and
//! keeps parallel builds tidy: no interleaved stderr from worker threads.
//!
//! Every warning carries a stable machine-readable [`Warning::code`] and a
//! [`Severity`]. The code identifies the *kind* of warning independent of
//! its message text, so the CLI can deduplicate a diagnostic that reaches
//! it through two channels (say, a build warning re-surfaced per launch
//! job) and so the run journal can aggregate by kind.

use std::fmt;

/// How serious a warning is. Rendering is identical across severities —
/// the distinction exists for journal aggregation and embedders that want
/// to promote `Degraded` conditions to hard failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Severity {
    /// A condition worth the user's attention (the default).
    #[default]
    Warn,
    /// A capability was lost for this run (e.g. a launch fell back to a
    /// cold boot) but the operation still succeeded.
    Degraded,
}

impl Severity {
    /// The stable lowercase name used in journals.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Degraded => "degraded",
        }
    }
}

/// One non-fatal diagnostic produced by a build or launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Warning {
    /// What the warning is about (a job name, a task id, or empty for
    /// whole-build warnings such as state-database recovery).
    pub context: String,
    /// The human-readable message.
    pub message: String,
    /// How serious the condition is. Does not affect rendering.
    pub severity: Severity,
    /// Stable machine-readable kind, e.g. `state-recovered` or
    /// `checkpoint-corrupt`. `"generic"` for warnings without a specific
    /// classification; the CLI's dedupe treats two `generic` warnings as
    /// the same only when their messages also match.
    pub code: &'static str,
}

impl Warning {
    /// Creates a warning scoped to `context` (pass `""` for whole-build
    /// warnings) with the default severity and the `generic` code.
    pub fn new(context: impl Into<String>, message: impl Into<String>) -> Warning {
        Warning {
            context: context.into(),
            message: message.into(),
            severity: Severity::Warn,
            code: "generic",
        }
    }

    /// Creates a warning with a specific stable code.
    pub fn with_code(
        context: impl Into<String>,
        message: impl Into<String>,
        code: &'static str,
    ) -> Warning {
        Warning {
            code,
            ..Warning::new(context, message)
        }
    }

    /// Sets the severity, builder-style.
    pub fn severity(mut self, severity: Severity) -> Warning {
        self.severity = severity;
        self
    }
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.context.is_empty() {
            write!(f, "warning: {}", self.message)
        } else {
            write!(f, "warning: {}: {}", self.context, self.message)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_context() {
        let w = Warning::new("hello.client", "output `results.txt` missing");
        assert_eq!(
            w.to_string(),
            "warning: hello.client: output `results.txt` missing"
        );
        let w = Warning::new("", "state database corrupt");
        assert_eq!(w.to_string(), "warning: state database corrupt");
    }

    #[test]
    fn defaults_and_builders() {
        let w = Warning::new("ctx", "msg");
        assert_eq!(w.code, "generic");
        assert_eq!(w.severity, Severity::Warn);
        let w = Warning::with_code("ctx", "msg", "checkpoint-corrupt").severity(Severity::Degraded);
        assert_eq!(w.code, "checkpoint-corrupt");
        assert_eq!(w.severity, Severity::Degraded);
        assert_eq!(w.severity.as_str(), "degraded");
    }
}
