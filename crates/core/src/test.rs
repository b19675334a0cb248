//! The `test` command (§III-D): build, launch, and compare outputs against
//! a reference.
//!
//! "A complete comparison of outputs is not typically appropriate as there
//! may be irrelevant or non-deterministic output (e.g., time stamps).
//! Instead, FireMarshal is able to clean outputs and allows the reference
//! to contain only a subset of the expected output. A test that produces
//! that subset somewhere in its output is considered a success."

use std::path::Path;

use crate::build::{BuildOptions, BuildProducts, Builder};
use crate::error::MarshalError;
use crate::launch::{launch_workload, LaunchOptions};

/// The outcome of testing one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestOutcome {
    /// The cleaned output contains the cleaned reference as an in-order
    /// subsequence.
    Pass,
    /// A reference line was not found; carries the first missing line.
    Fail {
        /// The job that failed.
        job: String,
        /// The first reference line that was not matched.
        missing: String,
    },
    /// The guest watchdog terminated a hung payload — a test failure with
    /// its own diagnostic, since the output is incomplete by construction.
    TimedOut {
        /// The job that hung.
        job: String,
        /// Instructions executed before the watchdog fired.
        instructions: u64,
    },
    /// The workload declares no `testing.refDir`.
    NoReference,
}

impl TestOutcome {
    /// Whether this outcome counts as success (passing or vacuous).
    pub fn passed(&self) -> bool {
        !matches!(
            self,
            TestOutcome::Fail { .. } | TestOutcome::TimedOut { .. }
        )
    }
}

/// Cleans a serial log for comparison: strips kernel timestamps
/// (`[ 12.345678] `), simulator banners, and trailing whitespace; drops
/// lines that are volatile across simulators (machine model, cycle
/// counts).
///
/// Banner prefixes come from the [`crate::simulator`] registry — every
/// backend declares the prefixes its banner lines carry, so adding a
/// backend can't silently break reference-output matching.
pub fn clean_output(log: &str) -> Vec<String> {
    let prefixes = crate::simulator::all_log_prefixes();
    log.lines()
        .map(|line| {
            // Strip a dmesg timestamp prefix.
            if line.starts_with('[') {
                if let Some(end) = line.find("] ") {
                    if line[1..end]
                        .chars()
                        .all(|c| c.is_ascii_digit() || c == '.' || c == ' ')
                    {
                        return line[end + 2..].trim_end().to_owned();
                    }
                }
            }
            line.trim_end().to_owned()
        })
        .filter(|line| {
            !line.is_empty()
                && !prefixes.iter().any(|p| line.starts_with(p))
                && !line.starts_with("Machine model")
                && !volatile(line)
        })
        .collect()
}

/// Lines containing measurement values that legitimately differ between
/// functional and cycle-exact simulation.
fn volatile(line: &str) -> bool {
    [
        "cycles=",
        "cycles:",
        "instret=",
        "RealTime",
        "UserTime",
        "KernelTime",
    ]
    .iter()
    .any(|p| line.contains(p))
}

/// Whether `reference` appears as an in-order subsequence of `output`.
pub fn subset_match(reference: &[String], output: &[String]) -> Result<(), String> {
    let mut out_iter = output.iter();
    for needle in reference {
        if !out_iter.any(|line| line == needle) {
            return Err(needle.clone());
        }
    }
    Ok(())
}

/// Compares one job's serial log against a reference file.
///
/// # Errors
///
/// I/O failures reading the reference.
pub fn compare_with_reference(
    job: &str,
    serial: &str,
    reference_path: &Path,
) -> Result<TestOutcome, MarshalError> {
    let reference = std::fs::read_to_string(reference_path)
        .map_err(|e| MarshalError::Io(format!("reference {}: {e}", reference_path.display())))?;
    let cleaned_ref = clean_output(&reference);
    let cleaned_out = clean_output(serial);
    match subset_match(&cleaned_ref, &cleaned_out) {
        Ok(()) => Ok(TestOutcome::Pass),
        Err(missing) => Ok(TestOutcome::Fail {
            job: job.to_owned(),
            missing,
        }),
    }
}

/// Locates the reference log for a job inside `refDir`: prefers
/// `<refDir>/<job>/uartlog`, then `<refDir>/uartlog`.
pub fn reference_for_job(ref_dir: &Path, job: &str) -> Option<std::path::PathBuf> {
    let per_job = ref_dir.join(job).join(crate::output::SERIAL_LOG);
    if per_job.exists() {
        return Some(per_job);
    }
    let shared = ref_dir.join(crate::output::SERIAL_LOG);
    if shared.exists() {
        return Some(shared);
    }
    None
}

/// A full `test` run: per-job outcomes plus every non-fatal diagnostic the
/// build and launch phases produced.
///
/// Warnings arrive through two channels — whole-build warnings on
/// [`BuildProducts`] and per-job warnings on each launch output — and the
/// same condition can surface on both. The CLI renders them through one
/// deduplicating boundary (see [`crate::cli`]) so each is printed once.
#[derive(Debug, Clone)]
pub struct TestReport {
    /// Per-job outcomes, in job order.
    pub outcomes: Vec<TestOutcome>,
    /// Build-phase warnings, in production order.
    pub build_warnings: Vec<crate::warnings::Warning>,
    /// Launch-phase warnings across all jobs, in production order.
    pub launch_warnings: Vec<crate::warnings::Warning>,
}

/// The `test` command: build + launch + compare every job.
///
/// # Errors
///
/// Build/launch errors. Comparison failures are reported in the outcomes,
/// not as errors.
pub fn test_workload(
    builder: &mut Builder,
    name: &str,
    options: &BuildOptions,
    launch_opts: &LaunchOptions,
) -> Result<Vec<TestOutcome>, MarshalError> {
    test_workload_report(builder, name, options, launch_opts).map(|r| r.outcomes)
}

/// [`test_workload`], keeping the build- and launch-phase warnings
/// alongside the outcomes.
///
/// # Errors
///
/// Same as [`test_workload`].
pub fn test_workload_report(
    builder: &mut Builder,
    name: &str,
    options: &BuildOptions,
    launch_opts: &LaunchOptions,
) -> Result<TestReport, MarshalError> {
    let products = builder.build(name, options)?;
    let run = launch_workload(builder, &products, launch_opts)?;
    let serials: Vec<(String, String)> = run
        .jobs
        .iter()
        .map(|j| (j.job.clone(), j.serial.clone()))
        .collect();
    let mut outcomes = compare_run(&products, &serials)?;
    // A watchdog-terminated job can never legitimately pass: its output is
    // incomplete no matter what the reference happens to match.
    for (outcome, job) in outcomes.iter_mut().zip(&run.jobs) {
        if job.timed_out {
            *outcome = TestOutcome::TimedOut {
                job: job.job.clone(),
                instructions: job.instructions,
            };
        }
    }
    Ok(TestReport {
        outcomes,
        build_warnings: products.warnings.clone(),
        launch_warnings: run.jobs.iter().flat_map(|j| j.warnings.clone()).collect(),
    })
}

/// Compares already-produced serial logs against the workload's reference —
/// also the implementation of `test --manual` for outputs that came from
/// the cycle-exact simulator (§III-E).
///
/// # Errors
///
/// I/O failures reading references.
pub fn compare_run(
    products: &BuildProducts,
    serials: &[(String, String)],
) -> Result<Vec<TestOutcome>, MarshalError> {
    let Some(testing) = &products.top_spec.testing else {
        return Ok(vec![TestOutcome::NoReference; serials.len()]);
    };
    let Some(ref_dir_name) = &testing.ref_dir else {
        return Ok(vec![TestOutcome::NoReference; serials.len()]);
    };
    let ref_dir = match &products.source_dir {
        Some(dir) => dir.join(ref_dir_name),
        None => {
            return Err(MarshalError::Other(
                "testing.refDir needs a workload source directory".to_owned(),
            ))
        }
    };
    serials
        .iter()
        .map(|(job, serial)| match reference_for_job(&ref_dir, job) {
            Some(path) => compare_with_reference(job, serial, &path),
            None => Ok(TestOutcome::NoReference),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleaning_strips_timestamps_and_banners() {
        let log = "[    0.001234] Linux version 5.7\nqemu-system-riscv64: starting\npayload ran\nRealTime: 1.23\n[   12.999999] reboot: Power down\n";
        let cleaned = clean_output(log);
        assert_eq!(
            cleaned,
            vec!["Linux version 5.7", "payload ran", "reboot: Power down"]
        );
    }

    #[test]
    fn cleaning_keeps_bracketed_non_timestamps() {
        let log = "[trace] marker 3\n[ERROR] bad\n";
        let cleaned = clean_output(log);
        assert_eq!(cleaned, vec!["[trace] marker 3", "[ERROR] bad"]);
    }

    #[test]
    fn subset_matching_in_order() {
        let output: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let good: Vec<String> = ["a", "c"].iter().map(|s| s.to_string()).collect();
        let bad_order: Vec<String> = ["c", "a"].iter().map(|s| s.to_string()).collect();
        let missing: Vec<String> = ["a", "z"].iter().map(|s| s.to_string()).collect();
        assert!(subset_match(&good, &output).is_ok());
        assert_eq!(subset_match(&bad_order, &output), Err("a".to_owned()));
        assert_eq!(subset_match(&missing, &output), Err("z".to_owned()));
        assert!(subset_match(&[], &output).is_ok());
    }

    /// A unique, self-cleaning temp directory. Uniqueness comes from a
    /// process-wide counter on top of the pid, so concurrently running
    /// tests (and stale dirs from a crashed run) can never collide; the
    /// Drop guard cleans up even when an assertion panics mid-test.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let d =
                std::env::temp_dir().join(format!("marshal-test-{tag}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&d).unwrap();
            TempDir(d)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn compare_against_reference_file() {
        let dir = TempDir::new("compare");
        let ref_path = dir.0.join("uartlog");
        std::fs::write(&ref_path, "payload ran\n").unwrap();
        let sim_log = "[    0.000001] boot\npayload ran\n[    0.000002] reboot: Power down\n";
        assert_eq!(
            compare_with_reference("j", sim_log, &ref_path).unwrap(),
            TestOutcome::Pass
        );
        let bad_log = "[    0.000001] boot\nsomething else\n";
        assert!(matches!(
            compare_with_reference("j", bad_log, &ref_path).unwrap(),
            TestOutcome::Fail { .. }
        ));
    }

    #[test]
    fn outcome_helpers() {
        assert!(TestOutcome::Pass.passed());
        assert!(TestOutcome::NoReference.passed());
        assert!(!TestOutcome::Fail {
            job: "x".into(),
            missing: "y".into()
        }
        .passed());
        assert!(!TestOutcome::TimedOut {
            job: "x".into(),
            instructions: 9
        }
        .passed());
    }
}
