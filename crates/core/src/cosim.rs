//! Lockstep co-simulation (`marshal cosim`): run two backends on the
//! identical built artifacts and diff their behaviour.
//!
//! The paper's portability claim (§III-C/E) is that the *exact same
//! artifacts* produce the same workload behaviour on functional and
//! cycle-exact simulation. This module turns that claim into an
//! executable check: both backends run the same built artifacts through
//! the run path `launch` takes, and their canonical uartlogs, exit codes,
//! and the `outputs` files `launch` would collect are compared, reporting
//! the first divergence with surrounding context.
//!
//! Instruction counts are deliberately *not* compared — they legitimately
//! differ across backends (e.g. digit loops printing cycle counters run
//! different iteration counts), which is exactly why the uartlog
//! canonicalization in [`crate::test`] filters volatile lines.

use std::collections::BTreeMap;
use std::fmt;

use marshal_sim_rtl::HardwareConfig;
use marshal_trace::Recorder;

use crate::build::{BuildProducts, JobArtifacts};
use crate::checkpoint::CheckpointStore;
use crate::error::MarshalError;
use crate::launch::run_job;
use crate::simulator::BackendOptions;
use crate::test::clean_output;
use crate::warnings::Warning;

/// Options for `cosim`.
#[derive(Debug, Clone)]
pub struct CosimOptions {
    /// The two backends to run in lockstep (`--sim a,b`).
    pub backends: (String, String),
    /// Guest watchdog budget override, applied to both backends.
    pub timeout_insts: Option<u64>,
    /// Hardware configuration when a cycle-exact backend participates.
    pub hw: Option<HardwareConfig>,
    /// Self-test (`--inject-divergence`): flip one bit in one serial byte
    /// of the second backend's output before comparing, to prove the
    /// checker detects single-byte divergence.
    pub inject_divergence: bool,
    /// Run-journal recorder; each backend observation records a `sim` span.
    pub recorder: Recorder,
    /// Boot-checkpoint store. When set, each backend restores (or writes)
    /// its own boot checkpoint — keyed per backend configuration, so the
    /// two sides never share a snapshot. `None` always boots cold.
    pub checkpoints: Option<CheckpointStore>,
    /// How many backend observations run at once (`-j N`), as
    /// [`crate::launch::LaunchOptions::jobs`]: `None` uses the host's
    /// available parallelism. Reports are the same at every width.
    pub jobs: Option<usize>,
}

impl Default for CosimOptions {
    fn default() -> CosimOptions {
        CosimOptions {
            // Functional vs cycle-exact: the pairing the paper's claim is
            // actually about.
            backends: ("qemu".to_owned(), "rtl".to_owned()),
            timeout_insts: None,
            hw: None,
            inject_divergence: false,
            recorder: Recorder::disabled(),
            checkpoints: None,
            jobs: None,
        }
    }
}

/// What one backend did with a job's artifacts: everything the lockstep
/// comparison looks at.
#[derive(Debug, Clone)]
pub struct BackendBehaviour {
    /// The backend's registry name.
    pub backend: String,
    /// Raw serial log.
    pub serial: String,
    /// Canonicalized serial log ([`crate::test::clean_output`]).
    pub canonical: Vec<String>,
    /// Payload exit code.
    pub exit_code: i64,
    /// Guest instructions executed (reported, never compared).
    pub instructions: u64,
    /// Whether the watchdog terminated the run.
    pub timed_out: bool,
    /// What the declared `outputs` paths cover in the final image, the
    /// files `launch` collects ([`marshal_image::FsImage::output_nodes`]):
    /// guest path → contents. A directory is keyed with a trailing `/` and
    /// has empty contents.
    pub outputs: BTreeMap<String, Vec<u8>>,
    /// Non-fatal diagnostics from this observation (e.g. a corrupt boot
    /// checkpoint that forced a cold boot).
    pub warnings: Vec<Warning>,
}

/// The first point where two backends' behaviour differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Canonical serial logs differ.
    Serial {
        /// Zero-based canonical line index of the first difference.
        line: usize,
        /// First backend's line (`None` when its log ended first).
        a: Option<String>,
        /// Second backend's line (`None` when its log ended first).
        b: Option<String>,
        /// The shared canonical lines immediately before the divergence.
        context: Vec<String>,
    },
    /// Exit codes differ.
    ExitCode {
        /// First backend's exit code.
        a: i64,
        /// Second backend's exit code.
        b: i64,
    },
    /// An extracted output file differs or exists on only one backend.
    Output {
        /// Guest path of the diverging output.
        path: String,
        /// Human-readable description of the difference.
        detail: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Serial {
                line,
                a,
                b,
                context,
            } => {
                writeln!(f, "serial logs diverge at canonical line {line}:")?;
                for c in context {
                    writeln!(f, "      {c}")?;
                }
                match a {
                    Some(line) => writeln!(f, "    a>{line}")?,
                    None => writeln!(f, "    a> <log ends>")?,
                }
                match b {
                    Some(line) => write!(f, "    b>{line}"),
                    None => write!(f, "    b> <log ends>"),
                }
            }
            Divergence::ExitCode { a, b } => {
                write!(f, "exit codes diverge: {a} vs {b}")
            }
            Divergence::Output { path, detail } => {
                write!(f, "output `{path}` diverges: {detail}")
            }
        }
    }
}

/// One job's lockstep comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobCosim {
    /// The job's qualified name.
    pub job: String,
    /// The two backends compared.
    pub backends: (String, String),
    /// Per-backend instruction counts (informational only).
    pub instructions: (u64, u64),
    /// The first divergence, if any.
    pub divergence: Option<Divergence>,
    /// Non-fatal diagnostics from both backends, in observation order.
    pub warnings: Vec<Warning>,
}

impl JobCosim {
    /// Whether both backends behaved identically.
    pub fn agreed(&self) -> bool {
        self.divergence.is_none()
    }
}

/// A whole workload's lockstep comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosimReport {
    /// Workload name.
    pub workload: String,
    /// The two backends compared.
    pub backends: (String, String),
    /// Per-job results, in job order.
    pub jobs: Vec<JobCosim>,
}

impl CosimReport {
    /// Whether every job agreed on both backends.
    pub fn agreed(&self) -> bool {
        self.jobs.iter().all(JobCosim::agreed)
    }
}

/// Runs one backend over a job's artifacts through the run path `launch`
/// takes, and captures the behaviour the comparison looks at.
///
/// # Errors
///
/// Unknown backends, artifact errors, simulation errors.
pub fn observe_backend(
    backend_name: &str,
    job: &JobArtifacts,
    opts: &CosimOptions,
) -> Result<BackendBehaviour, MarshalError> {
    let backend_opts = BackendOptions {
        timeout_insts: opts.timeout_insts,
        hw: opts.hw.clone(),
    };
    let (backend, run, warnings) = run_job(
        job,
        backend_name,
        &backend_opts,
        opts.checkpoints.as_ref(),
        &opts.recorder,
    )?;
    let result = run.result;
    let mut outputs = BTreeMap::new();
    if let Some(image) = &result.image {
        for declared in &job.spec.outputs {
            let root = declared.trim_end_matches('/');
            for (rel, data) in image.output_nodes(declared).unwrap_or_default() {
                match data {
                    Some(data) => outputs.insert(format!("{root}{rel}"), data.to_vec()),
                    None => outputs.insert(format!("{root}{rel}/"), Vec::new()),
                };
            }
        }
    }
    Ok(BackendBehaviour {
        backend: backend.to_owned(),
        canonical: clean_output(&result.serial),
        serial: result.serial,
        exit_code: result.exit_code,
        instructions: result.instructions,
        timed_out: result.timed_out,
        outputs,
        warnings,
    })
}

/// How many shared lines to show before a serial divergence.
const CONTEXT_LINES: usize = 3;

/// Compares two backends' observed behaviour, returning the first
/// divergence: canonical serial first (the paper's behaviour criterion),
/// then exit code, then extracted outputs.
pub fn compare_behaviour(a: &BackendBehaviour, b: &BackendBehaviour) -> Option<Divergence> {
    let len = a.canonical.len().max(b.canonical.len());
    for i in 0..len {
        let la = a.canonical.get(i);
        let lb = b.canonical.get(i);
        if la != lb {
            let start = i.saturating_sub(CONTEXT_LINES);
            return Some(Divergence::Serial {
                line: i,
                a: la.cloned(),
                b: lb.cloned(),
                context: a.canonical[start..i].to_vec(),
            });
        }
    }
    if a.exit_code != b.exit_code {
        return Some(Divergence::ExitCode {
            a: a.exit_code,
            b: b.exit_code,
        });
    }
    for path in a.outputs.keys().chain(b.outputs.keys()) {
        match (a.outputs.get(path), b.outputs.get(path)) {
            (Some(da), Some(db)) if da != db => {
                let detail = first_byte_difference(da, db);
                return Some(Divergence::Output {
                    path: path.clone(),
                    detail,
                });
            }
            (Some(_), None) => {
                return Some(Divergence::Output {
                    path: path.clone(),
                    detail: format!("present on {} only", a.backend),
                });
            }
            (None, Some(_)) => {
                return Some(Divergence::Output {
                    path: path.clone(),
                    detail: format!("present on {} only", b.backend),
                });
            }
            _ => {}
        }
    }
    None
}

/// Describes where two byte strings first differ.
fn first_byte_difference(a: &[u8], b: &[u8]) -> String {
    match a.iter().zip(b.iter()).position(|(x, y)| x != y) {
        Some(i) => format!(
            "first differing byte at offset {i} ({:#04x} vs {:#04x})",
            a[i], b[i]
        ),
        None => format!("lengths differ ({} vs {} bytes)", a.len(), b.len()),
    }
}

/// Flips the low bit of the last byte of the last canonical-surviving
/// serial line — the single-byte fault the acceptance criteria require the
/// checker to catch. Canonical output is recomputed afterwards, so the
/// flip cannot hide behind log cleaning.
pub fn inject_single_byte_divergence(behaviour: &mut BackendBehaviour) {
    // Pick the last serial line that survives canonicalization: flipping a
    // banner or volatile line would (correctly) go undetected.
    if let Some(target) = behaviour.canonical.last().cloned() {
        if let Some(pos) = behaviour.serial.rfind(&target) {
            let mut bytes = behaviour.serial.clone().into_bytes();
            let idx = pos + target.len() - 1;
            // ASCII-safe single-bit flip keeps the log valid UTF-8.
            bytes[idx] ^= 0x01;
            behaviour.serial = String::from_utf8(bytes).expect("bit flip stays ASCII");
            behaviour.canonical = clean_output(&behaviour.serial);
        }
    }
}

/// Runs every job of a built workload on both backends in lockstep. The
/// (job, backend) observations are independent, so they run up to
/// [`CosimOptions::jobs`] at a time through
/// [`marshal_depgraph::run_ordered`], in the order job 0 side a, job 0
/// side b, job 1 side a, and so on, and are paired back up in job order;
/// `--inject-divergence` flips a byte on side b.
///
/// # Errors
///
/// First failing observation's error, in that order.
pub fn cosim_workload(
    products: &BuildProducts,
    opts: &CosimOptions,
) -> Result<CosimReport, MarshalError> {
    let sides = [&opts.backends.0, &opts.backends.1];
    let mut observed = marshal_depgraph::run_ordered(2 * products.jobs.len(), opts.jobs, |i| {
        observe_backend(sides[i % 2], &products.jobs[i / 2], opts)
    })?
    .into_iter();
    let mut jobs = Vec::with_capacity(products.jobs.len());
    for job in &products.jobs {
        let (Some(a), Some(mut b)) = (observed.next(), observed.next()) else {
            unreachable!("two observations per job");
        };
        if opts.inject_divergence {
            inject_single_byte_divergence(&mut b);
        }
        let divergence = compare_behaviour(&a, &b);
        let mut warnings = a.warnings;
        warnings.extend(b.warnings);
        jobs.push(JobCosim {
            job: job.name.clone(),
            backends: (a.backend, b.backend),
            instructions: (a.instructions, b.instructions),
            divergence,
            warnings,
        });
    }
    Ok(CosimReport {
        workload: products.workload.clone(),
        backends: opts.backends.clone(),
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn behaviour(backend: &str, serial: &str, exit_code: i64) -> BackendBehaviour {
        BackendBehaviour {
            backend: backend.to_owned(),
            serial: serial.to_owned(),
            canonical: clean_output(serial),
            exit_code,
            instructions: 0,
            timed_out: false,
            outputs: BTreeMap::new(),
            warnings: Vec::new(),
        }
    }

    #[test]
    fn identical_behaviour_agrees() {
        let a = behaviour("qemu", "hello\nworld\n", 0);
        let b = behaviour("rtl", "firesim: banner\nhello\nworld\n", 0);
        // Banner lines are canonicalized away: only payload behaviour counts.
        assert_eq!(compare_behaviour(&a, &b), None);
    }

    #[test]
    fn serial_divergence_reports_line_and_context() {
        let a = behaviour("qemu", "one\ntwo\nthree\nfour\nfive\n", 0);
        let b = behaviour("spike", "one\ntwo\nthree\nfour\nFIVE\n", 0);
        match compare_behaviour(&a, &b) {
            Some(Divergence::Serial {
                line,
                a,
                b,
                context,
            }) => {
                assert_eq!(line, 4);
                assert_eq!(a.as_deref(), Some("five"));
                assert_eq!(b.as_deref(), Some("FIVE"));
                assert_eq!(context, vec!["two", "three", "four"]);
            }
            other => panic!("expected serial divergence, got {other:?}"),
        }
    }

    #[test]
    fn truncated_log_diverges() {
        let a = behaviour("qemu", "one\ntwo\n", 0);
        let b = behaviour("spike", "one\n", 0);
        match compare_behaviour(&a, &b) {
            Some(Divergence::Serial { line, a, b, .. }) => {
                assert_eq!(line, 1);
                assert_eq!(a.as_deref(), Some("two"));
                assert_eq!(b, None);
            }
            other => panic!("expected serial divergence, got {other:?}"),
        }
    }

    #[test]
    fn exit_code_divergence() {
        let a = behaviour("qemu", "same\n", 0);
        let b = behaviour("spike", "same\n", 1);
        assert_eq!(
            compare_behaviour(&a, &b),
            Some(Divergence::ExitCode { a: 0, b: 1 })
        );
    }

    #[test]
    fn output_divergence() {
        let mut a = behaviour("qemu", "same\n", 0);
        let mut b = behaviour("spike", "same\n", 0);
        a.outputs
            .insert("/output/results.csv".to_owned(), b"x,1\n".to_vec());
        b.outputs
            .insert("/output/results.csv".to_owned(), b"x,2\n".to_vec());
        match compare_behaviour(&a, &b) {
            Some(Divergence::Output { path, detail }) => {
                assert_eq!(path, "/output/results.csv");
                assert!(detail.contains("offset 2"), "{detail}");
            }
            other => panic!("expected output divergence, got {other:?}"),
        }
        b.outputs.remove("/output/results.csv");
        match compare_behaviour(&a, &b) {
            Some(Divergence::Output { detail, .. }) => {
                assert!(detail.contains("qemu only"), "{detail}");
            }
            other => panic!("expected output divergence, got {other:?}"),
        }
    }

    #[test]
    fn injected_divergence_survives_canonicalization() {
        let clean = behaviour("qemu", "qemu: banner\npayload done\n", 0);
        let mut injected = clean.clone();
        inject_single_byte_divergence(&mut injected);
        assert_ne!(clean.canonical, injected.canonical);
        assert!(compare_behaviour(&clean, &injected).is_some());
    }

    #[test]
    fn divergence_display_is_readable() {
        let d = Divergence::Serial {
            line: 7,
            a: Some("lhs".to_owned()),
            b: None,
            context: vec!["ctx".to_owned()],
        };
        let text = d.to_string();
        assert!(text.contains("line 7"));
        assert!(text.contains("ctx"));
        assert!(text.contains("<log ends>"));
        assert!(Divergence::ExitCode { a: 0, b: 124 }
            .to_string()
            .contains("0 vs 124"));
    }
}
