//! Simulator configuration, inputs, and results.

use marshal_firmware::BootBinary;
use marshal_image::FsImage;

/// Which functional simulator front-end is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// QEMU-like full-system functional simulator (the `launch` default).
    Qemu,
    /// Spike-like ISA simulator (selected by the `spike` workload option).
    Spike,
    /// The FireSim-like cycle-exact simulator (set by `marshal-sim-rtl`
    /// when it reuses this crate's boot model).
    CycleExact,
}

impl SimKind {
    /// Display name used in serial banners.
    pub fn name(self) -> &'static str {
        match self {
            SimKind::Qemu => "qemu-system-riscv64",
            SimKind::Spike => "spike",
            SimKind::CycleExact => "firesim",
        }
    }

    /// Nanoseconds of modelled guest time per instruction, used only for
    /// dmesg timestamps. Each simulator runs at a different apparent speed —
    /// exactly why FireMarshal's `test` command strips timestamps before
    /// comparing outputs.
    pub fn ns_per_instruction(self) -> u64 {
        match self {
            SimKind::Qemu => 2,
            SimKind::Spike => 5,
            SimKind::CycleExact => 1,
        }
    }
}

/// How a simulation is being used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchMode {
    /// Normal launch: boot and execute the workload payload.
    Run,
    /// Build-time boot to execute a pending `guest-init` script exactly
    /// once (§III-B step 5b) — the payload is *not* run.
    GuestInit,
}

/// Functional simulator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Which front-end this is.
    pub kind: SimKind,
    /// Guest instruction budget before the run is declared hung.
    pub max_instructions: u64,
    /// Feature tags of a custom simulator binary (e.g. `pfa` from the
    /// PFA case study's `pfa-spike`).
    pub features: Vec<String>,
    /// Extra arguments (`qemu-args` / `spike-args`), logged in the banner.
    pub extra_args: Vec<String>,
}

impl SimConfig {
    /// Default configuration for a front-end.
    pub fn new(kind: SimKind) -> SimConfig {
        SimConfig {
            kind,
            max_instructions: 500_000_000,
            features: Vec::new(),
            extra_args: Vec::new(),
        }
    }

    /// Whether a feature tag is present.
    pub fn has_feature(&self, name: &str) -> bool {
        self.features.iter().any(|f| f == name)
    }
}

/// A built job's artifacts, loaded into memory: what every backend runs.
///
/// The `Linux` variant dominates in size and in frequency — boxing it would
/// add an allocation per job for no saving in the common case.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LoadedJob {
    /// Linux: boot binary + optional disk.
    Linux {
        /// The boot binary.
        boot: BootBinary,
        /// The disk image (None for diskless builds).
        disk: Option<FsImage>,
    },
    /// Bare-metal binary.
    Bare {
        /// MEXE bytes.
        bin: Vec<u8>,
    },
}

/// Exit code reported when the guest watchdog terminates a hung payload
/// (mirrors the `timeout(1)` convention).
pub const WATCHDOG_EXIT_CODE: i64 = 124;

/// The outcome of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Full serial console log.
    pub serial: String,
    /// Final state of the root filesystem (absent for bare-metal runs).
    pub image: Option<FsImage>,
    /// Exit code of the workload payload (0 when no payload ran).
    pub exit_code: i64,
    /// Guest instructions executed by user programs.
    pub instructions: u64,
    /// Whether the watchdog terminated a hung payload (instruction budget
    /// exhausted). The serial log and image hold whatever the guest
    /// produced before termination.
    pub timed_out: bool,
}

impl SimResult {
    /// The serial log split into lines.
    pub fn serial_lines(&self) -> Vec<&str> {
        self.serial.lines().collect()
    }

    /// Whether the payload exited successfully (a watchdog-terminated run
    /// is never a success, whatever its exit code).
    pub fn success(&self) -> bool {
        self.exit_code == 0 && !self.timed_out
    }
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A guest program trapped (fault details included).
    Trap(String),
    /// The instruction budget was exhausted (hung workload).
    Budget {
        /// The configured budget.
        limit: u64,
    },
    /// The workload artifact was malformed.
    BadArtifact(String),
    /// A guest or init script failed.
    Script(String),
    /// A filesystem image operation failed.
    Image(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Trap(m) => write!(f, "guest trap: {m}"),
            SimError::Budget { limit } => {
                write!(f, "instruction budget exhausted ({limit} instructions)")
            }
            SimError::BadArtifact(m) => write!(f, "bad artifact: {m}"),
            SimError::Script(m) => write!(f, "guest script error: {m}"),
            SimError::Image(m) => write!(f, "image error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<marshal_image::FsError> for SimError {
    fn from(e: marshal_image::FsError) -> SimError {
        SimError::Image(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_kinds_differ_in_apparent_speed() {
        assert_ne!(
            SimKind::Qemu.ns_per_instruction(),
            SimKind::Spike.ns_per_instruction()
        );
    }

    #[test]
    fn config_features() {
        let mut c = SimConfig::new(SimKind::Spike);
        assert!(!c.has_feature("pfa"));
        c.features.push("pfa".to_owned());
        assert!(c.has_feature("pfa"));
    }

    #[test]
    fn result_helpers() {
        let r = SimResult {
            serial: "a\nb\n".to_owned(),
            image: None,
            exit_code: 0,
            instructions: 10,
            timed_out: false,
        };
        assert_eq!(r.serial_lines(), vec!["a", "b"]);
        assert!(r.success());
    }

    #[test]
    fn timed_out_runs_are_not_successful() {
        let r = SimResult {
            serial: String::new(),
            image: None,
            exit_code: 0,
            instructions: 10,
            timed_out: true,
        };
        assert!(!r.success());
    }
}
