//! The functional simulator front-end: QEMU-like and Spike-like, keyed by
//! [`SimKind`].
//!
//! Both kinds run the same boot flow on the same interpreter; they differ
//! only in banner, apparent speed and the custom binary a workload can
//! point them at (the `qemu` / `spike` options). The PFA case study used a
//! modified Spike carrying a golden model of the accelerator: custom
//! binaries are identified by name and contribute feature tags (e.g.
//! `pfa-spike` → feature `pfa`).

use crate::boot::run_job;
use crate::checkpoint::BootSnapshot;
use crate::machine::{LaunchMode, LoadedJob, SimConfig, SimError, SimKind, SimResult};

/// A full-system functional simulator (QEMU or Spike).
///
/// ```rust
/// use marshal_sim_functional::{FunctionalSim, SimKind};
/// let spike = FunctionalSim::with_binary(SimKind::Spike, "pfa-spike");
/// assert!(spike.config().has_feature("pfa"));
/// assert_eq!(FunctionalSim::new(SimKind::Qemu).binary(), "qemu-system-riscv64");
/// ```
#[derive(Debug, Clone)]
pub struct FunctionalSim {
    config: SimConfig,
    binary: String,
}

impl FunctionalSim {
    /// The stock simulator of `kind`.
    pub fn new(kind: SimKind) -> FunctionalSim {
        FunctionalSim::with_binary(kind, kind.name())
    }

    /// A custom simulator build (the workload's `qemu` / `spike` option).
    /// Name segments other than those of the stock binary name
    /// (`qemu-system-riscv64`, `spike`) become feature tags:
    /// `pfa-spike` carries the PFA golden model.
    pub fn with_binary(kind: SimKind, name: &str) -> FunctionalSim {
        let stock: Vec<&str> = kind.name().split('-').collect();
        let mut config = SimConfig::new(kind);
        for part in name.split(['-', '_']) {
            if !part.is_empty() && !stock.contains(&part) {
                config.features.push(part.to_owned());
            }
        }
        if !config.features.is_empty() {
            config.extra_args.push(format!("(custom binary: {name})"));
        }
        FunctionalSim {
            config,
            binary: name.to_owned(),
        }
    }

    /// Adds extra arguments (the workload's `qemu-args` / `spike-args`).
    pub fn with_args(mut self, args: &[String]) -> FunctionalSim {
        self.config.extra_args.extend(args.iter().cloned());
        self
    }

    /// Overrides the instruction budget.
    pub fn with_budget(mut self, max_instructions: u64) -> FunctionalSim {
        self.config.max_instructions = max_instructions;
        self
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The binary name this instance models.
    pub fn binary(&self) -> &str {
        &self.binary
    }

    /// Runs loaded artifacts with [`run_job`] and no timing model.
    ///
    /// # Errors
    ///
    /// See [`run_job`].
    pub fn run(
        &self,
        job: &LoadedJob,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
    ) -> Result<(SimResult, Option<BootSnapshot>), SimError> {
        let banner = format!(
            "{}: starting bare-metal simulation",
            self.config.kind.name()
        );
        run_job(&self.config, job, mode, resume, &banner, &mut ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_binaries_carry_feature_tags() {
        let cases: [(SimKind, &str, &[&str]); 5] = [
            (SimKind::Qemu, "qemu-system-riscv64", &[]),
            (SimKind::Qemu, "pfa-qemu-system-riscv64", &["pfa"]),
            (SimKind::Spike, "spike", &[]),
            (SimKind::Spike, "pfa-spike", &["pfa"]),
            (SimKind::Spike, "pfa-nic-spike", &["pfa", "nic"]),
        ];
        for (kind, name, features) in cases {
            let sim = FunctionalSim::with_binary(kind, name);
            assert_eq!(sim.binary(), name);
            assert_eq!(sim.config().features, features, "{name}");
            let args: Vec<String> = if features.is_empty() {
                Vec::new()
            } else {
                vec![format!("(custom binary: {name})")]
            };
            assert_eq!(sim.config().extra_args, args, "{name}");
        }
        // The stock constructor is the stock binary name.
        for kind in [SimKind::Qemu, SimKind::Spike] {
            assert_eq!(
                FunctionalSim::new(kind).config(),
                FunctionalSim::with_binary(kind, kind.name()).config()
            );
        }
        let sim = FunctionalSim::with_binary(SimKind::Spike, "pfa-spike")
            .with_args(&["-m".to_owned(), "16G".to_owned()])
            .with_budget(1234);
        assert_eq!(
            sim.config().extra_args,
            ["(custom binary: pfa-spike)", "-m", "16G"]
        );
        assert_eq!(sim.config().max_instructions, 1234);
    }
}
