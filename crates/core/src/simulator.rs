//! The unified simulator backend registry.
//!
//! §III-C/E's portability claim — "the exact same artifacts are run on
//! both simulators" — deserves one abstraction, not dispatch scattered
//! across `launch`, `build` (guest-init), `install`, and `test`. Every
//! backend implements [`Simulator`]: a registry name and one `run` entry
//! point taking the same loaded artifacts and optional boot snapshot
//! regardless of backend.
//!
//! The trait is implemented directly on the simulators themselves: the
//! functional [`FunctionalSim`] (registered as `qemu` and `spike`) and the
//! cycle-exact [`FireSim`] (registered as `rtl`). There is no wrapper
//! layer; [`simulator_for`] builds either from a job spec.
//!
//! The registry mirrors [`crate::connector`]: [`simulator_for`] resolves
//! a name (with aliases) to a boxed backend, [`simulator_names`] lists
//! the canonical names for CLI diagnostics. Names, aliases and banner
//! prefixes come from one table, so output canonicalization never falls
//! out of sync with the backend list. `launch --sim <backend>`
//! routes through here, and [`crate::cosim`] runs two backends in
//! lockstep over identical artifacts to diff their behaviour.

use marshal_config::WorkloadSpec;
use marshal_depgraph::{Fingerprint, Hasher128};
use marshal_sim_functional::{
    BootSnapshot, FunctionalSim, LaunchMode, LoadedJob, SimConfig, SimKind, SimResult,
};
use marshal_sim_rtl::{FireSim, HardwareConfig, PerfReport, RemoteMemConfig};

use crate::error::MarshalError;

/// The outcome of one backend run: the simulation result plus, for timed
/// backends, the performance report.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Serial log, final image, exit code, instruction count.
    pub result: SimResult,
    /// The cycle-exact performance report (`None` on functional backends,
    /// which have no timing model).
    pub report: Option<PerfReport>,
}

/// One simulator backend: anything that can run a built workload's
/// unmodified artifacts.
pub trait Simulator: Send + Sync {
    /// The backend's registry name (`qemu`, `spike`, `rtl`).
    fn name(&self) -> &'static str;

    /// Runs loaded artifacts. Linux jobs boot the full system: with
    /// `resume` given (and [`LaunchMode::Run`]) the boot phase is skipped
    /// by restoring the snapshot, and an eligible cold boot returns a
    /// snapshot of the post-init state for later reuse. Bare jobs execute
    /// the binary directly, ignore `resume` and return `None`.
    ///
    /// # Errors
    ///
    /// Simulation errors ([`MarshalError::Sim`]).
    fn run(
        &self,
        job: &LoadedJob,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
    ) -> Result<(SimRun, Option<BootSnapshot>), MarshalError>;

    /// A stable fingerprint of every configuration knob that can change
    /// what a boot produces on this backend (binary, features, extra
    /// arguments, instruction budget, hardware configuration). Part of the
    /// boot-checkpoint key: the same artifacts booted under a different
    /// configuration must never share a snapshot. Over-keying is safe (at
    /// worst a redundant cold boot); under-keying is not.
    fn config_fingerprint(&self) -> Fingerprint;
}

/// Folds the common [`SimConfig`] knobs into a backend fingerprint.
fn hash_sim_config(h: &mut Hasher128, cfg: &SimConfig) {
    h.update_field(cfg.kind.name().as_bytes());
    h.update_u64(cfg.max_instructions);
    h.update_u64(cfg.features.len() as u64);
    for f in &cfg.features {
        h.update_field(f.as_bytes());
    }
    h.update_u64(cfg.extra_args.len() as u64);
    for a in &cfg.extra_args {
        h.update_field(a.as_bytes());
    }
}

/// Construction options shared by every backend.
#[derive(Debug, Clone, Default)]
pub struct BackendOptions {
    /// Guest watchdog budget override (`--timeout-insts`).
    pub timeout_insts: Option<u64>,
    /// Hardware configuration for timed backends (`--hw`). `None` picks a
    /// default suited to the workload's features (see [`simulator_for`]).
    pub hw: Option<HardwareConfig>,
}

/// The functional backends: `qemu` (the historical `launch` default) and
/// `spike`, including custom golden-model binaries (`pfa-spike`).
impl Simulator for FunctionalSim {
    fn name(&self) -> &'static str {
        match self.config().kind {
            SimKind::Qemu => "qemu",
            _ => "spike",
        }
    }

    fn run(
        &self,
        job: &LoadedJob,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
    ) -> Result<(SimRun, Option<BootSnapshot>), MarshalError> {
        let (result, captured) = FunctionalSim::run(self, job, mode, resume)?;
        let run = SimRun {
            result,
            report: None,
        };
        Ok((run, captured))
    }

    fn config_fingerprint(&self) -> Fingerprint {
        let mut h = Hasher128::new();
        h.update_field(Simulator::name(self).as_bytes());
        h.update_field(self.binary().as_bytes());
        hash_sim_config(&mut h, self.config());
        h.finish()
    }
}

/// The cycle-exact RTL backend (FireSim-like).
impl Simulator for FireSim {
    fn name(&self) -> &'static str {
        "rtl"
    }

    fn run(
        &self,
        job: &LoadedJob,
        mode: LaunchMode,
        resume: Option<&BootSnapshot>,
    ) -> Result<(SimRun, Option<BootSnapshot>), MarshalError> {
        let (result, report, captured) = FireSim::run(self, job, mode, resume)?;
        let run = SimRun {
            result,
            report: Some(report),
        };
        Ok((run, captured))
    }

    fn config_fingerprint(&self) -> Fingerprint {
        let mut h = Hasher128::new();
        h.update_field(b"rtl");
        // The hardware name covers core/bpred/cache/remote choices; the
        // derived SimConfig covers the budget and `+config=` argument.
        h.update_field(self.hardware().name.as_bytes());
        hash_sim_config(&mut h, &self.sim_config());
        h.finish()
    }
}

/// The backend registry, in registry order: each backend's canonical
/// name, the aliases `--sim` also accepts, and the prefix of the banner
/// lines it writes to the serial log ("qemu-system-riscv64: ...",
/// "spike: ...", "firesim: ...").
const BACKENDS: [(&str, &[&str], &str); 3] = [
    ("qemu", &["functional"], "qemu"),
    ("spike", &[], "spike"),
    ("rtl", &["firesim", "cycle-exact"], "firesim"),
];

/// All registered backend names, in registry order.
pub fn simulator_names() -> Vec<&'static str> {
    BACKENDS.iter().map(|b| b.0).collect()
}

/// Resolves a user-supplied backend name (with aliases) to its canonical
/// registry name.
pub fn resolve_backend(name: &str) -> Option<&'static str> {
    BACKENDS
        .iter()
        .find(|(canonical, aliases, _)| *canonical == name || aliases.contains(&name))
        .map(|b| b.0)
}

/// The backend a workload runs on when `--sim` is not given: the spec's
/// custom Spike when one is set (the paper's `spike` option), QEMU
/// otherwise — the historical `launch` behaviour, now as a registry
/// default instead of hardcoded dispatch.
pub fn default_backend(spec: &WorkloadSpec) -> &'static str {
    if spec.spike.is_some() {
        "spike"
    } else {
        "qemu"
    }
}

/// Builds the named backend configured for a job spec: the functional
/// backends take the spec's custom binary (`qemu` / `spike`), extra
/// arguments (`qemu-args` / `spike-args`) and watchdog budget. The RTL
/// backend runs `opts.hw`, or without an explicit `--hw` choice Rocket —
/// with the PFA remote-memory model attached when the workload's Spike
/// backend would carry the `pfa` feature tag, so the same workload
/// exercises the same subsystem on every backend.
///
/// # Errors
///
/// [`MarshalError::Other`] naming the registered backends when `name` is
/// unknown.
pub fn simulator_for(
    name: &str,
    spec: &WorkloadSpec,
    opts: &BackendOptions,
) -> Result<Box<dyn Simulator>, MarshalError> {
    let functional = |kind: SimKind| {
        let (binary, args) = match kind {
            SimKind::Qemu => (&spec.qemu, &spec.qemu_args),
            _ => (&spec.spike, &spec.spike_args),
        };
        let sim = match binary {
            Some(binary) => FunctionalSim::with_binary(kind, binary),
            None => FunctionalSim::new(kind),
        }
        .with_args(args);
        match opts.timeout_insts {
            Some(n) => sim.with_budget(n),
            None => sim,
        }
    };
    match resolve_backend(name) {
        Some("qemu") => Ok(Box::new(functional(SimKind::Qemu))),
        Some("spike") => Ok(Box::new(functional(SimKind::Spike))),
        Some("rtl") => {
            let hw = opts.hw.clone().unwrap_or_else(|| {
                let rocket = HardwareConfig::rocket();
                if functional(SimKind::Spike).config().has_feature("pfa") {
                    rocket.with_remote(RemoteMemConfig::Pfa(
                        marshal_sim_rtl::pfa::RemoteTimings::default(),
                    ))
                } else {
                    rocket
                }
            });
            let sim = FireSim::new(hw);
            Ok(Box::new(match opts.timeout_insts {
                Some(n) => sim.with_budget(n),
                None => sim,
            }))
        }
        _ => Err(MarshalError::Other(format!(
            "unknown simulator backend `{name}` (try {})",
            simulator_names().join(", ")
        ))),
    }
}

/// Every registered backend's banner prefix, in registry order — the
/// canonicalization set [`crate::test::clean_output`] strips, so references
/// written against one backend match every other. Adding a backend to the
/// registry extends this; no second prefix list can go stale.
pub fn all_log_prefixes() -> Vec<&'static str> {
    BACKENDS.iter().map(|b| b.2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::default()
    }

    #[test]
    fn registry_lookup() {
        let s = spec();
        let opts = BackendOptions::default();
        for name in simulator_names() {
            assert_eq!(simulator_for(name, &s, &opts).unwrap().name(), name);
            assert_eq!(resolve_backend(name), Some(name));
        }
        assert!(simulator_for("gem5", &s, &opts).is_err());
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(resolve_backend("functional"), Some("qemu"));
        assert_eq!(resolve_backend("firesim"), Some("rtl"));
        assert_eq!(resolve_backend("cycle-exact"), Some("rtl"));
        assert_eq!(resolve_backend("verilator"), None);
    }

    #[test]
    fn default_backend_follows_spike_option() {
        let mut s = spec();
        assert_eq!(default_backend(&s), "qemu");
        s.spike = Some("pfa-spike".to_owned());
        assert_eq!(default_backend(&s), "spike");
    }

    #[test]
    fn spike_backend_carries_custom_binary_features() {
        let mut s = spec();
        s.spike = Some("pfa-spike".to_owned());
        let backend = simulator_for("spike", &s, &BackendOptions::default()).unwrap();
        let pfa = FunctionalSim::with_binary(SimKind::Spike, "pfa-spike");
        assert!(pfa.config().has_feature("pfa"));
        assert_eq!(backend.config_fingerprint(), pfa.config_fingerprint());
        // The stock binary carries none.
        let stock = simulator_for("spike", &spec(), &BackendOptions::default()).unwrap();
        let plain = FunctionalSim::new(SimKind::Spike);
        assert!(plain.config().features.is_empty());
        assert_eq!(stock.config_fingerprint(), plain.config_fingerprint());
        assert_ne!(stock.config_fingerprint(), pfa.config_fingerprint());
    }

    #[test]
    fn rtl_backend_inherits_pfa_from_functional_features() {
        let mut s = spec();
        s.spike = Some("pfa-spike".to_owned());
        let rtl = simulator_for("rtl", &s, &BackendOptions::default()).unwrap();
        let rocket_pfa = HardwareConfig::rocket().with_remote(RemoteMemConfig::Pfa(
            marshal_sim_rtl::pfa::RemoteTimings::default(),
        ));
        // The same backend an explicit rocket+PFA `--hw` builds.
        let explicit = BackendOptions {
            hw: Some(rocket_pfa.clone()),
            ..Default::default()
        };
        let explicit = simulator_for("rtl", &spec(), &explicit).unwrap();
        assert_eq!(rtl.config_fingerprint(), explicit.config_fingerprint());
        assert_eq!(
            rtl.config_fingerprint(),
            FireSim::new(rocket_pfa).config_fingerprint()
        );
        // Without a `pfa-spike` spec, rtl runs plain Rocket.
        let plain = simulator_for("rtl", &spec(), &BackendOptions::default()).unwrap();
        assert_ne!(plain.config_fingerprint(), rtl.config_fingerprint());
        // An explicit --hw wins over the feature-derived default.
        let opts = BackendOptions {
            hw: Some(HardwareConfig::boom_tage()),
            ..Default::default()
        };
        let rtl = simulator_for("rtl", &s, &opts).unwrap();
        assert_eq!(
            rtl.config_fingerprint(),
            FireSim::new(HardwareConfig::boom_tage()).config_fingerprint()
        );
    }

    #[test]
    fn config_fingerprints_distinguish_backends_and_knobs() {
        let s = spec();
        let opts = BackendOptions::default();
        let fps: Vec<Fingerprint> = simulator_names()
            .iter()
            .map(|n| simulator_for(n, &s, &opts).unwrap().config_fingerprint())
            .collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "backends must not share a checkpoint key");
            }
        }
        // Stable across construction.
        let again = simulator_for("qemu", &s, &opts)
            .unwrap()
            .config_fingerprint();
        assert_eq!(fps[0], again);
        // Budget changes the key.
        let budget = BackendOptions {
            timeout_insts: Some(12_345),
            ..Default::default()
        };
        assert_ne!(
            fps[0],
            simulator_for("qemu", &s, &budget)
                .unwrap()
                .config_fingerprint()
        );
        // A custom golden-model binary changes the key.
        let mut pfa = spec();
        pfa.spike = Some("pfa-spike".to_owned());
        assert_ne!(
            fps[1],
            simulator_for("spike", &pfa, &opts)
                .unwrap()
                .config_fingerprint()
        );
        // Hardware configuration changes the RTL key.
        let hw = BackendOptions {
            hw: Some(HardwareConfig::boom_tage()),
            ..Default::default()
        };
        assert_ne!(
            fps[2],
            simulator_for("rtl", &s, &hw).unwrap().config_fingerprint()
        );
    }

    #[test]
    fn prefixes_cover_every_backend() {
        let prefixes = all_log_prefixes();
        for name in ["qemu", "spike", "firesim"] {
            assert!(prefixes.contains(&name), "{name} missing from {prefixes:?}");
        }
    }
}
