//! Golden pins on the cycle-exact paper numbers (§IV-A Fig. 5, §IV-B
//! Fig. 6): the exact per-node counts of the ten intspeed nodes on
//! boom-gshare and boom-tage, and the latency microbenchmark's cycles and
//! faults under software paging and the PFA.
//!
//! The pinned values live in `tests/golden/fig6_counts.txt`. A change that
//! moves modelled time must update that file and EXPERIMENTS.md together
//! and say why; a speed-up of the simulator itself must leave it alone.

mod common;

use marshal_core::install::{manifest_for, run_installed, run_job_cycle_exact};
use marshal_core::BuildOptions;
use marshal_sim_rtl::pfa::RemoteTimings;
use marshal_sim_rtl::{HardwareConfig, RemoteMemConfig};

const GOLDEN: &str = include_str!("golden/fig6_counts.txt");

/// Runs Fig. 6 and Fig. 5 and renders one golden line per node.
fn measure() -> Vec<String> {
    let root = common::tmpdir("golden-counts");
    let mut builder = common::builder_in(&root);
    let opts = BuildOptions::default();
    let intspeed = builder.build("intspeed.json", &opts).unwrap();
    let latency = builder.build("latency-microbenchmark.json", &opts).unwrap();

    let mut lines = Vec::new();
    let manifest = manifest_for(&intspeed);
    for hw in [HardwareConfig::boom_gshare(), HardwareConfig::boom_tage()] {
        let config = hw.name.clone();
        for n in run_installed(&manifest, hw, false).unwrap() {
            let r = &n.report;
            lines.push(format!(
                "fig6 {config} {} cycles={} mispredicts={} icache_misses={} dcache_misses={} \
                 l2_misses={} instructions={}",
                n.name,
                r.counters.cycles,
                r.counters.mispredicts,
                r.icache.misses,
                r.dcache.misses,
                r.l2.map_or(0, |l2| l2.misses),
                r.counters.instructions,
            ));
        }
    }

    let timings = RemoteTimings::default();
    for remote in [
        RemoteMemConfig::SoftwarePaging(timings),
        RemoteMemConfig::Pfa(timings),
    ] {
        let hw = HardwareConfig::rocket().with_remote(remote);
        let config = hw.name.clone();
        let n = run_job_cycle_exact(&latency.jobs[0], hw).unwrap();
        lines.push(format!(
            "fig5 {config} cycles={} faults={}",
            n.report.counters.cycles,
            n.report.pfa.unwrap_or_default().faults,
        ));
    }
    std::fs::remove_dir_all(root).unwrap();
    lines
}

/// Sums one `field=value` column over the Fig. 6 lines of `config`.
fn total(lines: &[String], config: &str, field: &str) -> u64 {
    let prefix = format!("fig6 {config} ");
    let key = format!("{field}=");
    lines
        .iter()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| {
            l.split(' ')
                .find_map(|kv| kv.strip_prefix(key.as_str()))
                .unwrap()
                .parse::<u64>()
                .unwrap()
        })
        .sum()
}

#[test]
fn fig6_and_fig5_match_golden() {
    let measured = measure();
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    let diff: Vec<String> = measured
        .iter()
        .zip(&golden)
        .filter(|(m, g)| m != *g)
        .map(|(m, g)| format!("measured {m}\n  pinned {g}"))
        .collect();
    assert!(
        diff.is_empty(),
        "cycle-exact counts moved:\n{}",
        diff.join("\n")
    );
    assert_eq!(measured.len(), golden.len(), "every pinned line measured");

    // The aggregates quoted in EXPERIMENTS.md (E6).
    assert_eq!(total(&measured, "boom-gshare", "cycles"), 14_288_092);
    assert_eq!(total(&measured, "boom-tage", "cycles"), 13_876_168);
    assert_eq!(total(&measured, "boom-gshare", "mispredicts"), 126_678);
    assert_eq!(total(&measured, "boom-tage", "mispredicts"), 92_351);
    for config in ["boom-gshare", "boom-tage"] {
        assert_eq!(total(&measured, config, "instructions"), 11_195_724);
        assert_eq!(total(&measured, config, "icache_misses"), 72);
        assert_eq!(total(&measured, config, "dcache_misses"), 61_639);
        assert_eq!(total(&measured, config, "l2_misses"), 1_753);
    }
}
