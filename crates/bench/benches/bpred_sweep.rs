//! E6 (Fig. 6): the branch-predictor comparison — the same benchmark
//! binaries timed under Gshare and TAGE (plus static baselines for
//! context), as in the paper's BOOM v2 vs. TAGE study.

use marshal_bench::{criterion_group, criterion_main, Criterion};
use marshal_isa::abi;
use marshal_isa::asm::assemble;
use marshal_sim_functional::{LaunchMode, LoadedJob};
use marshal_sim_rtl::{BpredConfig, FireSim, HardwareConfig};
use marshal_workloads::intspeed;

fn bench_bpred(c: &mut Criterion) {
    // Print the Fig. 6 underlying data: cycles per predictor for a
    // predictor-sensitive subset of the suite.
    let subset = [
        "600.perlbench_s",
        "620.omnetpp_s",
        "641.leela_s",
        "648.exchange2_s",
    ];
    let predictors = [
        ("never", BpredConfig::NeverTaken),
        ("bimodal", BpredConfig::Bimodal { table_bits: 12 }),
        ("gshare", BpredConfig::default_gshare()),
        ("tage", BpredConfig::default_tage()),
    ];
    println!("== Fig. 6 data: cycles by predictor (same binaries) ==");
    print!("{:>18}", "benchmark");
    for (name, _) in &predictors {
        print!(" {name:>10}");
    }
    println!(" {:>12}", "tage/gshare");
    let sources = intspeed::benchmarks();
    for bench in subset {
        let source = &sources.iter().find(|(n, _)| *n == bench).unwrap().1;
        let job = LoadedJob::Bare {
            bin: assemble(source, abi::USER_BASE).unwrap().to_bytes(),
        };
        let mut cycles = Vec::new();
        for (_, bp) in &predictors {
            let hw = HardwareConfig::boom_gshare().with_bpred(bp.clone());
            let (_, report, _) = FireSim::new(hw).run(&job, LaunchMode::Run, None).unwrap();
            cycles.push(report.counters.cycles);
        }
        print!("{bench:>18}");
        for cyc in &cycles {
            print!(" {cyc:>10}");
        }
        println!(" {:>12.4}", cycles[3] as f64 / cycles[2] as f64);
    }

    // Criterion: simulation throughput per predictor on one benchmark.
    let source = &sources.iter().find(|(n, _)| *n == "641.leela_s").unwrap().1;
    let job = LoadedJob::Bare {
        bin: assemble(source, abi::USER_BASE).unwrap().to_bytes(),
    };
    let mut group = c.benchmark_group("bpred_sweep");
    group.sample_size(10);
    for (name, bp) in predictors {
        let hw = HardwareConfig::boom_gshare().with_bpred(bp);
        group.bench_function(format!("leela_{name}"), |b| {
            b.iter(|| {
                let (_, report, _) = FireSim::new(hw.clone())
                    .run(&job, LaunchMode::Run, None)
                    .unwrap();
                report.counters.cycles
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bpred);
criterion_main!(benches);
