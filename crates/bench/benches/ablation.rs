//! Ablations of the design choices DESIGN.md calls out for the
//! cycle-exact timing model: TAGE table count / history depth, data-cache
//! capacity, and mispredict penalty. These demonstrate that the Fig. 5 /
//! Fig. 6 shapes come from the modelled mechanisms, not from tuning.

use marshal_isa::abi;
use marshal_isa::asm::assemble;
use marshal_sim_functional::{LaunchMode, LoadedJob};
use marshal_sim_rtl::{BpredConfig, CacheConfig, FireSim, HardwareConfig};
use marshal_workloads::intspeed;

fn bin_for(name: &str) -> LoadedJob {
    let source = intspeed::benchmarks()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap()
        .1;
    LoadedJob::Bare {
        bin: assemble(&source, abi::USER_BASE).unwrap().to_bytes(),
    }
}

fn run(hw: HardwareConfig, job: &LoadedJob) -> marshal_sim_rtl::PerfReport {
    FireSim::new(hw).run(job, LaunchMode::Run, None).unwrap().1
}

fn main() {
    // --- Ablation 1: TAGE depth on a long-history benchmark --------------
    let exchange = bin_for("648.exchange2_s");
    println!("== ablation: TAGE tagged-table count (648.exchange2_s) ==");
    println!("{:>8} {:>12} {:>12}", "tables", "mispredicts", "cycles");
    for tables in [1u32, 2, 3, 4, 6] {
        let hw = HardwareConfig::boom_gshare().with_bpred(BpredConfig::Tage {
            tables,
            table_bits: 10,
            min_history: 4,
            max_history: 64,
        });
        let report = run(hw, &exchange);
        println!(
            "{tables:>8} {:>12} {:>12}",
            report.counters.mispredicts, report.counters.cycles
        );
    }

    // --- Ablation 2: TAGE maximum history on the same benchmark -----------
    println!("== ablation: TAGE max history length ==");
    println!("{:>8} {:>12} {:>12}", "history", "mispredicts", "cycles");
    for max_history in [8u32, 16, 32, 64, 127] {
        let hw = HardwareConfig::boom_gshare().with_bpred(BpredConfig::Tage {
            tables: 4,
            table_bits: 10,
            min_history: 4,
            max_history,
        });
        let report = run(hw, &exchange);
        println!(
            "{max_history:>8} {:>12} {:>12}",
            report.counters.mispredicts, report.counters.cycles
        );
    }

    // --- Ablation 3: D-cache capacity on the cache-hostile benchmark ------
    let mcf = bin_for("605.mcf_s");
    println!("== ablation: D-cache capacity (605.mcf_s, 64 KiB working set) ==");
    println!("{:>10} {:>12} {:>12}", "capacity", "miss-rate", "cycles");
    for (label, sets) in [
        ("4KiB", 16u32),
        ("16KiB", 64),
        ("64KiB", 256),
        ("256KiB", 1024),
    ] {
        let mut hw = HardwareConfig::rocket();
        hw.dcache = CacheConfig {
            sets,
            ways: 4,
            line_bytes: 64,
            hit_latency: 1,
        };
        let report = run(hw, &mcf);
        println!(
            "{label:>10} {:>11.1}% {:>12}",
            report.dcache.miss_rate() * 100.0,
            report.counters.cycles
        );
    }

    // --- Ablation 4: mispredict penalty on an unpredictable benchmark -----
    let leela = bin_for("641.leela_s");
    println!("== ablation: mispredict penalty (641.leela_s) ==");
    println!("{:>9} {:>12}", "penalty", "cycles");
    for penalty in [3u64, 6, 12, 24] {
        let mut hw = HardwareConfig::boom_gshare();
        hw.core.mispredict_penalty = penalty;
        let report = run(hw, &leela);
        println!("{penalty:>9} {:>12}", report.counters.cycles);
    }

    // --- Ablation 4b: L2 presence on the cache-hostile benchmark ----------
    println!("== ablation: unified L2 (605.mcf_s) ==");
    for (label, l2) in [
        ("no L2", None),
        ("256KiB L2", Some(marshal_sim_rtl::CacheConfig::l2_256k())),
    ] {
        let mut hw = HardwareConfig::rocket();
        hw.l2 = l2;
        let report = run(hw, &mcf);
        match report.l2 {
            Some(s) => println!(
                "  {label:>10}: {:>9} cycles (L2 miss-rate {:.1}%)",
                report.counters.cycles,
                s.miss_rate() * 100.0
            ),
            None => println!("  {label:>10}: {:>9} cycles", report.counters.cycles),
        }
    }

    // --- Ablation 5: network parameters behind the PFA's RDMA fetch -------
    use marshal_sim_rtl::NicModel;
    println!("== ablation: RDMA fetch cost vs link speed (4 KiB pages) ==");
    println!("{:>16} {:>12}", "link (B/cycle)", "rdma cycles");
    for bpc in [1u64, 3, 6, 12] {
        let nic = NicModel {
            link_bytes_per_cycle: bpc,
            ..NicModel::default()
        };
        println!("{bpc:>16} {:>12}", nic.rdma_read(4096));
    }
    println!("== ablation: RDMA fetch cost vs page size (25GbE-class link) ==");
    println!("{:>10} {:>12}", "page", "rdma cycles");
    for page in [1024u64, 4096, 16384, 65536] {
        println!("{page:>10} {:>12}", NicModel::default().rdma_read(page));
    }
}
