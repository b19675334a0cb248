//! The Page Fault Accelerator case-study workloads (§IV-A, Listing 1).
//!
//! `pfa-base` carries the common setup (custom `pfa-linux` kernel tree, a
//! test-root overlay, the `pfa-spike` golden-model simulator);
//! `latency-microbenchmark` derives from it with two jobs: a Linux client
//! measuring per-fault latency and a bare-metal memory server.

use crate::runtime::compose_benchmark;

/// Listing 1 (upper): the base workload for PFA Linux unit tests.
pub const PFA_BASE_JSON: &str = r#"{
    "name": "pfa-base",
    "base": "br-base.json",
    "host-init": "cross-compile.ms",
    "linux": {
        "source": "pfa-linux",
        "config": "pfa-linux.kfrag"
    },
    "overlay": "pfa-test-root",
    "spike": "pfa-spike"
}
"#;

/// Listing 1 (lower): the latency microbenchmark with client + server jobs.
pub const LATENCY_JSON: &str = r#"{ "name" : "latency-microbenchmark",
  "base" : "pfa-base.json",
  "post-run-hook" : "extract_csv.ms",
  "outputs" : ["/output"],
  "testing" : { "refDir" : "refs" },
  "jobs" : [
    { "name" : "client",
      "linux" : { "config" : "pfa.kfrag" },
      "command" : "/bin/latency" },
    { "name" : "server",
      "base" : "bare-metal.json",
      "bin" : "serve.mexe" }
  ]
}
"#;

/// Kernel fragment enabling the paging features `pfa-base` needs.
pub const PFA_LINUX_KFRAG: &str = "CONFIG_SWAP=y\nCONFIG_FRONTSWAP=y\n";

/// Kernel fragment enabling the PFA driver — the paper's "one-line Linux
/// configuration fragment" that switched from emulation to the real driver.
pub const PFA_KFRAG: &str = "CONFIG_PFA=y\n";

/// The host-init cross-compile script.
pub const CROSS_COMPILE_MS: &str = r#"#!mscript
# cross-compile.ms — build the PFA unit-test programs.
print("pfa: cross-compiling unit tests")
assemble("src/latency.s", "pfa-test-root/bin/latency")
assemble("src/serve.s", "serve.mexe")
print("pfa: build complete")
"#;

/// The post-run hook turning client serial output into a CSV — the
/// `extract_csv.py` of Listing 1.
pub const EXTRACT_CSV_MS: &str = r#"#!mscript
# extract_csv.ms — pull per-step fault latencies out of the client log.
let rows = ["job,faults,avg_cycles,min_cycles,max_cycles"]
for job in args() {
    let log = read_file(job + "/uartlog")
    let faults = "0"
    let avg = "0"
    let mn = "0"
    let mx = "0"
    for line in lines(log) {
        if starts_with(line, "latency-ubench faults=") { faults = substr(line, 22, 20) }
        if starts_with(line, "avg-cycles=") { avg = substr(line, 11, 20) }
        if starts_with(line, "min-cycles=") { mn = substr(line, 11, 20) }
        if starts_with(line, "max-cycles=") { mx = substr(line, 11, 20) }
    }
    rows = push(rows, csv_row([job, faults, avg, mn, mx]))
}
write_file("latency.csv", join(rows, "\n") + "\n")
print("extract_csv: wrote latency.csv")
"#;

/// The latency microbenchmark client: maps remote memory and times the
/// first touch of every page with `rdcycle` (Fig. 5's measurement loop).
pub fn latency_source() -> String {
    compose_benchmark(
        "latency-ubench",
        r#"
        .data
__lat_faults: .asciiz "latency-ubench faults="
__lat_avg:    .asciiz "avg-cycles="
__lat_min:    .asciiz "min-cycles="
__lat_max:    .asciiz "max-cycles="
        .text
bench_main:
        addi    sp, sp, -16
        sd      ra, 8(sp)
        li      a0, 64             # pages of remote memory
        li      a7, 2002           # MMAP_REMOTE
        ecall
        mv      s2, a0             # window base
        li      s3, 64             # pages to touch
        li      s4, 0              # total cycles
        li      s5, -1             # min
        li      s6, 0              # max
        mv      s7, s2
lat_loop:
        rdcycle t0
        ld      t1, 0(s7)          # first touch: remote page fault
        rdcycle t2
        sub     t3, t2, t0
        add     s4, s4, t3
        bgeu    t3, s5, lat_no_min
        mv      s5, t3
lat_no_min:
        bleu    t3, s6, lat_no_max
        mv      s6, t3
lat_no_max:
        li      t4, 4096
        add     s7, s7, t4
        addi    s3, s3, -1
        bnez    s3, lat_loop
        la      a0, __lat_faults
        call    print_cstr
        li      a0, 64
        call    print_u64
        la      a0, __lat_avg
        call    print_cstr
        srli    a0, s4, 6          # /64
        call    print_u64
        la      a0, __lat_min
        call    print_cstr
        mv      a0, s5
        call    print_u64
        la      a0, __lat_max
        call    print_cstr
        mv      a0, s6
        call    print_u64
        li      a0, 64             # checksum: fault count
        ld      ra, 8(sp)
        addi    sp, sp, 16
        ret
"#,
    )
}

/// The bare-metal memory server (Listing 1's `serve` binary).
pub fn serve_source() -> String {
    compose_benchmark(
        "pfa-server",
        r#"
        .text
bench_main:
        # Model the server's registration + serve loop: it would sit in a
        # NIC polling loop; here it spins a bounded number of iterations.
        li      t0, 10000
serve_loop:
        addi    t0, t0, -1
        bnez    t0, serve_loop
        li      a0, 1              # checksum: ready marker
        ret
"#,
    )
}

/// Reference serial output for `test` (stable lines only).
pub const CLIENT_REF_UARTLOG: &str = "latency-ubench faults=64\nlatency-ubench checksum: 64\n";
/// Reference for the server job.
pub const SERVER_REF_UARTLOG: &str = "pfa-server checksum: 1\n";

/// Writes the PFA workload directory.
///
/// # Errors
///
/// I/O failures.
pub fn materialize(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir.join("src"))?;
    std::fs::create_dir_all(dir.join("pfa-test-root/bin"))?;
    std::fs::create_dir_all(dir.join("refs/latency-microbenchmark.client"))?;
    std::fs::create_dir_all(dir.join("refs/latency-microbenchmark.server"))?;
    std::fs::write(dir.join("pfa-base.json"), PFA_BASE_JSON)?;
    std::fs::write(dir.join("latency-microbenchmark.json"), LATENCY_JSON)?;
    std::fs::write(dir.join("pfa-linux.kfrag"), PFA_LINUX_KFRAG)?;
    std::fs::write(dir.join("pfa.kfrag"), PFA_KFRAG)?;
    std::fs::write(dir.join("cross-compile.ms"), CROSS_COMPILE_MS)?;
    std::fs::write(dir.join("extract_csv.ms"), EXTRACT_CSV_MS)?;
    std::fs::write(dir.join("src/latency.s"), latency_source())?;
    std::fs::write(dir.join("src/serve.s"), serve_source())?;
    std::fs::write(
        dir.join("refs/latency-microbenchmark.client/uartlog"),
        CLIENT_REF_UARTLOG,
    )?;
    std::fs::write(
        dir.join("refs/latency-microbenchmark.server/uartlog"),
        SERVER_REF_UARTLOG,
    )?;
    // A marker file in the overlay so the image visibly carries it.
    std::fs::write(
        dir.join("pfa-test-root/etc-pfa-note"),
        "pfa test root overlay\n",
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_bare;
    use marshal_isa::abi;
    use marshal_isa::asm::assemble;
    use marshal_sim_functional::{FunctionalSim, SimKind};

    #[test]
    fn specs_parse_like_listing1() {
        let (base, w) =
            marshal_config::WorkloadSpec::parse_str(PFA_BASE_JSON, "pfa-base.json").unwrap();
        assert!(w.is_empty());
        assert_eq!(base.spike.as_deref(), Some("pfa-spike"));
        assert_eq!(
            base.linux.as_ref().unwrap().source.as_deref(),
            Some("pfa-linux")
        );

        let (lat, w) =
            marshal_config::WorkloadSpec::parse_str(LATENCY_JSON, "latency.json").unwrap();
        assert!(w.is_empty());
        assert_eq!(lat.jobs.len(), 2);
        assert_eq!(lat.jobs[1].bin.as_deref(), Some("serve.mexe"));
    }

    #[test]
    fn latency_bench_runs_on_spike_golden_model() {
        let exe = assemble(&latency_source(), abi::USER_BASE).unwrap();
        let pfa_spike = FunctionalSim::with_binary(SimKind::Spike, "pfa-spike");
        let result = run_bare(&pfa_spike, &exe).unwrap();
        assert!(result.serial.contains("latency-ubench faults=64"));
        assert!(result.serial.contains("latency-ubench checksum: 64"));
        assert_eq!(result.exit_code, 0);
    }

    #[test]
    fn server_runs_bare() {
        let exe = assemble(&serve_source(), abi::USER_BASE).unwrap();
        let result = run_bare(&FunctionalSim::new(SimKind::Spike), &exe).unwrap();
        assert!(result.serial.contains("pfa-server checksum: 1"));
    }
}
