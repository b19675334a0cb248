//! Post-tapeout bring-up triage — the §VI workflow the authors were
//! building: "the existing suite of FireMarshal-based benchmarks are run
//! in an identical manner in both functional simulation and during
//! bring-up, allowing researchers to triage issues with potentially
//! faulty hardware."
//!
//! Runs the bundled suite on (a) functional simulation, (b) healthy
//! "silicon" (the cycle-exact simulator), and (c) a chip with a corrupted
//! boot flash (modelled by bit-flipping the boot binary) — and prints the
//! triage matrix that localises the fault.
//!
//! ```text
//! cargo run --release --example bringup
//! ```

use marshal_core::faultinject::{FaultKind, Injector};
use marshal_core::launch::LoadedJob;
use marshal_core::{install, launch, BuildOptions, Builder, MarshalError, TestOutcome};
use marshal_sim_rtl::HardwareConfig;

fn outcome_str(o: &TestOutcome) -> &'static str {
    match o {
        TestOutcome::Pass => "PASS",
        TestOutcome::NoReference => "pass*",
        TestOutcome::Fail { .. } => "FAIL",
        TestOutcome::TimedOut { .. } => "HUNG",
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("firemarshal-bringup-{}", std::process::id()));
    std::fs::create_dir_all(&root)?;
    let setup = marshal_workloads::setup(&root)?;
    let mut builder = Builder::new(setup.board, setup.search, root.join("work"))?;

    let suite = ["hello.json", "coremark.json", "latency-microbenchmark.json"];
    println!("bring-up suite: {suite:?}\n");
    println!(
        "{:>28} {:>12} {:>12} {:>14}",
        "workload", "functional", "silicon", "bad-flash chip"
    );

    let mut any_divergence = false;
    for name in suite {
        let products = builder.build(name, &BuildOptions::default())?;

        // (a) functional simulation — the golden reference behaviour.
        let run = launch::launch_workload(&builder, &products, &Default::default())?;
        let functional = marshal_core::test::compare_run(
            &products,
            &run.jobs
                .iter()
                .map(|j| (j.job.clone(), j.serial.clone()))
                .collect::<Vec<_>>(),
        )?;

        // (b) healthy silicon: the cycle-exact simulator, same artifacts.
        let (manifest, _) = install::install_workload(&builder, &products)?;
        let healthy = install::run_installed(&manifest, HardwareConfig::rocket(), false)?;
        let silicon = marshal_core::test::compare_run(
            &products,
            &healthy
                .iter()
                .map(|n| (n.name.clone(), n.result.serial.clone()))
                .collect::<Vec<_>>(),
        )?;

        // (c) a chip whose flash was mis-programmed: flip one bit inside
        //     the first Linux job's payload binary on the disk image.
        let mut faulty_outcomes = Vec::new();
        for (i, job) in manifest.jobs.iter().enumerate() {
            let loaded = if i == 0 { Some(job.kind.load()?) } else { None };
            let serial = if let Some(LoadedJob::Linux {
                boot,
                disk: Some(mut disk),
            }) = loaded
            {
                // Corrupt the first program under /bin — a single flipped
                // bit, as a marginal flash cell would produce. The seeded
                // injector makes the fault replay bit-for-bit, so a
                // divergence seen here is debuggable later.
                let mut inj = Injector::new(0xb117_f11b);
                if let Ok(entries) = disk.list_dir("/bin") {
                    for entry in entries {
                        let path = format!("/bin/{entry}");
                        if let Ok(data) = disk.read_file(&path) {
                            if marshal_isa::MexeFile::sniff(data) {
                                let mut data = data.to_vec();
                                // Flip past the header so the program still
                                // loads and misbehaves, like real silicon.
                                let mut text = data.split_off(64.min(data.len()));
                                inj.corrupt_bytes(&mut text, FaultKind::BitFlip);
                                data.extend_from_slice(&text);
                                disk.write_exec(&path, &data).unwrap();
                                break;
                            }
                        }
                    }
                }
                let job = LoadedJob::Linux {
                    boot,
                    disk: Some(disk),
                };
                match marshal_sim_rtl::FireSim::new(HardwareConfig::rocket()).run(
                    &job,
                    marshal_sim_functional::LaunchMode::Run,
                    None,
                ) {
                    Ok((r, _, _)) => r.serial,
                    Err(e) => format!("boot failure: {e}\n"),
                }
            } else {
                healthy[i].result.serial.clone()
            };
            faulty_outcomes.push((job.name.clone(), serial));
        }
        let faulty = marshal_core::test::compare_run(&products, &faulty_outcomes)?;

        let worst = |v: &[TestOutcome]| {
            v.iter()
                .find(|o| matches!(o, TestOutcome::Fail { .. }))
                .cloned()
                .unwrap_or_else(|| v.first().cloned().unwrap_or(TestOutcome::NoReference))
        };
        let (f, s, bad) = (worst(&functional), worst(&silicon), worst(&faulty));
        if outcome_str(&s) != outcome_str(&bad) {
            any_divergence = true;
        }
        println!(
            "{:>28} {:>12} {:>12} {:>14}",
            products.workload,
            outcome_str(&f),
            outcome_str(&s),
            outcome_str(&bad)
        );
    }

    println!("\n(pass* = workload ships no reference output)");
    if any_divergence {
        println!(
            "triage: functional and healthy silicon agree on every workload; the \
             bad-flash chip diverges — the fault is in the programmed image, not \
             the software stack. Exactly the §VI bring-up localisation."
        );
    }
    // --- Artifact integrity ------------------------------------------------
    // The same fault injector against the work directory itself: a damaged
    // artifact is refused with an actionable error instead of being booted,
    // and `build --force` rebuilds it from sources.
    println!("\nartifact integrity:");
    let products = builder.build("hello.json", &BuildOptions::default())?;
    let artifact = match &products.jobs[0].kind {
        marshal_core::JobKind::Linux { boot_path, .. } => boot_path.clone(),
        marshal_core::JobKind::Bare { bin_path } => bin_path.clone(),
    };
    let mut inj = Injector::new(0x0ddba11);
    inj.corrupt_file(&artifact, FaultKind::Garbage)?;
    match launch::launch_workload(&builder, &products, &Default::default()) {
        Err(MarshalError::Corrupt(msg)) => println!("  detected: {msg}"),
        other => println!("  corruption was NOT detected: {other:?}"),
    }
    let products = builder.build(
        "hello.json",
        &BuildOptions {
            force: true,
            ..Default::default()
        },
    )?;
    let run = launch::launch_workload(&builder, &products, &Default::default())?;
    println!(
        "  recovered with --force: job `{}` exited {}",
        run.jobs[0].job, run.jobs[0].exit_code
    );

    let _ = std::fs::remove_dir_all(root);
    Ok(())
}
