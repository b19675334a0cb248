//! Run-output collection: serial logs, `outputs` extraction, and the
//! `post-run-hook`.
//!
//! "When the simulation completes, FireMarshal copies any output files and
//! the serial port log to an output directory. The post-run-hook script
//! (if any) is run against this output to produce final results" (§III-C).

use std::path::{Path, PathBuf};

use marshal_image::FsImage;
use marshal_script::{HostEnv, Interp, Value};

use crate::error::MarshalError;

/// Name of the serial log file in every job output directory.
pub const SERIAL_LOG: &str = "uartlog";

/// Writes a job's serial log and extracts its `outputs` paths from the
/// final image into `job_dir`.
///
/// # Errors
///
/// I/O failures; a declared `outputs` path the guest did not produce is
/// [`MarshalError::Other`] naming the first such path.
pub fn collect_outputs(
    job_dir: &Path,
    serial: &str,
    image: Option<&FsImage>,
    outputs: &[String],
) -> Result<(), MarshalError> {
    match salvage_outputs(job_dir, serial, image, outputs)?.first() {
        None => Ok(()),
        Some(missed) if image.is_none() => Err(MarshalError::Other(format!(
            "workload declares output `{missed}` but produced no filesystem image"
        ))),
        Some(missed) => Err(MarshalError::Other(format!(
            "collect `{missed}`: not copied out of the final image"
        ))),
    }
}

/// Best-effort variant of [`collect_outputs`] for watchdog-terminated
/// runs: the serial log is always written, declared `outputs` paths are
/// copied out when present, and the ones the guest never produced are
/// returned instead of failing the whole collection.
///
/// # Errors
///
/// Only host I/O failures — a missing guest output is not an error here.
pub fn salvage_outputs(
    job_dir: &Path,
    serial: &str,
    image: Option<&FsImage>,
    outputs: &[String],
) -> Result<Vec<String>, MarshalError> {
    std::fs::create_dir_all(job_dir)
        .map_err(|e| MarshalError::Io(format!("mkdir {}: {e}", job_dir.display())))?;
    std::fs::write(job_dir.join(SERIAL_LOG), serial)
        .map_err(|e| MarshalError::Io(format!("write uartlog: {e}")))?;
    let copied = |guest_path: &String| {
        let base = guest_path
            .rsplit('/')
            .find(|p| !p.is_empty())
            .unwrap_or("output");
        image.is_some_and(|image| image.copy_out(guest_path, &job_dir.join(base)).is_ok())
    };
    Ok(outputs.iter().filter(|p| !copied(p)).cloned().collect())
}

/// Writes a job's `stats` file: the timing summary post-run hooks parse
/// (functional launches report instruction counts; cycle-exact runs report
/// modelled cycles split into user/kernel time).
///
/// # Errors
///
/// I/O failures.
pub fn write_stats(
    job_dir: &Path,
    cycles: u64,
    user_cycles: u64,
    kernel_cycles: u64,
    instructions: u64,
    freq_mhz: u64,
) -> Result<(), MarshalError> {
    std::fs::create_dir_all(job_dir)
        .map_err(|e| MarshalError::Io(format!("mkdir {}: {e}", job_dir.display())))?;
    let text = format!(
        "cycles,user_cycles,kernel_cycles,instructions,freq_mhz\n{cycles},{user_cycles},{kernel_cycles},{instructions},{freq_mhz}\n"
    );
    std::fs::write(job_dir.join("stats"), text)
        .map_err(|e| MarshalError::Io(format!("write stats: {e}")))
}

/// Runs the workload's `post-run-hook` over the run directory.
///
/// The hook executes in a [`HostEnv`] rooted at `run_root` (so it can read
/// every job's outputs and write combined results) with the job directory
/// names as arguments — mirroring how the paper's SPEC workload combined
/// per-job CSVs.
///
/// Returns the hook's log lines.
///
/// # Errors
///
/// Script failures as [`MarshalError::Script`].
pub fn run_post_hook(
    hook_source: &str,
    run_root: &Path,
    job_dirs: &[String],
) -> Result<Vec<String>, MarshalError> {
    let mut env = HostEnv::new(run_root);
    let mut interp = Interp::new();
    let args: Vec<Value> = job_dirs.iter().map(|d| Value::Str(d.clone())).collect();
    interp
        .run(hook_source, &mut env, &args)
        .map_err(|e| MarshalError::Script(format!("post-run-hook: {e}")))?;
    Ok(env.log)
}

/// Resolves a hook script (`post-run-hook` option) to its source text:
/// `script args...` relative to the workload source directory.
///
/// # Errors
///
/// [`MarshalError::Io`] when the script file is missing.
pub fn load_hook_script(
    hook: &str,
    source_dir: Option<&Path>,
) -> Result<(String, Vec<String>), MarshalError> {
    let mut parts = hook.split_whitespace();
    let file = parts.next().unwrap_or("");
    let args: Vec<String> = parts.map(str::to_owned).collect();
    let dir = source_dir.ok_or_else(|| {
        MarshalError::Other(format!("hook `{hook}` needs a workload source directory"))
    })?;
    let path: PathBuf = dir.join(file);
    let source = std::fs::read_to_string(&path)
        .map_err(|e| MarshalError::Io(format!("hook {}: {e}", path.display())))?;
    Ok((source, args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_qcheck::scratch_dir;

    #[test]
    fn collects_serial_and_outputs() {
        let dir = scratch_dir("collect");
        let mut img = FsImage::new();
        img.write_file("/output/results.csv", b"name,score\nx,1\n")
            .unwrap();
        collect_outputs(
            &dir.join("job0"),
            "serial text\n",
            Some(&img),
            &["/output".to_owned()],
        )
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("job0").join(SERIAL_LOG)).unwrap(),
            "serial text\n"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("job0/output/results.csv")).unwrap(),
            "name,score\nx,1\n"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_output_path_errors() {
        let dir = scratch_dir("missing");
        let img = FsImage::new();
        let err = collect_outputs(&dir, "", Some(&img), &["/output".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("/output"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn salvage_tolerates_missing_outputs() {
        let dir = scratch_dir("salvage");
        let mut img = FsImage::new();
        img.write_file("/output/partial.csv", b"x\n").unwrap();
        let missed = salvage_outputs(
            &dir.join("job0"),
            "partial serial\n",
            Some(&img),
            &["/output".to_owned(), "/results/final.csv".to_owned()],
        )
        .unwrap();
        assert_eq!(missed, vec!["/results/final.csv".to_owned()]);
        assert!(dir.join("job0").join(SERIAL_LOG).exists());
        assert!(dir.join("job0/output/partial.csv").exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn post_hook_combines_job_outputs() {
        let dir = scratch_dir("hook");
        std::fs::create_dir_all(dir.join("a")).unwrap();
        std::fs::create_dir_all(dir.join("b")).unwrap();
        std::fs::write(dir.join("a/score"), "1").unwrap();
        std::fs::write(dir.join("b/score"), "2").unwrap();
        let hook = r#"
            let rows = ["name,score"]
            for job in args() {
                rows = push(rows, csv_row([job, read_file(job + "/score")]))
            }
            write_file("results.csv", join(rows, "\n") + "\n")
            print("combined " + str(len(args())) + " jobs")
        "#;
        let log = run_post_hook(hook, &dir, &["a".to_owned(), "b".to_owned()]).unwrap();
        assert_eq!(log, vec!["combined 2 jobs"]);
        assert_eq!(
            std::fs::read_to_string(dir.join("results.csv")).unwrap(),
            "name,score\na,1\nb,2\n"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn hook_script_loading() {
        let dir = scratch_dir("hookload");
        std::fs::write(dir.join("handle.ms"), "print(\"hi\")\n").unwrap();
        let (src, args) = load_hook_script("handle.ms --csv", Some(&dir)).unwrap();
        assert!(src.contains("print"));
        assert_eq!(args, vec!["--csv"]);
        assert!(load_hook_script("ghost.ms", Some(&dir)).is_err());
        assert!(load_hook_script("handle.ms", None).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
