//! The `marshal` command-line tool (Table I of the paper).

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let remote = std::env::var_os("MARSHAL_REMOTE");
    let parsed = marshal_core::cli::check_retired_env(remote.as_deref())
        .and_then(|()| marshal_core::cli::parse_args(&args));
    let parsed = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // `help` needs no workload setup (and must not create a workdir).
    if matches!(parsed.command, marshal_core::cli::Command::Help) {
        print_lines([marshal_core::cli::USAGE]);
        return ExitCode::SUCCESS;
    }
    let setup = match marshal_workloads::setup(std::path::Path::new(&parsed.workdir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: workload setup failed: {e}");
            return ExitCode::from(1);
        }
    };
    let (code, log) = marshal_core::cli::run_command(&parsed, setup.board, setup.search);
    print_lines(&log);
    ExitCode::from(code as u8)
}

/// Writes `lines` to stdout, one per line. A reader that has gone away
/// (`marshal ... | head -1`) ends the output quietly; the exit code still
/// reports the command.
fn print_lines<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) {
    let mut out = std::io::stdout().lock();
    let written = lines
        .into_iter()
        .try_for_each(|line| writeln!(out, "{}", line.as_ref()))
        .and_then(|()| out.flush());
    match written {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => eprintln!("error: writing output: {e}"),
        _ => {}
    }
}
