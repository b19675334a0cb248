//! One-call setup: materialise every bundled workload and return the board
//! plus a ready search path.

use std::path::{Path, PathBuf};

use marshal_config::SearchPath;
use marshal_core::Board;

use crate::runtime::compose_benchmark;

/// A complete environment: the board, the search path covering all bundled
/// workloads, and the directory they were materialised into.
#[derive(Debug)]
pub struct Setup {
    /// The Chipyard-like board.
    pub board: Board,
    /// Search path: built-in bases + every bundled workload directory.
    pub search: SearchPath,
    /// Root of the materialised workload sources.
    pub dir: PathBuf,
}

/// The quickstart workload: hello-world with an output file and reference.
pub const HELLO_JSON: &str = r#"{
    "name": "hello",
    "base": "br-base.json",
    "host-init": "build.ms",
    "overlay": "overlay",
    "command": "/bin/hello",
    "outputs": ["/output"],
    "testing": { "refDir": "refs" }
}
"#;

fn hello_source() -> String {
    compose_benchmark(
        "hello",
        r#"
        .data
__greeting: .asciiz "Hello from FireMarshal!\n"
__out_path: .asciiz "/output/hello.txt"
__out_body: .ascii  "greetings\n"
        .text
bench_main:
        addi    sp, sp, -16
        sd      ra, 8(sp)
        la      a0, __greeting
        call    print_cstr
        # write /output/hello.txt
        la      a0, __out_path
        li      a1, 1              # O_WRONLY
        li      a7, 1024           # OPEN
        ecall
        mv      t0, a0
        mv      a0, t0
        la      a1, __out_body
        li      a2, 10
        li      a7, 64             # WRITE
        ecall
        mv      a0, t0
        li      a7, 57             # CLOSE
        ecall
        li      a0, 42
        ld      ra, 8(sp)
        addi    sp, sp, 16
        ret
"#,
    )
}

/// Materialises the quickstart workload.
fn materialize_hello(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir.join("src"))?;
    std::fs::create_dir_all(dir.join("overlay/bin"))?;
    std::fs::create_dir_all(dir.join("refs"))?;
    std::fs::write(dir.join("hello.json"), HELLO_JSON)?;
    std::fs::write(
        dir.join("build.ms"),
        "#!mscript\nassemble(\"src/hello.s\", \"overlay/bin/hello\")\n",
    )?;
    std::fs::write(dir.join("src/hello.s"), hello_source())?;
    std::fs::write(
        dir.join("refs/uartlog"),
        "Hello from FireMarshal!\nhello checksum: 42\n",
    )?;
    Ok(())
}

/// Materialises every bundled workload under `root/workloads/` and builds
/// the standard board + search path.
///
/// Idempotent: rewrites the same bytes on every call, so incremental
/// builds stay incremental.
///
/// # Errors
///
/// I/O failures creating the tree.
pub fn setup(root: &Path) -> std::io::Result<Setup> {
    let dir = root.join("workloads");
    let intspeed_dir = dir.join("intspeed");
    let pfa_dir = dir.join("pfa");
    let coremark_dir = dir.join("coremark");
    let dnn_dir = dir.join("onnx");
    let hello_dir = dir.join("quickstart");
    crate::intspeed::materialize(&intspeed_dir)?;
    crate::pfa::materialize(&pfa_dir)?;
    crate::coremark::materialize(&coremark_dir)?;
    crate::dnn::materialize(&dnn_dir)?;
    materialize_hello(&hello_dir)?;

    let mut search = SearchPath::new();
    for (name, text) in crate::bases::all() {
        search.add_builtin(name, text);
    }
    search.add_dir(&intspeed_dir);
    search.add_dir(&pfa_dir);
    search.add_dir(&coremark_dir);
    search.add_dir(&dnn_dir);
    search.add_dir(&hello_dir);

    Ok(Setup {
        board: crate::board::chipyard_board(),
        search,
        dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_core::{launch, BuildOptions, Builder};
    use marshal_qcheck::scratch_dir;

    #[test]
    fn setup_materialises_everything() {
        let root = scratch_dir("setup");
        let s = setup(&root).unwrap();
        assert!(s.dir.join("intspeed/intspeed.json").exists());
        assert!(s.dir.join("intspeed/src/600.perlbench_s.s").exists());
        assert!(s.dir.join("pfa/pfa-base.json").exists());
        assert!(s.dir.join("coremark/coremark.json").exists());
        assert!(s.dir.join("quickstart/hello.json").exists());
        assert!(s.search.locate("br-base.json").is_some());
        assert!(s.search.locate("intspeed.json").is_some());
        // Idempotent.
        setup(&root).unwrap();
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn hello_builds_launches_and_produces_outputs() {
        let root = scratch_dir("hello");
        let s = setup(&root).unwrap();
        let mut builder = Builder::new(s.board, s.search, root.join("work")).unwrap();
        let products = builder
            .build("hello.json", &BuildOptions::default())
            .unwrap();
        assert_eq!(products.jobs.len(), 1);
        let run = launch::launch_workload(&builder, &products, &Default::default()).unwrap();
        let out = &run.jobs[0];
        assert!(
            out.serial.contains("Hello from FireMarshal!"),
            "{}",
            out.serial
        );
        assert!(out.serial.contains("hello checksum: 42"));
        assert_eq!(out.exit_code, 0);
        assert!(out.job_dir.join("uartlog").exists());
        assert!(out.job_dir.join("output/hello.txt").exists());
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn hello_test_command_passes() {
        let root = scratch_dir("hellotest");
        let s = setup(&root).unwrap();
        let mut builder = Builder::new(s.board, s.search, root.join("work")).unwrap();
        let outcomes = marshal_core::test::test_workload(
            &mut builder,
            "hello.json",
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        assert!(outcomes.iter().all(|o| o.passed()), "{outcomes:?}");
        assert!(matches!(outcomes[0], marshal_core::TestOutcome::Pass));
        std::fs::remove_dir_all(root).unwrap();
    }
}
