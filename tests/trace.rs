//! Observability integration tests: journals recorded by real CLI runs,
//! torn-tail crash forensics, parallel (`-j 8`) event ordering,
//! Chrome-export golden round-trip, and the events-off guarantee that a
//! disabled recorder performs no channel sends at all.

mod common;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use common::run_cli as run;
use marshal_config::SearchPath;
use marshal_core::faultinject::{FaultKind, Injector};
use marshal_core::{Board, BuildOptions, Builder};
use marshal_trace::{
    chrome_trace, list_runs, read_journal, Args, Json, Record, RecordKind, Recorder,
};

/// A depth-8 inheritance chain fanning out to 8 parallel jobs: enough
/// depth for meaningful span attribution and enough width to keep a
/// `-j 8` pool busy.
fn deep_search() -> SearchPath {
    let mut search = SearchPath::new();
    search.add_builtin(
        "d0.json",
        r#"{"name":"d0","distro":"buildroot","files":[]}"#,
    );
    for i in 1..7 {
        search.add_builtin(
            format!("d{i}.json"),
            format!(
                r#"{{"name":"d{i}","base":"d{}.json","command":"echo {i}"}}"#,
                i - 1
            ),
        );
    }
    let jobs: Vec<String> = (0..8)
        .map(|j| format!(r#"{{"name":"leaf{j}","command":"echo leaf {j}"}}"#))
        .collect();
    search.add_builtin(
        "deep.json",
        format!(
            r#"{{"name":"deep","base":"d6.json","jobs":[{}]}}"#,
            jobs.join(",")
        ),
    );
    search
}

#[test]
fn cli_build_records_journal_and_trace_inspects_it() {
    let root = common::tmpdir("trace-cli");
    let (code, log) = run(&root, &["build", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    let journal_line = log
        .iter()
        .find(|l| l.starts_with("run journal: "))
        .expect("build reports its run journal");
    assert!(journal_line.contains("marshal trace"), "{journal_line}");

    // Listing shows the run; --last --summary attributes its time.
    let (code, log) = run(&root, &["trace"]);
    assert_eq!(code, 0, "{log:?}");
    assert!(log.iter().any(|l| l.contains("build")), "{log:?}");
    let (code, log) = run(&root, &["trace", "--last", "--summary"]);
    assert_eq!(code, 0, "{log:?}");
    assert!(log[0].contains("span coverage"), "{log:?}");
    assert!(log[0].contains("build hello.json"), "{log:?}");
    assert!(log.iter().any(|l| l.contains("task ")), "{log:?}");

    // The Chrome export is valid JSON with a traceEvents array.
    let (code, log) = run(&root, &["trace", "--last", "--export", "chrome"]);
    assert_eq!(code, 0, "{log:?}");
    let doc = Json::parse(&log[0]).expect("chrome export parses");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents: {}", log[0]);
    };
    assert!(events.len() > 2, "metadata + real events");
    std::fs::remove_dir_all(root).unwrap();
}

/// `launch --sim <alias>` journals the canonical backend name the registry
/// resolved, as `cosim` does, so journals of the same backend agree.
#[test]
fn sim_span_names_the_canonical_backend() {
    let root = common::tmpdir("trace-sim-alias");
    for alias in ["functional", "cycle-exact"] {
        let (code, log) = run(&root, &["launch", "--sim", alias, "hello.json"]);
        assert_eq!(code, 0, "{log:?}");
    }
    let mut backends = Vec::new();
    for info in list_runs(&root.join("work")) {
        for record in read_journal(&info.journal).unwrap().records {
            if let RecordKind::SpanStart { name, args, .. } = record.kind {
                if name == "sim" {
                    backends.push(args["backend"].clone());
                }
            }
        }
    }
    backends.sort();
    assert_eq!(backends, ["qemu", "rtl"]);
    std::fs::remove_dir_all(root).unwrap();
}

/// `launch` and `cosim` run a job through one path, so every `sim` span
/// closes with the same keys and two runs' journals can be diffed.
#[test]
fn launch_and_cosim_sim_spans_end_with_the_same_keys() {
    let root = common::tmpdir("trace-sim-keys");
    for command in ["launch", "cosim"] {
        let (code, log) = run(&root, &[command, "hello.json"]);
        assert_eq!(code, 0, "{log:?}");
    }
    let mut ends = Vec::new();
    for info in list_runs(&root.join("work")) {
        let mut command = String::new();
        let mut sim_ids = Vec::new();
        for record in read_journal(&info.journal).unwrap().records {
            match record.kind {
                RecordKind::Run { name, .. } => command = name,
                RecordKind::SpanStart { id, name, .. } if name == "sim" => sim_ids.push(id),
                RecordKind::SpanEnd { id, args } if sim_ids.contains(&id) => {
                    ends.push((command.clone(), args.into_keys().collect::<Vec<_>>()));
                }
                _ => {}
            }
        }
    }
    ends.sort();
    let keys = ["exit_code", "instructions", "outcome", "uartlog_bytes"];
    let want: Vec<(String, Vec<String>)> = ["cosim", "cosim", "launch"]
        .iter()
        .map(|c| (c.to_string(), keys.map(str::to_owned).to_vec()))
        .collect();
    assert_eq!(ends, want);
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn parallel_j8_journal_is_ordered_and_nested() {
    let root = common::tmpdir("trace-j8");
    let work = root.join("work");
    let mut builder = Builder::new(Board::minimal("t"), deep_search(), &work).unwrap();
    let rec = Recorder::create(&work, "build", &[("workload", "deep.json")]).unwrap();
    builder.set_recorder(rec.clone());
    let opts = BuildOptions {
        jobs: Some(8),
        ..BuildOptions::default()
    };
    let products = builder.build("deep.json", &opts).unwrap();
    assert!(products.report.success());
    assert_eq!(products.jobs.len(), 8);
    let finished = rec.finish().expect("journal written");
    let journal = read_journal(&finished.journal).unwrap();
    assert!(!journal.torn, "{:?}", journal.torn_detail);

    // Sequence numbers are strictly increasing with no gaps (the writer
    // thread serialises all eight workers onto one channel).
    for (i, r) in journal.records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "dense, ordered sequence");
    }
    // Monotonic timestamps: the single writer assigns them at send time.
    for pair in journal.records.windows(2) {
        assert!(pair[1].t_us >= pair[0].t_us, "timestamps never step back");
    }

    // Every span closes exactly once, ends on the thread that opened it,
    // and per-thread spans nest LIFO — interleaving corruption across the
    // eight workers would break one of these.
    let mut open: HashMap<u64, u64> = HashMap::new(); // span id -> tid
    let mut stacks: HashMap<u64, Vec<u64>> = HashMap::new(); // tid -> open ids
    let mut task_spans = 0usize;
    for r in &journal.records {
        match &r.kind {
            RecordKind::SpanStart {
                id, name, parent, ..
            } => {
                assert!(open.insert(*id, r.tid).is_none(), "span {id} reopened");
                if let Some(p) = parent {
                    assert!(*p < *id, "parent {p} must predate child {id}");
                }
                stacks.entry(r.tid).or_default().push(*id);
                if name == "task" {
                    task_spans += 1;
                }
            }
            RecordKind::SpanEnd { id, .. } => {
                let opened_on = open
                    .remove(id)
                    .unwrap_or_else(|| panic!("span {id} never opened"));
                assert_eq!(opened_on, r.tid, "span {id} ended on a different thread");
                let stack = stacks.get_mut(&r.tid).unwrap();
                assert_eq!(stack.pop(), Some(*id), "span {id} ended out of LIFO order");
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");
    assert_eq!(
        task_spans,
        products.report.executed.len(),
        "one task span per executed task"
    );

    // ≥95% of wall time attributed to named spans (acceptance criterion):
    // the top-level build span brackets the whole execution.
    let summary = marshal_trace::summarize(&journal);
    assert!(
        summary.coverage_pct >= 95.0,
        "span coverage {:.1}% < 95%",
        summary.coverage_pct
    );
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn torn_journal_reconstructs_what_completed() {
    let root = common::tmpdir("trace-torn");
    let (code, log) = run(&root, &["build", "hello.json"]);
    assert_eq!(code, 0, "{log:?}");
    let runs = list_runs(&root.join("work"));
    assert_eq!(runs.len(), 1);
    let intact = read_journal(&runs[0].journal).unwrap();
    assert!(!intact.torn);

    // A crash mid-append leaves a torn final line: inject exactly that.
    let mut injector = Injector::new(7);
    injector
        .corrupt_file(&runs[0].journal, FaultKind::TornWrite)
        .unwrap();
    let torn = read_journal(&runs[0].journal).unwrap();
    assert!(torn.torn, "torn tail must be detected");
    assert!(
        torn.records.len() < intact.records.len(),
        "the damaged tail is discarded"
    );
    assert!(!torn.records.is_empty(), "the verified prefix survives");

    // `marshal trace --last` still reconstructs the completed prefix.
    let (code, log) = run(&root, &["trace", "--last", "--summary"]);
    assert_eq!(code, 0, "{log:?}");
    assert!(log[0].contains("TORN (crashed run)"), "{log:?}");
    assert!(
        log.iter().any(|l| l.contains("journal tail torn")),
        "{log:?}"
    );
    std::fs::remove_dir_all(root).unwrap();
}

/// A synthetic journal with fixed timestamps, so the Chrome export is
/// byte-stable across machines and runs.
fn golden_journal(dir: &Path) -> PathBuf {
    let args = |pairs: &[(&str, &str)]| -> Args {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    };
    let records = [
        Record {
            seq: 0,
            t_us: 0,
            tid: 1,
            kind: RecordKind::Run {
                name: "build".into(),
                args: args(&[("run_id", "r0000000000042-7-0"), ("workload", "demo.json")]),
            },
        },
        Record {
            seq: 1,
            t_us: 5,
            tid: 1,
            kind: RecordKind::SpanStart {
                id: 1,
                parent: None,
                name: "build".into(),
                args: args(&[("workload", "demo.json"), ("threads", "2")]),
            },
        },
        Record {
            seq: 2,
            t_us: 10,
            tid: 2,
            kind: RecordKind::SpanStart {
                id: 2,
                parent: None,
                name: "task".into(),
                args: args(&[("task", "img:demo/0")]),
            },
        },
        Record {
            seq: 3,
            t_us: 20,
            tid: 2,
            kind: RecordKind::Instant {
                name: "cache".into(),
                args: args(&[("level", "demo/0"), ("hit", "false")]),
            },
        },
        Record {
            seq: 4,
            t_us: 30,
            tid: 1,
            kind: RecordKind::Counter {
                name: "busy_workers".into(),
                value: 1,
            },
        },
        Record {
            seq: 5,
            t_us: 80,
            tid: 2,
            kind: RecordKind::SpanEnd {
                id: 2,
                args: args(&[("outcome", "executed")]),
            },
        },
        Record {
            seq: 6,
            t_us: 90,
            tid: 1,
            kind: RecordKind::SpanEnd {
                id: 1,
                args: args(&[("outcome", "ok")]),
            },
        },
    ];
    let path = dir.join("journal.jsonl");
    let text: String = records.iter().map(|r| r.encode() + "\n").collect();
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn chrome_export_matches_golden_file() {
    let root = common::tmpdir("trace-golden");
    let journal_path = golden_journal(&root);
    let journal = read_journal(&journal_path).unwrap();
    assert!(!journal.torn, "{:?}", journal.torn_detail);
    let exported = chrome_trace(&journal);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("chrome_trace.json");
    if std::env::var_os("MARSHAL_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, exported.trim().to_owned() + "\n").unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    assert_eq!(
        exported.trim(),
        golden.trim(),
        "Chrome export drifted from the golden file; if the change is \
         intentional, regenerate tests/golden/chrome_trace.json"
    );
    // Round-trip: the export re-parses and keeps every event.
    let doc = Json::parse(&exported).unwrap();
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    // process_name metadata + 2 spans + 1 instant + 1 counter.
    assert_eq!(events.len(), 5);
    std::fs::remove_dir_all(root).unwrap();
}

#[test]
fn disabled_recorder_sends_nothing_on_a_full_build() {
    let root = common::tmpdir("trace-off");
    let work = root.join("work");
    let mut builder = Builder::new(Board::minimal("t"), deep_search(), &work).unwrap();
    // No set_recorder call: the default is disabled.
    assert!(!builder.recorder().enabled());
    let products = builder
        .build("deep.json", &BuildOptions::default())
        .unwrap();
    assert!(products.report.success());
    assert_eq!(
        builder.recorder().events_sent(),
        0,
        "disabled recorder must never touch the channel"
    );
    assert!(
        list_runs(&work).is_empty(),
        "no journal directory appears when tracing is off"
    );
    std::fs::remove_dir_all(root).unwrap();
}
