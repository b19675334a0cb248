//! The [`Recorder`]: a cheap clonable handle that streams events to a
//! dedicated writer thread, which persists them as the run's journal.
//!
//! Disabled recorders (the default) short-circuit on a single `Option`
//! check — no channel send, no allocation, no clock read — so instrumented
//! hot paths cost nothing when tracing is off. Enabled recorders stamp a
//! monotonic timestamp and a journal-local thread id, then push the event
//! into a mutex-buffered queue *without waking the writer* — a per-event
//! wakeup costs the instrumented thread a cross-thread context switch,
//! which measurably dominates journal overhead on fast launch loops. The
//! writer thread polls the queue on a short timeout, assigns sequence
//! numbers, seals each line with its checksum, and appends to
//! `workdir/runs/<run-id>/journal.jsonl`, flushing once per drained batch;
//! a crash loses at most the last poll interval's events (and the reader
//! discards a torn tail line). [`Recorder::finish`] drains everything
//! before returning, so completed runs are always whole.
//!
//! While a run is live, the recorder holds a pid pin under
//! `workdir/runs/.pins/` — the same advisory-pin mechanism the blob pool
//! uses — so `marshal clean --keep-runs` never prunes a journal that is
//! still being written.

use std::cell::Cell;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::record::{Args, Record, RecordKind};

/// Journal-local thread ids: assigned in first-emission order, starting at
/// 1, stable for the thread's lifetime.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn local_tid() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Distinguishes concurrent recorders in one process (pin files, run ids).
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
enum Wire {
    Event {
        t_us: u64,
        tid: u64,
        kind: RecordKind,
    },
    Shutdown,
}

/// How long queued events may sit before the polling writer persists them —
/// the journal's crash-durability window.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// The sender/writer hand-off: senders push under the lock and return
/// immediately (no wakeup); the writer drains on [`POLL_INTERVAL`] polls.
/// The condvar is only signalled for shutdown, so the instrumented hot
/// path never pays a cross-thread wake.
#[derive(Debug)]
struct Queue {
    buf: Mutex<Vec<Wire>>,
    cv: Condvar,
    /// Set by the writer after an I/O error (or exit), so senders stop
    /// queueing into a buffer nobody will ever drain.
    dead: AtomicBool,
}

#[derive(Debug)]
struct Inner {
    queue: Arc<Queue>,
    epoch: Instant,
    next_span: AtomicU64,
    events_sent: AtomicU64,
    run_id: String,
    run_dir: PathBuf,
    pin_path: PathBuf,
    writer: Mutex<Option<std::thread::JoinHandle<u64>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Last handle gone without finish(): tell the writer to drain and
        // exit rather than poll forever.
        self.queue.push(|| Wire::Shutdown);
        self.queue.cv.notify_one();
    }
}

impl Queue {
    /// Queues the message `make` builds while the queue lock is held, so
    /// anything it reads (the event clock) is read in queue order.
    fn push(&self, make: impl FnOnce() -> Wire) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut buf = self.buf.lock().expect("journal queue poisoned");
        buf.push(make());
    }
}

/// What [`Recorder::finish`] reports about a completed journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedRun {
    /// The run id (`runs/<run-id>/`).
    pub run_id: String,
    /// The journal file.
    pub journal: PathBuf,
    /// Records written (including the header).
    pub events: u64,
}

/// A handle for recording events into a run journal. Cloning shares the
/// underlying channel; [`Recorder::disabled`] (and `Default`) record
/// nothing at all.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that drops everything: every operation is a no-op after
    /// one `Option` check, and nothing touches the filesystem.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// Creates a journal for a new run of `command` under
    /// `workdir/runs/<run-id>/` and starts its writer thread. `meta` lands
    /// in the header record alongside the generated `run_id` and the
    /// process id.
    ///
    /// # Errors
    ///
    /// I/O failures (directory or journal creation) as strings.
    pub fn create(
        workdir: &Path,
        command: &str,
        meta: &[(&str, &str)],
    ) -> Result<Recorder, String> {
        let runs = workdir.join("runs");
        let pid = std::process::id();
        let seq = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        // Zero-padded so lexicographic order is chronological order; pid
        // and an in-process counter keep concurrent runs distinct.
        let run_id = format!("r{unix_ms:013}-{pid}-{seq}");
        let run_dir = runs.join(&run_id);
        std::fs::create_dir_all(&run_dir)
            .map_err(|e| format!("mkdir {}: {e}", run_dir.display()))?;
        let journal = run_dir.join("journal.jsonl");
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal)
            .map_err(|e| format!("create {}: {e}", journal.display()))?;
        // Live-run pin, PoolPin-style: `<pid>-<seq>.pin`, swept by the
        // same scan `clean` uses for the blob pool, which reads the owner
        // from the name (the contents may not be written yet).
        let pins = runs.join(".pins");
        std::fs::create_dir_all(&pins).map_err(|e| format!("mkdir {}: {e}", pins.display()))?;
        let pin_path = pins.join(format!("{pid}-{seq}.pin"));
        std::fs::write(&pin_path, pid.to_string())
            .map_err(|e| format!("write {}: {e}", pin_path.display()))?;

        let queue = Arc::new(Queue {
            buf: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            dead: AtomicBool::new(false),
        });
        let wq = Arc::clone(&queue);
        let writer = std::thread::spawn(move || {
            let mut out = std::io::BufWriter::new(file);
            let mut seq = 0u64;
            'drain: loop {
                let batch = {
                    let mut buf = wq.buf.lock().expect("journal queue poisoned");
                    while buf.is_empty() {
                        let (guard, _) = wq
                            .cv
                            .wait_timeout(buf, POLL_INTERVAL)
                            .expect("journal queue poisoned");
                        buf = guard;
                    }
                    std::mem::take(&mut *buf)
                };
                for msg in batch {
                    let Wire::Event { t_us, tid, kind } = msg else {
                        break 'drain;
                    };
                    let rec = Record {
                        seq,
                        t_us,
                        tid,
                        kind,
                    };
                    seq += 1;
                    let line = rec.encode();
                    if writeln!(out, "{line}").is_err() {
                        break 'drain;
                    }
                }
                if out.flush().is_err() {
                    break;
                }
            }
            wq.dead.store(true, Ordering::Relaxed);
            let _ = out.flush();
            seq
        });

        let mut args = Args::new();
        args.insert("run_id".to_owned(), run_id.clone());
        args.insert("pid".to_owned(), pid.to_string());
        args.insert("unix_ms".to_owned(), unix_ms.to_string());
        for (k, v) in meta {
            args.insert((*k).to_owned(), (*v).to_owned());
        }
        let rec = Recorder {
            inner: Some(Arc::new(Inner {
                queue,
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                events_sent: AtomicU64::new(0),
                run_id,
                run_dir,
                pin_path,
                writer: Mutex::new(Some(writer)),
            })),
        };
        rec.emit(RecordKind::Run {
            name: command.to_owned(),
            args,
        });
        Ok(rec)
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The run id, when enabled.
    pub fn run_id(&self) -> Option<&str> {
        self.inner.as_ref().map(|i| i.run_id.as_str())
    }

    /// The run directory (`workdir/runs/<run-id>`), when enabled.
    pub fn run_dir(&self) -> Option<&Path> {
        self.inner.as_ref().map(|i| i.run_dir.as_path())
    }

    /// Events handed to the writer so far. Always 0 when disabled — the
    /// hot path performs no sends (asserted by the overhead tests).
    pub fn events_sent(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.events_sent.load(Ordering::Relaxed))
    }

    fn emit(&self, kind: RecordKind) {
        let Some(inner) = &self.inner else {
            return;
        };
        inner.events_sent.fetch_add(1, Ordering::Relaxed);
        let tid = local_tid();
        // Queue without signalling: the writer's poll picks it up. Waking
        // the writer per event would cost this thread a context switch.
        // The timestamp is read under the queue lock: the writer numbers
        // events in queue order, and stamping them in that same order keeps
        // timestamps monotonic across threads.
        inner.queue.push(|| Wire::Event {
            t_us: inner.epoch.elapsed().as_micros() as u64,
            tid,
            kind,
        });
    }

    fn span_with_parent(&self, parent: Option<u64>, name: &str, args: &[(&str, &str)]) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                rec: Recorder::disabled(),
                id: 0,
                ended: true,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        self.emit(RecordKind::SpanStart {
            id,
            parent,
            name: name.to_owned(),
            args: to_args(args),
        });
        Span {
            rec: self.clone(),
            id,
            ended: false,
        }
    }

    /// Opens a root span. Ends when the returned guard is dropped or
    /// explicitly [`Span::end_with`]-ed.
    pub fn span(&self, name: &str, args: &[(&str, &str)]) -> Span {
        self.span_with_parent(None, name, args)
    }

    /// Records a point event.
    pub fn instant(&self, name: &str, args: &[(&str, &str)]) {
        if self.inner.is_none() {
            return;
        }
        self.emit(RecordKind::Instant {
            name: name.to_owned(),
            args: to_args(args),
        });
    }

    /// Records a counter sample.
    pub fn counter(&self, name: &str, value: i64) {
        if self.inner.is_none() {
            return;
        }
        self.emit(RecordKind::Counter {
            name: name.to_owned(),
            value,
        });
    }

    /// Flushes and closes the journal: sends the shutdown sentinel, joins
    /// the writer thread, and releases the live-run pin. Returns what was
    /// written, or `None` for a disabled recorder (or a second finish).
    pub fn finish(&self) -> Option<FinishedRun> {
        let inner = self.inner.as_ref()?;
        let handle = inner.writer.lock().expect("writer lock poisoned").take()?;
        inner.queue.push(|| Wire::Shutdown);
        inner.queue.cv.notify_one();
        let events = handle.join().unwrap_or(0);
        let _ = std::fs::remove_file(&inner.pin_path);
        Some(FinishedRun {
            run_id: inner.run_id.clone(),
            journal: inner.run_dir.join("journal.jsonl"),
            events,
        })
    }
}

/// Typed payload helpers — the stable event schema. Every instrumented
/// layer goes through these so names and arg keys stay consistent (see
/// `docs/run-journal.md`).
impl Recorder {
    /// Span over one depgraph task action.
    pub fn task_span(&self, task: &str) -> Span {
        self.span("task", &[("task", task)])
    }

    /// A task skipped as up to date.
    pub fn task_skipped(&self, task: &str) {
        self.instant("task.skipped", &[("task", task)]);
    }

    /// A task never attempted because a dependency failed.
    pub fn task_poisoned(&self, task: &str) {
        self.instant("task.poisoned", &[("task", task)]);
    }

    /// Level-image cache attribution (in-memory or manifest load).
    pub fn cache_event(&self, level: &str, hit: bool) {
        self.instant(
            "cache",
            &[
                ("level", level),
                ("hit", if hit { "true" } else { "false" }),
            ],
        );
    }

    /// Blob pool write: new payload bytes persisted for a level.
    pub fn blob_put(&self, level: &str, bytes: u64) {
        self.instant(
            "blob.put",
            &[("level", level), ("bytes", &bytes.to_string())],
        );
    }

    /// Blob pool read: payload bytes materialised for a level.
    pub fn blob_get(&self, level: &str, bytes: u64) {
        self.instant(
            "blob.get",
            &[("level", level), ("bytes", &bytes.to_string())],
        );
    }

    /// Span over one simulator launch.
    pub fn sim_span(&self, backend: &str, job: &str) -> Span {
        self.span("sim", &[("backend", backend), ("job", job)])
    }

    /// The guest watchdog firing.
    pub fn watchdog_fired(&self, job: &str, instructions: u64) {
        self.instant(
            "watchdog",
            &[("job", job), ("instructions", &instructions.to_string())],
        );
    }

    /// A structured warning, mirrored into the journal.
    pub fn warning(&self, severity: &str, code: &str, context: &str, message: &str) {
        self.instant(
            "warning",
            &[
                ("severity", severity),
                ("code", code),
                ("context", context),
                ("message", message),
            ],
        );
    }
}

fn to_args(pairs: &[(&str, &str)]) -> Args {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

/// An open span. Dropping the guard closes the span with no extra
/// attributes; [`Span::end_with`] closes it with attributes (outcome,
/// byte counts, wait times).
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    id: u64,
    ended: bool,
}

impl Span {
    /// The span id (0 for a disabled recorder's spans).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a child span.
    pub fn child(&self, name: &str, args: &[(&str, &str)]) -> Span {
        if self.rec.inner.is_none() {
            return Span {
                rec: Recorder::disabled(),
                id: 0,
                ended: true,
            };
        }
        self.rec.span_with_parent(Some(self.id), name, args)
    }

    /// Closes the span with closing attributes.
    pub fn end_with(mut self, args: &[(&str, &str)]) {
        if self.ended {
            return;
        }
        self.ended = true;
        self.rec.emit(RecordKind::SpanEnd {
            id: self.id,
            args: to_args(args),
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.ended {
            return;
        }
        self.ended = true;
        self.rec.emit(RecordKind::SpanEnd {
            id: self.id,
            args: Args::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::read_journal;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("marshal-trace-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        let span = rec.span("task", &[("task", "t")]);
        assert_eq!(span.id(), 0);
        let child = span.child("inner", &[]);
        drop(child);
        span.end_with(&[("outcome", "ok")]);
        rec.instant("cache", &[("hit", "true")]);
        rec.counter("busy", 1);
        rec.cache_event("lvl", true);
        assert_eq!(rec.events_sent(), 0, "no sends on the disabled hot path");
        assert!(rec.finish().is_none());
        assert!(rec.run_id().is_none());
    }

    #[test]
    fn records_roundtrip_through_journal() {
        let dir = scratch("roundtrip");
        let rec = Recorder::create(&dir, "build", &[("workload", "demo")]).unwrap();
        assert!(rec.enabled());
        let span = rec.task_span("img:demo/0");
        rec.cache_event("demo/0", false);
        let child = span.child("store", &[]);
        child.end_with(&[("bytes", "128")]);
        span.end_with(&[("outcome", "executed")]);
        rec.counter("busy", 2);
        let done = rec.finish().expect("finished");
        assert_eq!(done.events, rec.events_sent());
        let journal = read_journal(&done.journal).unwrap();
        assert!(!journal.torn);
        assert_eq!(journal.records.len() as u64, done.events);
        // Header first, then strictly increasing seq and monotone time.
        let header = &journal.records[0];
        assert!(matches!(&header.kind, RecordKind::Run { name, .. } if name == "build"));
        assert_eq!(
            header.args().unwrap().get("workload").map(String::as_str),
            Some("demo")
        );
        for (i, r) in journal.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        for pair in journal.records.windows(2) {
            assert!(pair[1].t_us >= pair[0].t_us, "monotonic timestamps");
        }
        // The pin was released on finish.
        let pins: Vec<_> = std::fs::read_dir(dir.join("runs").join(".pins"))
            .map(|d| d.filter_map(Result::ok).collect())
            .unwrap_or_default();
        assert!(pins.is_empty(), "pin released on finish");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn live_run_holds_a_pin() {
        let dir = scratch("pin");
        let rec = Recorder::create(&dir, "build", &[]).unwrap();
        let pins: Vec<_> = std::fs::read_dir(dir.join("runs").join(".pins"))
            .unwrap()
            .filter_map(Result::ok)
            .collect();
        assert_eq!(pins.len(), 1);
        let content = std::fs::read_to_string(pins[0].path()).unwrap();
        assert_eq!(content, std::process::id().to_string());
        rec.finish();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn double_finish_is_harmless() {
        let dir = scratch("double");
        let rec = Recorder::create(&dir, "test", &[]).unwrap();
        assert!(rec.finish().is_some());
        assert!(rec.finish().is_none());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
