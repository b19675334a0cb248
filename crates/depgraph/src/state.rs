//! The persistent build-state database.
//!
//! Maps task id → the cumulative fingerprint the task last executed with.
//! Persisted as a sorted, line-oriented text file (`id\thash`), so the file
//! itself is deterministic and diff-friendly.
//!
//! # Crash safety
//!
//! [`StateDb::flush`] writes through [`crate::persist::write_sealed`]: a
//! crash mid-flush leaves the old file or the new, never a torn one, and
//! the seal lets [`StateDb::open`] detect truncation or bit-rot even when
//! each surviving line parses cleanly. A damaged file is quarantined to
//! `<path>.corrupt` and the build proceeds with a cold cache (everything
//! rebuilds) instead of failing — losing incrementality is recoverable,
//! acting on corrupt state is not.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::error::BuildError;
use crate::hash::Fingerprint;

/// The hash-field token marking a task as in progress rather than built.
const IN_PROGRESS_TOKEN: &str = "!in-progress";

/// Build-state database: last-built fingerprints per task.
///
/// ```rust
/// use marshal_depgraph::{Fingerprint, StateDb};
/// let mut db = StateDb::in_memory();
/// db.record("kernel", Fingerprint::of(b"v1"));
/// assert_eq!(db.last("kernel"), Some(Fingerprint::of(b"v1")));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StateDb {
    entries: BTreeMap<String, Fingerprint>,
    /// Tasks currently (or, in a crashed run, permanently) mid-execution.
    /// Persisted so an interrupted build is detectable on the next open.
    in_progress: BTreeSet<String>,
    /// Tasks found marked in-progress at open time: the previous run was
    /// interrupted mid-task, so their recorded state was discarded.
    interrupted: Vec<String>,
    path: Option<PathBuf>,
    recovery: Option<String>,
}

impl StateDb {
    /// Creates an empty database that is never written to disk.
    pub fn in_memory() -> StateDb {
        StateDb::default()
    }

    /// Opens (or creates) a database backed by the file at `path`.
    ///
    /// A damaged state file (unsealed, truncated, bit-flipped, malformed,
    /// or holding duplicate task ids) is quarantined to `<path>.corrupt` and an empty
    /// database is returned; [`StateDb::recovery`] describes what happened
    /// so callers can warn. Corruption therefore costs a full rebuild, not
    /// a failed one.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::State`] only for real I/O failures: the file
    /// exists but cannot be read, or the quarantine rename fails.
    pub fn open(path: impl Into<PathBuf>) -> Result<StateDb, BuildError> {
        let path = path.into();
        let mut db = StateDb {
            path: Some(path.clone()),
            ..StateDb::default()
        };
        let parsed = match crate::persist::read_sealed(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(db),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                Err(BuildError::State(e.to_string()))
            }
            Err(e) => return Err(BuildError::State(e.to_string())),
            // Invalid UTF-8 is damage (bit-rot), not an I/O failure.
            Ok(bytes) => match String::from_utf8(bytes) {
                Ok(text) => parse_state_file(&text, &path),
                Err(_) => Err(BuildError::State(format!(
                    "{}: not valid UTF-8",
                    path.display()
                ))),
            },
        };
        match parsed {
            Ok((entries, in_progress)) => {
                db.entries = entries;
                // A task marked in-progress was mid-write when the previous
                // run died: whatever fingerprint it recorded (and whatever
                // bytes its outputs hold) cannot be trusted, so drop the
                // entry and let the task rebuild.
                for id in in_progress {
                    db.entries.remove(&id);
                    db.interrupted.push(id);
                }
            }
            Err(BuildError::State(why)) => {
                let quarantine = path.with_extension("db.corrupt");
                crate::persist::quarantine(&path, &quarantine)
                    .map_err(|e| BuildError::State(e.to_string()))?;
                db.recovery = Some(format!(
                    "state database corrupt ({why}); quarantined to {} and starting \
                     with a cold cache — everything will rebuild",
                    quarantine.display()
                ));
            }
            Err(other) => return Err(other),
        }
        Ok(db)
    }

    /// If [`StateDb::open`] recovered from a corrupt file, the
    /// human-readable account of what it did; `None` for a clean open.
    pub fn recovery(&self) -> Option<&str> {
        self.recovery.as_deref()
    }

    /// The fingerprint `task` last executed with, if any.
    pub fn last(&self, task: &str) -> Option<Fingerprint> {
        self.entries.get(task).copied()
    }

    /// Records that `task` executed with `fingerprint`.
    pub fn record(&mut self, task: impl Into<String>, fingerprint: Fingerprint) {
        self.entries.insert(task.into(), fingerprint);
    }

    /// Marks `task` as mid-execution. Flushed to disk before the task's
    /// action runs, so a crash mid-task leaves a durable record and the
    /// next run rebuilds the task instead of trusting possibly-torn
    /// outputs.
    pub fn mark_in_progress(&mut self, task: impl Into<String>) {
        self.in_progress.insert(task.into());
    }

    /// Clears an in-progress mark (the task finished or failed cleanly),
    /// returning whether it was set.
    pub fn clear_in_progress(&mut self, task: &str) -> bool {
        self.in_progress.remove(task)
    }

    /// Records a completed task: stores its fingerprint and clears its
    /// in-progress mark in one step.
    pub fn finish(&mut self, task: impl Into<String>, fingerprint: Fingerprint) {
        let task = task.into();
        self.in_progress.remove(&task);
        self.entries.insert(task, fingerprint);
    }

    /// Tasks currently marked in-progress, sorted.
    pub fn in_progress(&self) -> Vec<&str> {
        self.in_progress.iter().map(String::as_str).collect()
    }

    /// Tasks that were marked in-progress when this database was opened —
    /// evidence of an interrupted previous run. Their recorded fingerprints
    /// were discarded, so they will rebuild.
    pub fn interrupted(&self) -> &[String] {
        &self.interrupted
    }

    /// Forgets a task (forcing its next build), returning whether it existed.
    pub fn forget(&mut self, task: &str) -> bool {
        self.entries.remove(task).is_some()
    }

    /// Removes every entry and in-progress mark.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.in_progress.clear();
    }

    /// All recorded task ids, sorted.
    pub fn task_ids(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of recorded tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Writes the database to its backing file (no-op for in-memory).
    ///
    /// The write goes through [`crate::persist::write_sealed`], so a crash
    /// or a concurrent flush never leaves a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::State`] on I/O failure.
    pub fn flush(&self) -> Result<(), BuildError> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut body = String::new();
        for (id, fp) in &self.entries {
            let _ = writeln!(body, "{id}\t{fp}");
        }
        for id in &self.in_progress {
            let _ = writeln!(body, "{id}\t{IN_PROGRESS_TOKEN}");
        }
        crate::persist::write_sealed(path, body.as_bytes())
            .map_err(|e| BuildError::State(e.to_string()))
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

/// Shortens a line for inclusion in an error message.
fn excerpt(line: &str) -> String {
    const MAX: usize = 60;
    if line.chars().count() <= MAX {
        format!("{line:?}")
    } else {
        let cut: String = line.chars().take(MAX).collect();
        format!("{cut:?}…")
    }
}

type ParsedState = (BTreeMap<String, Fingerprint>, BTreeSet<String>);

/// Parses a state file's sealed payload, failing on any malformed line,
/// bad hash or duplicate id.
fn parse_state_file(text: &str, path: &Path) -> Result<ParsedState, BuildError> {
    let mut entries = BTreeMap::new();
    let mut in_progress = BTreeSet::new();
    for (no, line) in text.lines().enumerate() {
        let (id, hash) = line.split_once('\t').ok_or_else(|| {
            BuildError::State(format!(
                "{}:{}: malformed line (expected id\\thash): {}",
                path.display(),
                no + 1,
                excerpt(line)
            ))
        })?;
        let duplicate = if hash == IN_PROGRESS_TOKEN {
            // A task may carry both a (stale) fingerprint line and an
            // in-progress mark — the run died after recording one build
            // and while re-running the task — but never two marks.
            !in_progress.insert(id.to_owned())
        } else {
            let fp = hash.parse::<Fingerprint>().map_err(|e| {
                BuildError::State(format!(
                    "{}:{}: bad hash ({e}): {}",
                    path.display(),
                    no + 1,
                    excerpt(line)
                ))
            })?;
            entries.insert(id.to_owned(), fp).is_some()
        };
        if duplicate {
            return Err(BuildError::State(format!(
                "{}:{}: duplicate task id: {}",
                path.display(),
                no + 1,
                excerpt(line)
            )));
        }
    }
    Ok((entries, in_progress))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marshal_qcheck::scratch_dir;

    #[test]
    fn persist_roundtrip() {
        let dir = scratch_dir("roundtrip");
        let file = dir.join("state.db");
        let mut db = StateDb::open(&file).unwrap();
        db.record("a", Fingerprint::of(b"1"));
        db.record("b", Fingerprint::of(b"2"));
        db.flush().unwrap();

        let db2 = StateDb::open(&file).unwrap();
        assert!(db2.recovery().is_none());
        assert_eq!(db2.last("a"), Some(Fingerprint::of(b"1")));
        assert_eq!(db2.last("b"), Some(Fingerprint::of(b"2")));
        assert_eq!(db2.len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn headerless_legacy_file_is_damage() {
        let dir = scratch_dir("legacy");
        let file = dir.join("state.db");
        let fp = Fingerprint::of(b"1");
        std::fs::write(&file, format!("a\t{fp}\n")).unwrap();
        let db = StateDb::open(&file).unwrap();
        assert!(db.is_empty(), "a legacy file rebuilds from a cold cache");
        let note = db.recovery().expect("recovery note");
        assert!(note.contains("not sealed"), "{note}");
        assert!(!file.exists());
        assert!(dir.join("state.db.corrupt").exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn malformed_file_quarantined_and_recovered() {
        let dir = scratch_dir("malformed");
        let file = dir.join("state.db");
        crate::persist::write_sealed(&file, b"no-tab-here\n").unwrap();
        let db = StateDb::open(&file).unwrap();
        // Recovery: empty db, note set, original quarantined.
        assert!(db.is_empty());
        let note = db.recovery().expect("recovery note");
        assert!(note.contains("malformed line"), "{note}");
        assert!(
            note.contains("no-tab-here"),
            "error carries the offending line: {note}"
        );
        assert!(!file.exists());
        assert!(dir.join("state.db.corrupt").exists());
        // A fresh open after quarantine is clean.
        let db = StateDb::open(&file).unwrap();
        assert!(db.recovery().is_none());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn truncated_file_detected() {
        let dir = scratch_dir("truncated");
        let file = dir.join("state.db");
        let mut db = StateDb::open(&file).unwrap();
        for i in 0..10 {
            db.record(format!("task{i}"), Fingerprint::of(&[i]));
        }
        db.flush().unwrap();
        // Drop the last two lines, as a torn write would.
        let text = std::fs::read_to_string(&file).unwrap();
        let kept: Vec<&str> = text.lines().take(9).collect();
        std::fs::write(&file, kept.join("\n")).unwrap();
        let db = StateDb::open(&file).unwrap();
        assert!(db.is_empty());
        assert!(
            db.recovery().unwrap().contains("truncated"),
            "{:?}",
            db.recovery()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bitflip_detected_by_checksum() {
        let dir = scratch_dir("bitflip");
        let file = dir.join("state.db");
        let mut db = StateDb::open(&file).unwrap();
        db.record("aa", Fingerprint::of(b"1"));
        db.record("bb", Fingerprint::of(b"2"));
        db.flush().unwrap();
        // Corrupt one character of a task id: every line still parses, so
        // only the checksum catches it.
        let text = std::fs::read_to_string(&file).unwrap();
        let flipped = text.replace("\nbb\t", "\nbz\t");
        assert_ne!(text, flipped);
        std::fs::write(&file, flipped).unwrap();
        let db = StateDb::open(&file).unwrap();
        assert!(db.is_empty());
        assert!(
            db.recovery().unwrap().contains("checksum"),
            "{:?}",
            db.recovery()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn duplicate_ids_rejected() {
        let dir = scratch_dir("dup");
        let file = dir.join("state.db");
        let fp = Fingerprint::of(b"1");
        let text = format!("a\t{fp}\na\t{fp}\n");
        let err = parse_state_file(&text, &file).unwrap_err();
        assert!(matches!(err, BuildError::State(ref m) if m.contains("duplicate task id")));
        // And open() recovers from it.
        crate::persist::write_sealed(&file, text.as_bytes()).unwrap();
        let db = StateDb::open(&file).unwrap();
        assert!(
            db.recovery().unwrap().contains("duplicate"),
            "{:?}",
            db.recovery()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bad_hash_error_carries_line_excerpt() {
        let file = PathBuf::from("state.db");
        let err = parse_state_file("task\tnot-a-hash\n", &file).unwrap_err();
        let BuildError::State(msg) = err else {
            panic!("wrong variant")
        };
        assert!(msg.contains("bad hash"), "{msg}");
        assert!(msg.contains("not-a-hash"), "{msg}");
        // Long lines are truncated, not dumped wholesale.
        let long = format!("task\t{}\n", "x".repeat(500));
        let BuildError::State(msg) = parse_state_file(&long, &file).unwrap_err() else {
            panic!("wrong variant")
        };
        assert!(msg.len() < 200, "excerpt should be bounded: {}", msg.len());
        assert!(msg.contains('…'), "{msg}");
    }

    #[test]
    fn flush_leaves_no_temp_file() {
        let dir = scratch_dir("atomic");
        let file = dir.join("state.db");
        let mut db = StateDb::open(&file).unwrap();
        db.record("a", Fingerprint::of(b"1"));
        db.flush().unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["state.db"]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn concurrent_flushes_never_install_a_torn_file() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        // Two databases flush to one path while a third thread reopens it:
        // every flush must succeed and every open must see a whole file.
        let dir = scratch_dir("race");
        let file = dir.join("state.db");
        let start = Barrier::new(2);
        let done = AtomicBool::new(false);
        let (flush_errors, recoveries) = std::thread::scope(|s| {
            let flushers: Vec<_> = (0..2u8)
                .map(|writer| {
                    let (file, start) = (&file, &start);
                    s.spawn(move || {
                        let mut db = StateDb::open(file).unwrap();
                        for i in 0..200u32 {
                            db.record(format!("w{writer}-task{i}"), Fingerprint::of(&[writer]));
                        }
                        start.wait();
                        (0..2_000)
                            .filter_map(|_| db.flush().err())
                            .map(|e| e.to_string())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let opener = s.spawn(|| {
                let mut recoveries = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    let db = StateDb::open(&file).unwrap();
                    recoveries.extend(db.recovery().map(str::to_owned));
                }
                recoveries
            });
            let errors: Vec<String> = flushers
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect();
            done.store(true, Ordering::Relaxed);
            (errors, opener.join().unwrap())
        });
        assert!(flush_errors.is_empty(), "{flush_errors:?}");
        assert!(recoveries.is_empty(), "{recoveries:?}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn in_progress_roundtrip_and_interruption() {
        let dir = scratch_dir("inprogress");
        let file = dir.join("state.db");
        let mut db = StateDb::open(&file).unwrap();
        db.record("done", Fingerprint::of(b"1"));
        // Simulate the executor's pre-run mark on a task that also has a
        // stale fingerprint from an earlier build.
        db.record("torn", Fingerprint::of(b"old"));
        db.mark_in_progress("torn");
        db.mark_in_progress("fresh");
        db.flush().unwrap();

        // "Crash": the marks were never cleared. The next open treats the
        // marked tasks as dirty — fingerprints dropped — and reports them.
        let db2 = StateDb::open(&file).unwrap();
        assert!(db2.recovery().is_none(), "interruption is not corruption");
        assert_eq!(db2.last("done"), Some(Fingerprint::of(b"1")));
        assert_eq!(db2.last("torn"), None, "in-progress entries are dirty");
        assert_eq!(db2.interrupted(), ["fresh", "torn"]);
        assert!(db2.in_progress().is_empty(), "marks do not carry over");

        // A clean finish clears the mark and records the fingerprint.
        let mut db = StateDb::open(&file).unwrap();
        db.mark_in_progress("torn");
        db.finish("torn", Fingerprint::of(b"new"));
        db.flush().unwrap();
        let db = StateDb::open(&file).unwrap();
        assert!(db.interrupted().is_empty());
        assert_eq!(db.last("torn"), Some(Fingerprint::of(b"new")));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn duplicate_in_progress_marks_rejected() {
        let file = PathBuf::from("state.db");
        let text = "a\t!in-progress\na\t!in-progress\n";
        let err = parse_state_file(text, &file).unwrap_err();
        assert!(matches!(err, BuildError::State(ref m) if m.contains("duplicate")));
    }

    #[test]
    fn clear_in_progress_reports_presence() {
        let mut db = StateDb::in_memory();
        db.mark_in_progress("t");
        assert_eq!(db.in_progress(), ["t"]);
        assert!(db.clear_in_progress("t"));
        assert!(!db.clear_in_progress("t"));
    }

    #[test]
    fn forget_and_clear() {
        let mut db = StateDb::in_memory();
        db.record("a", Fingerprint::of(b"1"));
        assert!(db.forget("a"));
        assert!(!db.forget("a"));
        db.record("b", Fingerprint::of(b"2"));
        db.clear();
        assert!(db.is_empty());
    }

    #[test]
    fn in_memory_flush_is_noop() {
        let mut db = StateDb::in_memory();
        db.record("a", Fingerprint::of(b"1"));
        db.flush().unwrap();
        assert!(db.path().is_none());
    }
}
