//! Per-run summaries: where the wall time went, per task and per level,
//! plus cache attribution — the `marshal trace --summary` backend.

use std::collections::BTreeMap;

use crate::journal::Journal;
use crate::record::RecordKind;

/// One named span's contribution to a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name (`task`, `sim`, …).
    pub name: String,
    /// The most specific identifying arg (`task`, `job`, or empty).
    pub label: String,
    /// Microseconds from start to end (to journal end when unclosed).
    pub dur_us: u64,
    /// The `outcome` closing arg, when present.
    pub outcome: String,
    /// Whether the span was closed (false = the run died inside it).
    pub finished: bool,
}

/// What a run did, distilled from its journal.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// The run id from the header.
    pub run_id: String,
    /// The command from the header.
    pub command: String,
    /// The workload from the header, if any.
    pub workload: String,
    /// Total microseconds covered by the journal.
    pub wall_us: u64,
    /// Every span, in start order.
    pub spans: Vec<SpanStat>,
    /// Percentage of wall time covered by at least one span (interval
    /// union, so parallel overlap is not double-counted).
    pub coverage_pct: f64,
    /// Level-cache attribution: level → (hits, misses).
    pub cache: BTreeMap<String, (u64, u64)>,
    /// Tasks skipped as up to date.
    pub tasks_skipped: u64,
    /// Tasks poisoned by upstream failures.
    pub tasks_poisoned: u64,
    /// Warnings mirrored into the journal.
    pub warnings: u64,
    /// Whether the journal tail was torn (crashed run).
    pub torn: bool,
}

/// Builds a [`RunSummary`] from a journal.
pub fn summarize(journal: &Journal) -> RunSummary {
    let mut s = RunSummary {
        run_id: journal.header_arg("run_id").unwrap_or("").to_owned(),
        command: journal.command().unwrap_or("").to_owned(),
        workload: journal.header_arg("workload").unwrap_or("").to_owned(),
        wall_us: journal.wall_us(),
        torn: journal.torn,
        ..RunSummary::default()
    };
    // Span ends by id.
    let mut ends: BTreeMap<u64, (u64, &crate::record::Args)> = BTreeMap::new();
    for rec in &journal.records {
        if let RecordKind::SpanEnd { id, args } = &rec.kind {
            ends.entry(*id).or_insert((rec.t_us, args));
        }
    }
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    for rec in &journal.records {
        match &rec.kind {
            RecordKind::SpanStart { id, name, args, .. } => {
                let (end_t, end_args) = match ends.get(id) {
                    Some((t, a)) => (*t, Some(*a)),
                    None => (s.wall_us, None),
                };
                let label = args
                    .get("task")
                    .or_else(|| args.get("job"))
                    .or_else(|| args.get("kind"))
                    .cloned()
                    .unwrap_or_default();
                s.spans.push(SpanStat {
                    name: name.clone(),
                    label,
                    dur_us: end_t.saturating_sub(rec.t_us),
                    outcome: end_args
                        .and_then(|a| a.get("outcome"))
                        .cloned()
                        .unwrap_or_default(),
                    finished: end_args.is_some(),
                });
                intervals.push((rec.t_us, end_t.max(rec.t_us)));
            }
            RecordKind::Instant { name, args } => match name.as_str() {
                "cache" => {
                    let level = args.get("level").cloned().unwrap_or_default();
                    let entry = s.cache.entry(level).or_insert((0, 0));
                    if args.get("hit").map(String::as_str) == Some("true") {
                        entry.0 += 1;
                    } else {
                        entry.1 += 1;
                    }
                }
                "task.skipped" => s.tasks_skipped += 1,
                "task.poisoned" => s.tasks_poisoned += 1,
                "warning" => s.warnings += 1,
                _ => {}
            },
            _ => {}
        }
    }
    s.coverage_pct = coverage_pct(&mut intervals, s.wall_us);
    s
}

/// Percentage of `[0, wall]` covered by the union of the intervals.
fn coverage_pct(intervals: &mut [(u64, u64)], wall_us: u64) -> f64 {
    if wall_us == 0 {
        return 100.0;
    }
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        } else {
            cursor = cursor.max(end);
        }
    }
    covered as f64 * 100.0 / wall_us as f64
}

impl RunSummary {
    /// Renders the summary as the CLI's output lines.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        let status = if self.torn {
            "TORN (crashed run)"
        } else {
            "ok"
        };
        out.push(format!(
            "run {} · {}{} · wall {} · span coverage {:.1}% · {status}",
            self.run_id,
            self.command,
            if self.workload.is_empty() {
                String::new()
            } else {
                format!(" {}", self.workload)
            },
            fmt_us(self.wall_us),
            self.coverage_pct,
        ));
        if !self.spans.is_empty() {
            out.push(format!(
                "  {:<44} {:>10} {:>7}  {}",
                "span", "time", "share", "outcome"
            ));
            for sp in &self.spans {
                let label = if sp.label.is_empty() {
                    sp.name.clone()
                } else {
                    format!("{} {}", sp.name, sp.label)
                };
                let share = if self.wall_us == 0 {
                    0.0
                } else {
                    sp.dur_us as f64 * 100.0 / self.wall_us as f64
                };
                let outcome = if sp.finished {
                    sp.outcome.clone()
                } else {
                    "UNFINISHED".to_owned()
                };
                out.push(format!(
                    "  {:<44} {:>10} {:>6.1}%  {}",
                    truncate(&label, 44),
                    fmt_us(sp.dur_us),
                    share,
                    outcome
                ));
            }
        }
        let (hits, misses) = self
            .cache
            .values()
            .fold((0, 0), |acc, (h, m)| (acc.0 + h, acc.1 + m));
        if hits + misses > 0 {
            out.push(format!("  cache: {hits} hit(s), {misses} miss(es)"));
            for (level, (h, m)) in &self.cache {
                out.push(format!(
                    "    {:<42} {h} hit(s), {m} miss(es)",
                    truncate(level, 42)
                ));
            }
        }
        if self.tasks_skipped + self.tasks_poisoned > 0 {
            out.push(format!(
                "  tasks: {} skipped up-to-date, {} poisoned",
                self.tasks_skipped, self.tasks_poisoned
            ));
        }
        if self.warnings > 0 {
            out.push(format!("  warnings: {}", self.warnings));
        }
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_owned()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Args, Record};
    use std::path::PathBuf;

    fn args(pairs: &[(&str, &str)]) -> Args {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    fn rec(seq: u64, t_us: u64, kind: RecordKind) -> Record {
        Record {
            seq,
            t_us,
            tid: 1,
            kind,
        }
    }

    #[test]
    fn summarizes_spans_cache_and_coverage() {
        let journal = Journal {
            path: PathBuf::from("journal.jsonl"),
            records: vec![
                rec(
                    0,
                    0,
                    RecordKind::Run {
                        name: "build".into(),
                        args: args(&[("run_id", "r9"), ("workload", "demo")]),
                    },
                ),
                rec(
                    1,
                    0,
                    RecordKind::SpanStart {
                        id: 1,
                        parent: None,
                        name: "task".into(),
                        args: args(&[("task", "img:demo/0")]),
                    },
                ),
                rec(
                    2,
                    10,
                    RecordKind::Instant {
                        name: "cache".into(),
                        args: args(&[("level", "demo/0"), ("hit", "false")]),
                    },
                ),
                rec(
                    3,
                    80,
                    RecordKind::SpanEnd {
                        id: 1,
                        args: args(&[("outcome", "executed")]),
                    },
                ),
                rec(
                    4,
                    80,
                    RecordKind::SpanStart {
                        id: 2,
                        parent: None,
                        name: "sim".into(),
                        args: args(&[("job", "demo"), ("backend", "qemu")]),
                    },
                ),
                rec(
                    5,
                    100,
                    RecordKind::SpanEnd {
                        id: 2,
                        args: Args::new(),
                    },
                ),
                rec(
                    6,
                    100,
                    RecordKind::Instant {
                        name: "cache".into(),
                        args: args(&[("level", "demo/0"), ("hit", "true")]),
                    },
                ),
            ],
            torn: false,
            torn_detail: None,
        };
        let s = summarize(&journal);
        assert_eq!(s.run_id, "r9");
        assert_eq!(s.command, "build");
        assert_eq!(s.workload, "demo");
        assert_eq!(s.wall_us, 100);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[0].label, "img:demo/0");
        assert_eq!(s.spans[0].dur_us, 80);
        assert_eq!(s.spans[0].outcome, "executed");
        assert_eq!(s.spans[1].label, "demo");
        assert_eq!(s.cache["demo/0"], (1, 1));
        assert!((s.coverage_pct - 100.0).abs() < 1e-9, "{}", s.coverage_pct);
        let lines = s.render();
        assert!(lines[0].contains("run r9"));
        assert!(lines.iter().any(|l| l.contains("img:demo/0")));
        assert!(lines.iter().any(|l| l.contains("1 hit(s), 1 miss(es)")));
    }

    #[test]
    fn coverage_does_not_double_count_overlap() {
        let mut overlapping = vec![(0, 60), (30, 80)];
        assert!((coverage_pct(&mut overlapping, 100) - 80.0).abs() < 1e-9);
        let mut gap = vec![(0, 20), (80, 100)];
        assert!((coverage_pct(&mut gap, 100) - 40.0).abs() < 1e-9);
        assert!((coverage_pct(&mut [], 0) - 100.0).abs() < 1e-9);
    }
}
