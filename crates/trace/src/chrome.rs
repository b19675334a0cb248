//! Chrome trace-event export: turns a journal into JSON that
//! `chrome://tracing` and Perfetto load directly.
//!
//! Spans become complete (`"ph":"X"`) events — matched start/end pairs by
//! span id — instants become `"ph":"i"`, counters `"ph":"C"`. A span left
//! open by a crash is emitted with the journal's last timestamp as its end
//! and an `unfinished` arg, so torn runs still render. Output is
//! deterministic for a given journal (golden-file tested).

use std::collections::BTreeMap;

use crate::journal::Journal;
use crate::json::Json;
use crate::record::{Args, RecordKind};

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn args_json(args: &Args) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

/// Renders the journal as a Chrome / Perfetto trace JSON document.
pub fn chrome_trace(journal: &Journal) -> String {
    let mut events: Vec<Json> = Vec::new();
    let process_name = match journal.records.first().map(|r| &r.kind) {
        Some(RecordKind::Run { name, args }) => {
            let run_id = args.get("run_id").map(String::as_str).unwrap_or("?");
            format!("marshal {name} ({run_id})")
        }
        _ => "marshal".to_owned(),
    };
    events.push(obj(vec![
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(0)),
        ("args", obj(vec![("name", Json::Str(process_name))])),
    ]));

    // First pass: where every span ends (and with which closing args).
    let mut ends: BTreeMap<u64, (u64, &Args)> = BTreeMap::new();
    for rec in &journal.records {
        if let RecordKind::SpanEnd { id, args } = &rec.kind {
            ends.entry(*id).or_insert((rec.t_us, args));
        }
    }
    let last_t = journal.wall_us();
    static EMPTY: Args = Args::new();

    for rec in &journal.records {
        match &rec.kind {
            RecordKind::Run { .. } | RecordKind::SpanEnd { .. } => {}
            RecordKind::SpanStart { id, name, args, .. } => {
                let (end_t, end_args, finished) = match ends.get(id) {
                    Some((t, a)) => (*t, *a, true),
                    None => (last_t, &EMPTY, false),
                };
                let mut merged = args.clone();
                for (k, v) in end_args {
                    merged.insert(k.clone(), v.clone());
                }
                if !finished {
                    merged.insert("unfinished".to_owned(), "true".to_owned());
                }
                events.push(obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("cat", Json::Str("marshal".into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Int(rec.t_us as i64)),
                    ("dur", Json::Int(end_t.saturating_sub(rec.t_us) as i64)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(rec.tid as i64)),
                    ("args", args_json(&merged)),
                ]));
            }
            RecordKind::Instant { name, args } => {
                events.push(obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("cat", Json::Str("marshal".into())),
                    ("ph", Json::Str("i".into())),
                    ("s", Json::Str("t".into())),
                    ("ts", Json::Int(rec.t_us as i64)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(rec.tid as i64)),
                    ("args", args_json(args)),
                ]));
            }
            RecordKind::Counter { name, value } => {
                events.push(obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("ph", Json::Str("C".into())),
                    ("ts", Json::Int(rec.t_us as i64)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(rec.tid as i64)),
                    ("args", obj(vec![("value", Json::Int(*value))])),
                ]));
            }
        }
    }
    obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use std::path::PathBuf;

    fn journal_from(records: Vec<Record>) -> Journal {
        Journal {
            path: PathBuf::from("journal.jsonl"),
            records,
            torn: false,
            torn_detail: None,
        }
    }

    fn args(pairs: &[(&str, &str)]) -> Args {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    #[test]
    fn spans_become_complete_events() {
        let j = journal_from(vec![
            Record {
                seq: 0,
                t_us: 0,
                tid: 1,
                kind: RecordKind::Run {
                    name: "build".into(),
                    args: args(&[("run_id", "r1")]),
                },
            },
            Record {
                seq: 1,
                t_us: 10,
                tid: 1,
                kind: RecordKind::SpanStart {
                    id: 1,
                    parent: None,
                    name: "task".into(),
                    args: args(&[("task", "a")]),
                },
            },
            Record {
                seq: 2,
                t_us: 60,
                tid: 1,
                kind: RecordKind::SpanEnd {
                    id: 1,
                    args: args(&[("outcome", "executed")]),
                },
            },
            Record {
                seq: 3,
                t_us: 70,
                tid: 2,
                kind: RecordKind::SpanStart {
                    id: 2,
                    parent: None,
                    name: "sim".into(),
                    args: Args::new(),
                },
            },
        ]);
        let text = chrome_trace(&j);
        let v = Json::parse(&text).unwrap();
        let Some(Json::Arr(events)) = v.get("traceEvents") else {
            panic!("traceEvents array");
        };
        assert_eq!(events.len(), 3, "metadata + 2 spans");
        let task = &events[1];
        assert_eq!(task.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(task.get("ts").unwrap().as_u64(), Some(10));
        assert_eq!(task.get("dur").unwrap().as_u64(), Some(50));
        assert_eq!(
            task.get("args").unwrap().get("outcome").unwrap().as_str(),
            Some("executed"),
            "end args merged into the complete event"
        );
        // The unclosed span is clamped to the journal's end and flagged.
        let sim = &events[2];
        assert_eq!(sim.get("dur").unwrap().as_u64(), Some(0));
        assert_eq!(
            sim.get("args").unwrap().get("unfinished").unwrap().as_str(),
            Some("true")
        );
    }
}
