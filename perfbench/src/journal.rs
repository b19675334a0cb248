//! Per-layer values read back from a traced iteration's run journal: the
//! spans and instants the program already records (`task`, `sim`,
//! `checkpoint-restore`, `blob.put`/`blob.get`, `cache`, checkpoint
//! hit/miss), plus the benchmark's own `bench.call` spans.

use std::collections::BTreeMap;

use marshal_trace::{Args, Journal, RecordKind};

struct Span<'a> {
    name: &'a str,
    tid: u64,
    t0: u64,
    t1: u64,
    start: &'a Args,
    end: Option<&'a Args>,
}

impl Span<'_> {
    fn ms(&self) -> f64 {
        (self.t1 - self.t0) as f64 / 1e3
    }

    fn arg(&self, key: &str) -> &str {
        self.start
            .get(key)
            .or_else(|| self.end.and_then(|a| a.get(key)))
            .map_or("", String::as_str)
    }
}

fn add(out: &mut BTreeMap<String, f64>, name: &str, v: f64) {
    *out.entry(name.to_owned()).or_default() += v;
}

fn num(args: &Args, key: &str) -> f64 {
    args.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// Adds the journal's per-layer values to `out`.
pub fn layer_values(journal: &Journal, out: &mut BTreeMap<String, f64>) {
    let mut ends = BTreeMap::new();
    for r in &journal.records {
        if let RecordKind::SpanEnd { id, args } = &r.kind {
            ends.insert(*id, (r.t_us, args));
        }
    }
    let mut spans = Vec::new();
    for r in &journal.records {
        match &r.kind {
            RecordKind::SpanStart { id, name, args, .. } => {
                let (t1, end) = ends
                    .get(id)
                    .map_or((journal.wall_us(), None), |(t, a)| (*t, Some(*a)));
                spans.push(Span {
                    name,
                    tid: r.tid,
                    t0: r.t_us,
                    t1: t1.max(r.t_us),
                    start: args,
                    end,
                });
            }
            RecordKind::Instant { name, args } => match name.as_str() {
                "blob.put" | "blob.get" => {
                    let layer = format!("image.blob_{}", &name[5..]);
                    add(out, &format!("{layer}.count"), 1.0);
                    add(out, &format!("{layer}.bytes"), num(args, "bytes"));
                }
                "cache" if args.get("hit").map(String::as_str) == Some("true") => {
                    add(out, "image.cache.hits", 1.0)
                }
                "cache" => add(out, "image.cache.misses", 1.0),
                "checkpoint-hit" => add(out, "core.checkpoint.hits", 1.0),
                "checkpoint-miss" => add(out, "core.checkpoint.misses", 1.0),
                _ => {}
            },
            _ => {}
        }
    }

    let mut tasks = Vec::new();
    for s in spans.iter().filter(|s| s.name == "task") {
        let kind = s.arg("task").split(':').next().unwrap_or("");
        add(out, &format!("depgraph.task_ms.{kind}"), s.ms());
        add(
            out,
            "depgraph.claim_wait_us",
            s.arg("claim_wait_us").parse().unwrap_or(0.0),
        );
        tasks.push((s.t0, s.t1));
    }
    add(out, "_task_union_ms", union_us(&mut tasks) as f64 / 1e3);

    let restores: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "checkpoint-restore")
        .collect();
    for s in &restores {
        add(out, "core.checkpoint.restore_ms", s.ms());
    }
    for s in spans.iter().filter(|s| s.name == "sim") {
        // Self time: the checkpoint load nested in the launch is its own layer.
        let nested: f64 = restores
            .iter()
            .filter(|r| r.tid == s.tid && r.t0 >= s.t0 && r.t1 <= s.t1)
            .map(|r| r.ms())
            .sum();
        let ms = s.ms() - nested;
        let insts: f64 = s.arg("instructions").parse().unwrap_or(0.0);
        let backend = s.arg("backend");
        add(out, &format!("sim_functional.run_ms.{backend}"), ms);
        add(out, "_sim_ms", ms);
        add(out, "_sim_insts", insts);
        if backend == "qemu" && s.arg("job").starts_with("intspeed.") {
            add(out, "_qemu_intspeed_ms", ms);
            add(out, "_qemu_intspeed_insts", insts);
        }
    }
    add(out, "trace.events", journal.records.len() as f64);
}

/// Microseconds covered by the union of the intervals.
fn union_us(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0, 0);
    for &(t0, t1) in intervals.iter() {
        let t0 = t0.max(cursor);
        if t1 > t0 {
            covered += t1 - t0;
            cursor = t1;
        }
    }
    covered
}

/// Derives the per-layer values that combine several flows' numbers, once
/// a round's samples are merged.
pub fn derive(v: &mut BTreeMap<String, f64>) {
    let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let untasked = get(v, "_build_wall_ms") - get(v, "_task_union_ms");
    v.insert("core.build.untasked_ms".into(), untasked);
    let per_inst = get(v, "_sim_ms") * 1e6 / get(v, "_sim_insts").max(1.0);
    v.insert("sim_functional.host_ns_per_inst".into(), per_inst);
    // 1 - (qemu ns/inst / rtl ns/inst) on the same intspeed binaries.
    let qemu = get(v, "_qemu_intspeed_ms") * 1e6 / get(v, "_qemu_intspeed_insts").max(1.0);
    let rtl =
        (get(v, "sim_rtl.host_ns_per_inst.gshare") + get(v, "sim_rtl.host_ns_per_inst.tage")) / 2.0;
    if rtl > 0.0 {
        v.insert("sim_rtl.timing_model_share".into(), 1.0 - qemu / rtl);
    }
}
