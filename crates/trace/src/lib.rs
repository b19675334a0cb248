//! # marshal-trace
//!
//! The observability layer of the FireMarshal reproduction: every `marshal`
//! command can record what it did — spans with monotonic timestamps, typed
//! instants, and counters — into an append-only, per-line-checksummed JSONL
//! journal under `workdir/runs/<run-id>/journal.jsonl`.
//!
//! The journal follows the same torn-tail discipline as `state.db`: a run
//! that dies mid-build leaves a parseable prefix (every surviving line is
//! individually checksummed, and the reader stops at the first torn line),
//! so the journal doubles as the crash-forensics record.
//!
//! This crate sits at the bottom of the workspace — `marshal-depgraph`
//! and `marshal-core` both emit through the same [`Recorder`], which is a
//! cheap clonable handle: disabled recorders are a single `Option` check
//! on the hot path (no channel send, no allocation), enabled ones push
//! events over an mpsc channel to a dedicated writer thread so recording
//! never blocks builders on I/O.
//!
//! It also hosts the workspace's one JSON codec, [`Json`]: the parser
//! behind journal lines, the Chrome export, workload specs and install
//! manifests, and the writer of all but journal lines. The parser builds
//! any [`JsonTree`]; `marshal-config` parses straight into its own `Value`
//! that way. Beside it sits the one binary codec, [`bytes`]: the
//! bounds-checked [`bytes::Reader`] every little-endian artifact format
//! decodes through, and the matching [`bytes::Writer`]. And it reads the
//! one CPU-time clock, [`cpu_ns`], that `task` spans and the benches
//! record on-CPU time with. The crate has no dependencies, so any crate
//! can use it — `marshal-isa` included.

#![warn(missing_docs)]

pub mod bytes;
mod chrome;
mod clock;
mod journal;
mod json;
mod record;
mod recorder;
mod summary;

pub use chrome::chrome_trace;
pub use clock::{cpu_ns, CpuClock};
pub use journal::{list_runs, read_journal, Journal, RunInfo};
pub use json::{parse_json, Json, JsonTree, ParseError};
pub use record::{checksum_line, seal_line, Args, Record, RecordKind};
pub use recorder::{FinishedRun, Recorder, Span};
pub use summary::{summarize, RunSummary, SpanStat};
