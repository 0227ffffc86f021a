//! Deterministic observability for the EFD model.
//!
//! The literature this repository reproduces *measures* models by counting
//! oracle interactions — failure-detector queries, advice reads, simulated
//! steps — so this crate makes those counts first-class. Three layers:
//!
//! * [`metrics`] — a registry of counters and log-scale histograms that is
//!   zero-cost when disabled ([`metrics::MetricsHandle::disabled`] is a
//!   single branch per call) and reads out as a canonical, deterministic
//!   snapshot;
//! * [`span`] — typed spans and events in a bounded ring with the stable
//!   ordering key `(logical_time, pid, seq)`, generalizing the kernel's
//!   step trace; [`span::Op`] is the single step formatter in the tree;
//! * [`export`] — canonical JSONL and Chrome `trace_event` exporters whose
//!   output is byte-identical for identical runs (CI diffs two exports of
//!   each source), plus [`span::timeline`]'s ASCII space-time diagram.
//!
//! [`local`] carries the current handle through a thread-local so automata
//! (which must stay `Clone + Hash` for the kernel's `DynProcess`) can record
//! without holding a handle, and buffers their counter adds per thread
//! until the context ends or a handle is read; [`json`] is the workspace's one canonical JSON
//! encoder, hoisted from `wfa-faults` (which re-exports it).
//!
//! This crate is deliberately dependency-free and sits at the bottom of the
//! workspace graph: every other crate may instrument through it.

#![deny(missing_docs)]

pub mod export;
pub mod json;
pub mod local;
pub mod metrics;
pub mod span;

/// Everything an instrumenting crate usually needs.
pub mod prelude {
    pub use crate::export::{to_chrome, to_jsonl};
    pub use crate::json::Json;
    pub use crate::metrics::{Counter, HistKind, MetricsHandle, Snapshot};
    pub use crate::span::{seq, timeline, EventKind, ObsEvent, Op, SpanKind};
}
