//! Timeline exporters: canonical JSONL and Chrome `trace_event` JSON.
//!
//! Both exporters consume a [`Snapshot`] plus a stable-sorted event stream
//! and serialize through the canonical [`Json`] encoder, so the output is
//! whitespace-free and byte-identical whenever the inputs are equal — the
//! CI determinism jobs diff these bytes between two runs of each source.
//!
//! All timestamps are *logical* time (the run clock), not wall-clock; a
//! Chrome trace of a run is a picture of the schedule, not of the host.

use crate::json::Json;
use crate::metrics::Snapshot;
use crate::span::{EventKind, ObsEvent};

fn event_json(ev: &ObsEvent) -> Json {
    let mut fields = vec![
        ("t".into(), Json::Num(ev.time)),
        ("pid".into(), Json::Num(u64::from(ev.pid))),
        ("seq".into(), Json::Num(u64::from(ev.seq))),
        ("kind".into(), Json::Str(ev.kind.name().into())),
    ];
    match ev.kind {
        EventKind::Step { op, decided } => {
            fields.push(("op".into(), Json::Str(op.to_string())));
            if decided {
                fields.push(("decided".into(), Json::Bool(true)));
            }
        }
        EventKind::Span { kind, dur } => {
            fields.push(("span".into(), Json::Str(kind.name().into())));
            fields.push(("dur".into(), Json::Num(dur)));
        }
        _ => {}
    }
    Json::Obj(fields)
}

/// Serializes a snapshot and event stream as JSONL: the first line is the
/// snapshot, each following line one event in stable `(time, pid, seq)`
/// order. Events must already be sorted (use `MetricsHandle::events`).
pub fn to_jsonl(snapshot: &Snapshot, events: &[ObsEvent]) -> String {
    let mut out = snapshot.to_json().to_string();
    for ev in events {
        out.push('\n');
        out.push_str(&event_json(ev).to_string());
    }
    out.push('\n');
    out
}

/// Serializes an event stream as Chrome `trace_event` JSON
/// (`{"traceEvents":[...]}` — loadable in chrome://tracing and Perfetto).
///
/// Spans become complete events (`ph:"X"`, `ts` = start, `dur` = logical
/// duration); everything else becomes an instant (`ph:"i"`, thread scope).
/// `pid` is 0 (one logical "process" per run), `tid` is the model pid, so
/// each process gets its own track. Events must already be stable-sorted.
pub fn to_chrome(events: &[ObsEvent]) -> String {
    let items = events
        .iter()
        .map(|ev| {
            let mut fields: Vec<(String, Json)> = Vec::new();
            match ev.kind {
                EventKind::Span { kind, dur } => {
                    fields.push(("name".into(), Json::Str(kind.name().into())));
                    fields.push(("ph".into(), Json::Str("X".into())));
                    fields.push(("ts".into(), Json::Num(ev.time)));
                    fields.push(("dur".into(), Json::Num(dur)));
                }
                EventKind::Step { op, decided } => {
                    let name = if decided {
                        format!("decide {op}")
                    } else {
                        format!("step {op}")
                    };
                    fields.push(("name".into(), Json::Str(name)));
                    fields.push(("ph".into(), Json::Str("i".into())));
                    fields.push(("ts".into(), Json::Num(ev.time)));
                    fields.push(("s".into(), Json::Str("t".into())));
                }
                _ => {
                    fields.push(("name".into(), Json::Str(ev.kind.name().into())));
                    fields.push(("ph".into(), Json::Str("i".into())));
                    fields.push(("ts".into(), Json::Num(ev.time)));
                    fields.push(("s".into(), Json::Str("t".into())));
                }
            }
            fields.push(("pid".into(), Json::Num(0)));
            fields.push(("tid".into(), Json::Num(u64::from(ev.pid))));
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![("traceEvents".into(), Json::Arr(items))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsHandle;
    use crate::span::{seq, Op, SpanKind};

    fn sample() -> (Snapshot, Vec<ObsEvent>) {
        let h = MetricsHandle::with_events(16);
        h.bump(crate::metrics::Counter::EffectiveSteps);
        h.record(ObsEvent {
            time: 0,
            pid: 1,
            seq: seq::STEP,
            kind: EventKind::Step { op: Op::Write { ns: 2, a: 1, b: 0 }, decided: false },
        });
        h.record(ObsEvent { time: 1, pid: 3, seq: seq::FD_QUERY, kind: EventKind::FdQuery });
        h.record(ObsEvent {
            time: 0,
            pid: 0,
            seq: seq::OUTCOME,
            kind: EventKind::Span { kind: SpanKind::Run, dur: 2 },
        });
        (h.snapshot().unwrap(), h.events())
    }

    #[test]
    fn jsonl_lines_parse_and_lead_with_the_snapshot() {
        let (snap, events) = sample();
        let out = to_jsonl(&snap, &events);
        let lines: Vec<&str> = out.trim_end().lines().collect();
        assert_eq!(lines.len(), 1 + events.len());
        let first = Json::parse(lines[0]).unwrap();
        assert!(first.get("counters").is_some());
        for line in &lines[1..] {
            let v = Json::parse(line).unwrap();
            assert!(v.get("kind").is_some());
        }
        // Stable order: the span at (0, 0, OUTCOME) precedes the step at (0, 1, STEP).
        assert_eq!(Json::parse(lines[1]).unwrap().get("kind").unwrap().str(), Some("span"));
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let (_, events) = sample();
        let out = to_chrome(&events);
        let v = Json::parse(&out).unwrap();
        let items = v.get("traceEvents").unwrap().arr().unwrap();
        assert_eq!(items.len(), events.len());
        let span = items.iter().find(|e| e.get("ph").unwrap().str() == Some("X")).unwrap();
        assert_eq!(span.get("dur").unwrap().num(), Some(2));
        let instant = items.iter().find(|e| e.get("ph").unwrap().str() == Some("i")).unwrap();
        assert!(instant.get("ts").is_some());
    }

    #[test]
    fn equal_inputs_export_equal_bytes() {
        let (snap_a, ev_a) = sample();
        let (snap_b, ev_b) = sample();
        assert_eq!(to_jsonl(&snap_a, &ev_a), to_jsonl(&snap_b, &ev_b));
        assert_eq!(to_chrome(&ev_a), to_chrome(&ev_b));
    }
}
