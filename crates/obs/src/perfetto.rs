//! The Chrome-trace / Perfetto JSON exporter and its reader, plus the
//! span arithmetic used to cross-check a timeline against simulator
//! statistics.
//!
//! Output format: the JSON object form of the [Trace Event Format] —
//! `{"displayTimeUnit":"ms","traceEvents":[...]}` — loadable by both
//! `chrome://tracing` and [ui.perfetto.dev]. One process (`pid`) per
//! device plus the control process; each process has one thread per
//! [`Track`]. Spans are `"X"` complete events, instants are `"i"`, flow
//! arrows are `"s"`/`"f"` pairs, and process/thread names are `"M"`
//! metadata records. One event is written per line.
//!
//! The export is also the one trace file `micco certify` reads back:
//! [`from_perfetto_json`] inverts [`to_perfetto_json`]. Timestamps are
//! written in Rust's shortest round-trip form, so they come back bit for
//! bit; what does not survive the trip is record order *within* an event
//! (args return sorted by key) and the placement of
//! [`TraceEvent::ProcessLabel`]s (they return as one label per used pid,
//! ahead of everything else).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write as _};

use micco_gpusim::ExecStats;

use crate::json::{JsonError, Value};
use crate::span::{FlowPoint, TraceEvent, Track, CONTROL_PID};

/// `s` as a JSON string literal (with the quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::json::write_string(s, &mut out);
    out
}

/// Render `v` as a JSON number (non-finite values become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn json_args(args: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(k), json_string(v));
    }
    out.push('}');
    out
}

/// Render an event log as Perfetto-loadable Chrome-trace JSON.
///
/// Process/thread name metadata is synthesized from the pids and tracks
/// actually used; [`TraceEvent::ProcessLabel`] events override the default
/// process names (`gpu{pid}`, or `control` for [`CONTROL_PID`]).
pub fn to_perfetto_json(events: &[TraceEvent]) -> String {
    // Which (pid, track) lanes exist, and what each pid is called.
    let mut labels: BTreeMap<u32, String> = BTreeMap::new();
    let mut lanes: BTreeSet<(u32, Track)> = BTreeSet::new();
    for e in events {
        match e {
            TraceEvent::Span { pid, track, .. } | TraceEvent::Instant { pid, track, .. } => {
                lanes.insert((*pid, *track));
            }
            TraceEvent::Flow { from, to, .. } => {
                lanes.insert((from.pid, from.track));
                lanes.insert((to.pid, to.track));
            }
            TraceEvent::ProcessLabel { pid, label } => {
                labels.insert(*pid, label.clone());
            }
        }
    }

    let mut entries: Vec<String> = Vec::new();
    for pid in lanes.iter().map(|(p, _)| *p).collect::<BTreeSet<u32>>() {
        let label = labels.get(&pid).cloned().unwrap_or_else(|| {
            if pid == CONTROL_PID {
                "control".to_owned()
            } else {
                format!("gpu{pid}")
            }
        });
        entries.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":{}}}}}",
            json_string(&label)
        ));
    }
    for (pid, track) in &lanes {
        entries.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":{}}}}}",
            track.tid(),
            json_string(track.label())
        ));
    }

    for e in events {
        match e {
            TraceEvent::Span {
                pid,
                track,
                name,
                start_us,
                dur_us,
                args,
            } => {
                entries.push(format!(
                    "{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{}}}",
                    json_string(name),
                    json_string(track.label()),
                    track.tid(),
                    json_f64(*start_us),
                    json_f64(*dur_us),
                    json_args(args)
                ));
            }
            TraceEvent::Instant {
                pid,
                track,
                name,
                ts_us,
                args,
            } => {
                entries.push(format!(
                    "{{\"ph\":\"i\",\"name\":{},\"cat\":{},\"s\":\"t\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"args\":{}}}",
                    json_string(name),
                    json_string(track.label()),
                    track.tid(),
                    json_f64(*ts_us),
                    json_args(args)
                ));
            }
            TraceEvent::Flow { id, name, from, to } => {
                entries.push(format!(
                    "{{\"ph\":\"s\",\"name\":{},\"cat\":\"flow\",\"id\":{id},\"pid\":{},\"tid\":{},\"ts\":{}}}",
                    json_string(name),
                    from.pid,
                    from.track.tid(),
                    json_f64(from.ts_us)
                ));
                entries.push(format!(
                    "{{\"ph\":\"f\",\"name\":{},\"cat\":\"flow\",\"bp\":\"e\",\"id\":{id},\"pid\":{},\"tid\":{},\"ts\":{}}}",
                    json_string(name),
                    to.pid,
                    to.track.tid(),
                    json_f64(to.ts_us)
                ));
            }
            TraceEvent::ProcessLabel { .. } => {}
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(entry);
    }
    out.push_str("\n]}\n");
    out
}

/// Why a trace file failed to load in [`from_perfetto_json`]. The first
/// `usize` of a variant is the offending record's index in `traceEvents`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfettoError {
    /// The text is not JSON.
    Json(JsonError),
    /// The document has no `traceEvents` array.
    NoEvents,
    /// The record lacks the named field or holds it with the wrong type
    /// (`args` when an arg value is not a string).
    Field(usize, &'static str),
    /// The record's `ph` is not one the exporter writes.
    UnknownPhase(usize, String),
    /// The record's `tid` names no [`Track`].
    UnknownTid(usize, u64),
    /// The record's `pid` does not fit a `u32`.
    PidRange(usize, u64),
    /// The record's named time field (`ts` or `dur`) is not finite.
    NonFinite(usize, &'static str),
    /// The record starts a flow whose id is still open.
    DuplicateFlowStart(usize, u64),
    /// The record finishes a flow id that has no open start.
    FinishWithoutStart(usize, u64),
    /// The record starts a flow that no record finishes.
    UnfinishedFlow(usize, u64),
}

impl fmt::Display for PerfettoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfettoError::Json(e) => write!(f, "not a trace: {e}"),
            PerfettoError::NoEvents => write!(f, "no `traceEvents` array"),
            PerfettoError::Field(i, field) => write!(f, "event {i}: missing or mistyped `{field}`"),
            PerfettoError::UnknownPhase(i, ph) => write!(f, "event {i}: unknown phase `{ph}`"),
            PerfettoError::UnknownTid(i, tid) => write!(f, "event {i}: unknown track tid {tid}"),
            PerfettoError::PidRange(i, pid) => write!(f, "event {i}: pid {pid} exceeds 32 bits"),
            PerfettoError::NonFinite(i, field) => write!(f, "event {i}: `{field}` is not finite"),
            PerfettoError::DuplicateFlowStart(i, id) => {
                write!(f, "event {i}: flow {id} starts again before it finished")
            }
            PerfettoError::FinishWithoutStart(i, id) => {
                write!(f, "event {i}: flow {id} finishes without a start")
            }
            PerfettoError::UnfinishedFlow(i, id) => {
                write!(f, "event {i}: flow {id} never finishes")
            }
        }
    }
}

impl std::error::Error for PerfettoError {}

/// One `traceEvents` record, read field by field.
struct Record<'a> {
    index: usize,
    value: &'a Value,
}

impl<'a> Record<'a> {
    fn get<T>(
        &self,
        field: &'static str,
        as_: fn(&'a Value) -> Option<T>,
    ) -> Result<T, PerfettoError> {
        self.value
            .get(field)
            .and_then(as_)
            .ok_or(PerfettoError::Field(self.index, field))
    }

    fn name(&self) -> Result<String, PerfettoError> {
        self.get("name", Value::as_str).map(str::to_owned)
    }

    fn time(&self, field: &'static str) -> Result<f64, PerfettoError> {
        let t = self.get(field, Value::as_f64)?;
        if t.is_finite() {
            Ok(t)
        } else {
            Err(PerfettoError::NonFinite(self.index, field))
        }
    }

    fn pid(&self) -> Result<u32, PerfettoError> {
        let pid = self.get("pid", Value::as_u64)?;
        u32::try_from(pid).map_err(|_| PerfettoError::PidRange(self.index, pid))
    }

    /// The record's `pid`, track (the [`Track`] whose tid is its `tid`)
    /// and `ts`.
    fn point(&self) -> Result<FlowPoint, PerfettoError> {
        let pid = self.pid()?;
        let tid = self.get("tid", Value::as_u64)?;
        let track = Track::ALL
            .into_iter()
            .find(|t| u64::from(t.tid()) == tid)
            .ok_or(PerfettoError::UnknownTid(self.index, tid))?;
        let ts_us = self.time("ts")?;
        Ok(FlowPoint { pid, track, ts_us })
    }

    /// The `args` object as `(key, value)` pairs, in key order.
    fn args(&self) -> Result<Vec<(String, String)>, PerfettoError> {
        let args = self.get("args", Value::as_obj)?;
        args.iter()
            .map(|(k, v)| match v.as_str() {
                Some(v) => Ok((k.clone(), v.to_owned())),
                None => Err(PerfettoError::Field(self.index, "args")),
            })
            .collect()
    }
}

/// Read a trace written by [`to_perfetto_json`] back into its event log.
///
/// `X` records become [`TraceEvent::Span`]s and `i` records
/// [`TraceEvent::Instant`]s; an `s`/`f` pair with one `id` becomes one
/// [`TraceEvent::Flow`] at the start's position; an `M process_name`
/// record becomes a [`TraceEvent::ProcessLabel`], and other `M` records
/// are skipped. Fields the reader does not need (`cat`, `s`, `bp`) are
/// ignored.
///
/// For any log `e` of finite timestamps, reading `to_perfetto_json(e)`
/// gives `e` back once `ProcessLabel`s are set aside and args are sorted
/// by key.
///
/// # Errors
///
/// A [`PerfettoError`] naming the first offending record. The reader
/// never panics, whatever the input.
pub fn from_perfetto_json(text: &str) -> Result<Vec<TraceEvent>, PerfettoError> {
    let doc = Value::parse(text).map_err(PerfettoError::Json)?;
    let records = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or(PerfettoError::NoEvents)?;
    let mut events = Vec::with_capacity(records.len());
    // open flow id → (index of its start record, its slot in `events`)
    let mut open: HashMap<u64, (usize, usize)> = HashMap::new();
    for (index, value) in records.iter().enumerate() {
        let r = Record { index, value };
        match r.get("ph", Value::as_str)? {
            "X" => {
                let at = r.point()?;
                events.push(TraceEvent::Span {
                    pid: at.pid,
                    track: at.track,
                    name: r.name()?,
                    start_us: at.ts_us,
                    dur_us: r.time("dur")?,
                    args: r.args()?,
                });
            }
            "i" => {
                let at = r.point()?;
                events.push(TraceEvent::Instant {
                    pid: at.pid,
                    track: at.track,
                    name: r.name()?,
                    ts_us: at.ts_us,
                    args: r.args()?,
                });
            }
            "s" => {
                let (id, name, from) = (r.get("id", Value::as_u64)?, r.name()?, r.point()?);
                if open.insert(id, (index, events.len())).is_some() {
                    return Err(PerfettoError::DuplicateFlowStart(index, id));
                }
                // the head is filled in by the matching finish
                events.push(TraceEvent::Flow {
                    id,
                    name,
                    from,
                    to: from,
                });
            }
            "f" => {
                let (id, head) = (r.get("id", Value::as_u64)?, r.point()?);
                let (_, slot) = open
                    .remove(&id)
                    .ok_or(PerfettoError::FinishWithoutStart(index, id))?;
                if let TraceEvent::Flow { to, .. } = &mut events[slot] {
                    *to = head;
                }
            }
            "M" => {
                if r.get("name", Value::as_str)? == "process_name" {
                    let label = r
                        .get("args", |a| a.get("name").and_then(Value::as_str))?
                        .to_owned();
                    events.push(TraceEvent::ProcessLabel {
                        pid: r.pid()?,
                        label,
                    });
                }
            }
            ph => return Err(PerfettoError::UnknownPhase(index, ph.to_owned())),
        }
    }
    match open.into_iter().map(|(id, (index, _))| (index, id)).min() {
        Some((index, id)) => Err(PerfettoError::UnfinishedFlow(index, id)),
        None => Ok(events),
    }
}

/// Sum span durations per `(pid, track)` lane, in **seconds**.
pub fn span_track_totals(events: &[TraceEvent]) -> BTreeMap<(u32, Track), f64> {
    let mut totals: BTreeMap<(u32, Track), f64> = BTreeMap::new();
    for e in events {
        if let TraceEvent::Span {
            pid, track, dur_us, ..
        } = e
        {
            *totals.entry((*pid, *track)).or_insert(0.0) += dur_us / 1e6;
        }
    }
    totals
}

/// Check that the timeline's per-device span totals reconstruct the
/// simulator's accounting: for each device `g`, the compute-track spans of
/// pid `g` must sum to `stats.per_gpu[g].compute_secs` and the
/// copy-track spans to `stats.per_gpu[g].memory_secs`, within `tol`
/// seconds. Returns a description of the first mismatch.
pub fn reconcile_with_stats(
    events: &[TraceEvent],
    stats: &ExecStats,
    tol: f64,
) -> Result<(), String> {
    let totals = span_track_totals(events);
    for (g, s) in stats.per_gpu.iter().enumerate() {
        let pid = g as u32;
        let compute = totals.get(&(pid, Track::Compute)).copied().unwrap_or(0.0);
        let copy = totals.get(&(pid, Track::Copy)).copied().unwrap_or(0.0);
        if (compute - s.compute_secs).abs() > tol {
            return Err(format!(
                "gpu{g}: compute spans sum to {compute} s but stats say {} s",
                s.compute_secs
            ));
        }
        if (copy - s.memory_secs).abs() > tol {
            return Err(format!(
                "gpu{g}: copy spans sum to {copy} s but stats say {} s",
                s.memory_secs
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::FlowPoint;

    fn span(pid: u32, track: Track, name: &str, start_us: f64, dur_us: f64) -> TraceEvent {
        TraceEvent::Span {
            pid,
            track,
            name: name.into(),
            start_us,
            dur_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn export_emits_metadata_spans_and_flows() {
        let events = vec![
            TraceEvent::ProcessLabel {
                pid: 0,
                label: "gpu0".into(),
            },
            span(0, Track::Compute, "task 0", 0.0, 10.0),
            TraceEvent::Instant {
                pid: 0,
                track: Track::Copy,
                name: "evict t3".into(),
                ts_us: 5.0,
                args: vec![("bytes".into(), "1024".into())],
            },
            TraceEvent::Flow {
                id: 42,
                name: "d2d t7".into(),
                from: FlowPoint {
                    pid: 0,
                    track: Track::Copy,
                    ts_us: 1.0,
                },
                to: FlowPoint {
                    pid: 1,
                    track: Track::Copy,
                    ts_us: 2.0,
                },
            },
        ];
        let json = to_perfetto_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"gpu0\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"id\":42"));
        // pid 1 appears only as a flow head but still gets named
        assert!(json.contains("\"name\":\"gpu1\""));
    }

    /// One of each event kind, with hostile names and args in key order.
    fn sample() -> Vec<TraceEvent> {
        vec![
            span(0, Track::Compute, "task 3", 0.1234567890123, 17.25),
            TraceEvent::Span {
                pid: 3,
                track: Track::Link,
                name: "tab\there \"quoted\" \\ \u{1} é".into(),
                start_us: -0.0,
                dur_us: f64::MAX,
                args: vec![
                    ("k\te\ny".into(), "v\\al\tue".into()),
                    ("plain".into(), "1024".into()),
                ],
            },
            TraceEvent::Instant {
                pid: 1,
                track: Track::Copy,
                name: "evict t7".into(),
                ts_us: 2.5e-7,
                args: vec![
                    ("bytes".into(), "65536".into()),
                    ("writeback".into(), "true".into()),
                ],
            },
            TraceEvent::Flow {
                id: (7u64 << 32) | 3,
                name: "d2d t9".into(),
                from: FlowPoint {
                    pid: 0,
                    track: Track::Copy,
                    ts_us: 1.0,
                },
                to: FlowPoint {
                    pid: 1,
                    track: Track::Control,
                    ts_us: 1.0000000001,
                },
            },
            span(CONTROL_PID, Track::Run, "run micco(0,2,0)", 0.0, 99.0),
        ]
    }

    #[test]
    fn reader_inverts_the_export() {
        let events = sample();
        let read = from_perfetto_json(&to_perfetto_json(&events)).expect("reads back");
        let (labels, rest): (Vec<_>, Vec<_>) = read
            .into_iter()
            .partition(|e| matches!(e, TraceEvent::ProcessLabel { .. }));
        assert_eq!(rest, events);
        // one default label per used pid, in pid order
        let pids: Vec<u32> = labels.iter().map(TraceEvent::pid).collect();
        assert_eq!(pids, [0, 1, 3, CONTROL_PID]);
        // an explicit label wins over the default and comes back
        let mut labelled = events.clone();
        labelled.push(TraceEvent::ProcessLabel {
            pid: 1,
            label: "node0/gpu1".into(),
        });
        let read = from_perfetto_json(&to_perfetto_json(&labelled)).expect("reads back");
        assert!(read.contains(&TraceEvent::ProcessLabel {
            pid: 1,
            label: "node0/gpu1".into()
        }));
    }

    #[test]
    fn timestamps_come_back_bit_for_bit() {
        let stamps = [
            1.0 / 3.0 * 1e6,
            f64::MIN_POSITIVE,
            5e-324,
            123456789.000001,
            0.1 + 0.2,
            -0.0,
            f64::MAX,
        ];
        for t in stamps {
            let events = vec![span(0, Track::Control, "x", t, t.abs())];
            let read = from_perfetto_json(&to_perfetto_json(&events)).expect("reads back");
            match read.last() {
                Some(TraceEvent::Span {
                    start_us, dur_us, ..
                }) => {
                    assert_eq!(start_us.to_bits(), t.to_bits(), "{t} not bit-exact");
                    assert_eq!(dur_us.to_bits(), t.abs().to_bits());
                }
                other => panic!("wrong event {other:?}"),
            }
        }
    }

    #[test]
    fn args_come_back_in_key_order() {
        let mut events = vec![TraceEvent::Instant {
            pid: 0,
            track: Track::Copy,
            name: "xfer".into(),
            ts_us: 1.0,
            args: vec![
                ("class".into(), "nv".into()),
                ("bytes".into(), "8".into()),
                ("flow".into(), "0".into()),
            ],
        }];
        let read = from_perfetto_json(&to_perfetto_json(&events)).expect("reads back");
        if let TraceEvent::Instant { args, .. } = &mut events[0] {
            args.sort();
        }
        assert_eq!(read[1..], events[..]);
    }

    #[test]
    fn empty_log_reads_back_empty() {
        assert_eq!(from_perfetto_json(&to_perfetto_json(&[])), Ok(Vec::new()));
    }

    /// The document wrapping `records`, one per line as the export writes.
    fn doc(records: &[&str]) -> String {
        format!("{{\"traceEvents\":[{}]}}", records.join(",\n"))
    }

    const X: &str = r#"{"ph":"X","name":"task 0","pid":0,"tid":0,"ts":0,"dur":1,"args":{}}"#;
    const S: &str = r#"{"ph":"s","name":"d2d","id":5,"pid":0,"tid":1,"ts":0}"#;
    const F: &str = r#"{"ph":"f","name":"d2d","id":5,"pid":1,"tid":1,"ts":1}"#;

    #[test]
    fn malformed_json_is_a_json_error() {
        assert!(matches!(
            from_perfetto_json("{\"traceEvents\":["),
            Err(PerfettoError::Json(_))
        ));
        assert!(matches!(
            from_perfetto_json(""),
            Err(PerfettoError::Json(_))
        ));
    }

    #[test]
    fn a_document_without_trace_events_is_refused() {
        for text in ["{}", "[]", r#"{"traceEvents":{}}"#, "3"] {
            assert_eq!(
                from_perfetto_json(text),
                Err(PerfettoError::NoEvents),
                "{text}"
            );
        }
    }

    #[test]
    fn a_missing_field_names_its_record() {
        let no_dur = r#"{"ph":"X","name":"t","pid":0,"tid":0,"ts":0,"args":{}}"#;
        assert_eq!(
            from_perfetto_json(&doc(&[X, no_dur])),
            Err(PerfettoError::Field(1, "dur"))
        );
        let not_an_object = doc(&["7"]);
        assert_eq!(
            from_perfetto_json(&not_an_object),
            Err(PerfettoError::Field(0, "ph"))
        );
        let no_label = r#"{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{}}"#;
        assert_eq!(
            from_perfetto_json(&doc(&[no_label])),
            Err(PerfettoError::Field(0, "args"))
        );
    }

    #[test]
    fn a_mistyped_field_names_its_record() {
        let cases = [
            (
                r#"{"ph":"X","name":7,"pid":0,"tid":0,"ts":0,"dur":1,"args":{}}"#,
                "name",
            ),
            (
                r#"{"ph":"X","name":"t","pid":-1,"tid":0,"ts":0,"dur":1,"args":{}}"#,
                "pid",
            ),
            (
                r#"{"ph":"X","name":"t","pid":0,"tid":0.5,"ts":0,"dur":1,"args":{}}"#,
                "tid",
            ),
            (
                r#"{"ph":"X","name":"t","pid":0,"tid":0,"ts":"0","dur":1,"args":{}}"#,
                "ts",
            ),
            (
                r#"{"ph":"i","name":"t","pid":0,"tid":0,"ts":0,"args":{"k":1}}"#,
                "args",
            ),
            (
                r#"{"ph":"i","name":"t","pid":0,"tid":0,"ts":0,"args":[]}"#,
                "args",
            ),
            (
                r#"{"ph":"s","name":"d","id":1.5,"pid":0,"tid":1,"ts":0}"#,
                "id",
            ),
            (r#"{"ph":5}"#, "ph"),
        ];
        for (record, field) in cases {
            assert_eq!(
                from_perfetto_json(&doc(&[record])),
                Err(PerfettoError::Field(0, field)),
                "{record}"
            );
        }
    }

    #[test]
    fn an_unknown_phase_is_refused() {
        let b = r#"{"ph":"B","name":"t","pid":0,"tid":0,"ts":0}"#;
        assert_eq!(
            from_perfetto_json(&doc(&[X, b])),
            Err(PerfettoError::UnknownPhase(1, "B".into()))
        );
    }

    #[test]
    fn an_unknown_tid_is_refused() {
        let tid9 = r#"{"ph":"X","name":"t","pid":0,"tid":9,"ts":0,"dur":1,"args":{}}"#;
        assert_eq!(
            from_perfetto_json(&doc(&[tid9])),
            Err(PerfettoError::UnknownTid(0, 9))
        );
    }

    #[test]
    fn a_pid_beyond_u32_is_refused() {
        let big = r#"{"ph":"X","name":"t","pid":4294967296,"tid":0,"ts":0,"dur":1,"args":{}}"#;
        assert_eq!(
            from_perfetto_json(&doc(&[big])),
            Err(PerfettoError::PidRange(0, 1 << 32))
        );
        let max = r#"{"ph":"X","name":"t","pid":4294967295,"tid":0,"ts":0,"dur":1,"args":{}}"#;
        assert!(from_perfetto_json(&doc(&[max])).is_ok());
    }

    #[test]
    fn a_non_finite_time_is_refused() {
        let ts = r#"{"ph":"i","name":"t","pid":0,"tid":0,"ts":1e999,"args":{}}"#;
        assert_eq!(
            from_perfetto_json(&doc(&[ts])),
            Err(PerfettoError::NonFinite(0, "ts"))
        );
        let dur = r#"{"ph":"X","name":"t","pid":0,"tid":0,"ts":0,"dur":-1e999,"args":{}}"#;
        assert_eq!(
            from_perfetto_json(&doc(&[dur])),
            Err(PerfettoError::NonFinite(0, "dur"))
        );
    }

    #[test]
    fn flow_halves_must_pair() {
        // a clean pair reads as one flow at the start's position
        let read = from_perfetto_json(&doc(&[S, X, F])).expect("pairs");
        assert!(matches!(read[0], TraceEvent::Flow { id: 5, .. }));
        assert!(matches!(read[1], TraceEvent::Span { .. }));
        // an id may be reused once its flow finished
        assert_eq!(
            from_perfetto_json(&doc(&[S, F, S, F])).map(|e| e.len()),
            Ok(2)
        );
        assert_eq!(
            from_perfetto_json(&doc(&[S, X, S, F])),
            Err(PerfettoError::DuplicateFlowStart(2, 5))
        );
        assert_eq!(
            from_perfetto_json(&doc(&[X, F])),
            Err(PerfettoError::FinishWithoutStart(1, 5))
        );
        assert_eq!(
            from_perfetto_json(&doc(&[S, F, F])),
            Err(PerfettoError::FinishWithoutStart(2, 5))
        );
        assert_eq!(
            from_perfetto_json(&doc(&[X, S, X])),
            Err(PerfettoError::UnfinishedFlow(1, 5))
        );
    }

    #[test]
    fn errors_render_with_their_record() {
        let err = from_perfetto_json(&doc(&[X, F])).unwrap_err();
        assert_eq!(err.to_string(), "event 1: flow 5 finishes without a start");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn track_totals_sum_per_lane() {
        let events = vec![
            span(0, Track::Compute, "a", 0.0, 1_000_000.0),
            span(0, Track::Compute, "b", 1_000_000.0, 500_000.0),
            span(0, Track::Copy, "c", 0.0, 250_000.0),
            span(1, Track::Compute, "d", 0.0, 2_000_000.0),
        ];
        let totals = span_track_totals(&events);
        assert!((totals[&(0, Track::Compute)] - 1.5).abs() < 1e-12);
        assert!((totals[&(0, Track::Copy)] - 0.25).abs() < 1e-12);
        assert!((totals[&(1, Track::Compute)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reconcile_detects_mismatch() {
        let mut stats = ExecStats::new(1);
        stats.per_gpu[0].compute_secs = 1.0;
        stats.per_gpu[0].memory_secs = 0.0;
        let good = vec![span(0, Track::Compute, "t", 0.0, 1e6)];
        assert!(reconcile_with_stats(&good, &stats, 1e-9).is_ok());
        let bad = vec![span(0, Track::Compute, "t", 0.0, 2e6)];
        let err = reconcile_with_stats(&bad, &stats, 1e-9).unwrap_err();
        assert!(err.contains("compute spans"), "{err}");
    }
}
