//! The Chrome-trace / Perfetto JSON exporter, plus the span arithmetic
//! used to cross-check a timeline against simulator statistics.
//!
//! Output format: the JSON object form of the [Trace Event Format] —
//! `{"displayTimeUnit":"ms","traceEvents":[...]}` — loadable by both
//! `chrome://tracing` and [ui.perfetto.dev]. One process (`pid`) per
//! device plus the control process; each process has one thread per
//! [`Track`]. Spans are `"X"` complete events, instants are `"i"`, flow
//! arrows are `"s"`/`"f"` pairs, and process/thread names are `"M"`
//! metadata records.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use micco_gpusim::ExecStats;

use crate::span::{TraceEvent, Track, CONTROL_PID};

/// `s` as a JSON string literal (with the quotes).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::json::write_string(s, &mut out);
    out
}

/// Render `v` as a JSON number (non-finite values become 0).
pub(crate) fn json_f64(v: f64) -> String {
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
