//! What the benchmark reads about its own process and host, and the
//! in-memory span log of a traced run.

use std::fmt::Write as _;
use std::time::Instant;

use micco_load::LatencyRecorder;

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, fixed at
/// 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

fn proc_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// User + system CPU seconds this process has used, exited threads
/// included. Time stolen by the host is not CPU time and does not count.
pub fn process_cpu_secs() -> f64 {
    let stat = proc_file("/proc/self/stat");
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<u64>() as f64 / USER_HZ
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    proc_file("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide steal ticks so far (`/proc/stat`, summed over CPUs).
pub fn steal_ticks() -> u64 {
    proc_file("/proc/stat")
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Nearest-rank percentile, the definition `micco-load` reports with.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut rec = LatencyRecorder::new();
    for &s in samples {
        rec.record(s);
    }
    rec.percentile(p)
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean, 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One timed call into a layer, made from the benchmark's own code.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `serve.submit`.
    pub name: &'static str,
    /// Microseconds since the span log's epoch.
    pub start_us: f64,
    /// Microseconds since the span log's epoch.
    pub end_us: f64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Job (or flow, or layer-pass config) the span belongs to.
    pub job: u64,
}

/// Spans of a traced run, kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a span between two instants; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            job,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Fold another log with the same epoch into this one.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, ms: its duration minus the part of it
    /// that its children's intervals cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut reach) = (0.0, s.start_us);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_us - s.start_us - covered) / 1e3
            })
            .collect()
    }

    /// Median self time per span name, ms, in first-seen order.
    pub fn self_ms_by_name(&self) -> Vec<(&'static str, f64)> {
        let selfs = self.self_ms();
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|n| {
                let v: Vec<f64> = self
                    .spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.name == n)
                    .map(|(_, &ms)| ms)
                    .collect();
                (n, median(&v))
            })
            .collect()
    }

    /// The log as JSON lines, one span per line with its self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ms)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"self_ms\":{self_ms}}}",
                s.name, s.job, s.start_us, s.end_us
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = SpanLog::new(t0);
        let root = log.push("job", at(0), at(10), None, 1);
        log.push("a", at(1), at(4), Some(root), 1);
        log.push("b", at(3), at(6), Some(root), 1);
        let selfs = log.self_ms();
        assert!((selfs[0] - 5.0).abs() < 1e-9, "{selfs:?}");
        assert!((selfs[1] - 3.0).abs() < 1e-9);
    }
}
