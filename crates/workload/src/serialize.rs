//! Plain-text serialisation of tensor-pair streams.
//!
//! A tiny line-oriented format (no external dependencies) so workloads can
//! be saved, diffed, shipped to other tools, and reloaded bit-exactly:
//!
//! ```text
//! micco-stream v1
//! vector
//! task <id> <a_id> <a_bytes> <b_id> <b_bytes> <out_id> <out_bytes> <flops>
//! task …
//! vector
//! …
//! ```
//!
//! Round-tripping is exact (all fields are integers).

use crate::task::{ContractionTask, TaskId, TensorDesc, TensorId, TensorPairStream, Vector};

/// Magic first line.
const HEADER: &str = "micco-stream v1";

/// Serialisation/parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamFormatError {
    /// Missing or wrong header line.
    BadHeader,
    /// A malformed line, with its 1-based line number.
    BadLine {
        /// Line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A task line appeared before any `vector` line.
    TaskOutsideVector {
        /// Line number.
        line: usize,
    },
}

impl std::fmt::Display for StreamFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamFormatError::BadHeader => write!(f, "missing '{HEADER}' header"),
            StreamFormatError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            StreamFormatError::TaskOutsideVector { line } => {
                write!(f, "line {line}: task before any 'vector' marker")
            }
        }
    }
}

impl std::error::Error for StreamFormatError {}

/// Serialise a stream to the text format.
pub fn to_text(stream: &TensorPairStream) -> String {
    let mut out = String::with_capacity(64 + stream.total_tasks() * 48);
    out.push_str(HEADER);
    out.push('\n');
    for v in stream.vectors() {
        out.push_str("vector\n");
        for t in &v.tasks {
            out.push_str(&format!(
                "task {} {} {} {} {} {} {} {}\n",
                t.id.0, t.a.id.0, t.a.bytes, t.b.id.0, t.b.bytes, t.out.id.0, t.out.bytes, t.flops
            ));
        }
    }
    out
}

/// Parse a stream from the text format.
pub fn from_text(text: &str) -> Result<TensorPairStream, StreamFormatError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == HEADER => {}
        _ => return Err(StreamFormatError::BadHeader),
    }
    let mut vectors: Vec<Vector> = Vec::new();
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "vector" {
            vectors.push(Vector::default());
            continue;
        }
        if let Some(rest) = line.strip_prefix("task ") {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 8 {
                return Err(StreamFormatError::BadLine {
                    line: line_no,
                    reason: format!("expected 8 fields, got {}", fields.len()),
                });
            }
            let mut nums = [0u64; 8];
            for (slot, f) in nums.iter_mut().zip(&fields) {
                *slot = f.parse().map_err(|_| StreamFormatError::BadLine {
                    line: line_no,
                    reason: format!("'{f}' is not an unsigned integer"),
                })?;
            }
            let task = ContractionTask {
                id: TaskId(nums[0]),
                a: TensorDesc {
                    id: TensorId(nums[1]),
                    bytes: nums[2],
                },
                b: TensorDesc {
                    id: TensorId(nums[3]),
                    bytes: nums[4],
                },
                out: TensorDesc {
                    id: TensorId(nums[5]),
                    bytes: nums[6],
                },
                flops: nums[7],
            };
            vectors
                .last_mut()
                .ok_or(StreamFormatError::TaskOutsideVector { line: line_no })?
                .tasks
                .push(task);
        } else {
            return Err(StreamFormatError::BadLine {
                line: line_no,
                reason: format!("unrecognised line '{line}'"),
            });
        }
    }
    Ok(TensorPairStream::new(vectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadSpec;

    #[test]
    fn roundtrip_is_exact() {
        let stream = WorkloadSpec::new(16, 128)
            .with_repeat_rate(0.6)
            .with_vectors(4)
            .generate();
        let text = to_text(&stream);
        let back = from_text(&text).unwrap();
        assert_eq!(stream, back);
    }

    #[test]
    fn empty_stream_roundtrips() {
        let s = TensorPairStream::default();
        assert_eq!(from_text(&to_text(&s)).unwrap(), s);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("{HEADER}\n# a comment\n\nvector\ntask 0 1 10 2 10 3 10 99\n");
        let s = from_text(&text).unwrap();
        assert_eq!(s.total_tasks(), 1);
        assert_eq!(s.vectors()[0].tasks[0].flops, 99);
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(from_text("nope\n"), Err(StreamFormatError::BadHeader));
        assert_eq!(from_text(""), Err(StreamFormatError::BadHeader));
    }

    #[test]
    fn task_outside_vector_rejected() {
        let text = format!("{HEADER}\ntask 0 1 10 2 10 3 10 99\n");
        assert!(matches!(
            from_text(&text),
            Err(StreamFormatError::TaskOutsideVector { line: 2 })
        ));
    }

    #[test]
    fn field_count_checked() {
        let text = format!("{HEADER}\nvector\ntask 0 1 10\n");
        let err = from_text(&text).unwrap_err();
        assert!(err.to_string().contains("8 fields"));
    }

    #[test]
    fn non_numeric_rejected() {
        let text = format!("{HEADER}\nvector\ntask 0 1 ten 2 10 3 10 99\n");
        let err = from_text(&text).unwrap_err();
        assert!(err.to_string().contains("'ten'"));
    }

    #[test]
    fn unknown_line_rejected() {
        let text = format!("{HEADER}\nwat\n");
        assert!(from_text(&text).is_err());
    }
}
