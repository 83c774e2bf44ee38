//! Machine-readable encodings of a [`Report`]: plain JSON and SARIF 2.1.0.
//!
//! Both encoders are hand-rolled (the build environment is offline, so no
//! serde); the formats are small and fixed. The SARIF output targets the
//! subset GitHub code scanning and editors consume: one run, a `rules`
//! array mirroring the stable code registry, and one `result` per
//! diagnostic with `ruleId`, `level`, `message`, an optional physical
//! location (plan-text line), and the machine payload under `properties`.

use crate::diag::{Code, Diagnostic, Report};

/// `s` as a JSON string literal (with the quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    micco_obs::json::write_string(s, &mut out);
    out
}

fn payload_object(d: &Diagnostic) -> String {
    let fields: Vec<String> = d
        .payload
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

impl Report {
    /// Encode as a standalone JSON document:
    /// `{"tool":…,"summary":{…},"diagnostics":[…]}`.
    pub fn to_json(&self) -> String {
        let mut diags = Vec::with_capacity(self.diagnostics.len());
        for d in &self.diagnostics {
            let mut fields = vec![
                format!("\"code\":\"{}\"", d.code.id()),
                format!("\"name\":\"{}\"", d.code.slug()),
                format!("\"severity\":\"{}\"", d.severity().as_str()),
            ];
            if let Some(s) = d.stage {
                fields.push(format!("\"stage\":{s}"));
            }
            if let Some(i) = d.index {
                fields.push(format!("\"index\":{i}"));
            }
            if let Some(t) = d.task {
                fields.push(format!("\"task\":{}", t.0));
            }
            if let Some(g) = d.gpu {
                fields.push(format!("\"gpu\":{}", g.0));
            }
            if let Some(l) = d.line {
                fields.push(format!("\"line\":{l}"));
            }
            fields.push(format!("\"message\":{}", json_string(&d.message)));
            fields.push(format!("\"payload\":{}", payload_object(d)));
            diags.push(format!("{{{}}}", fields.join(",")));
        }
        format!(
            "{{\"tool\":\"micco-analysis\",\"summary\":{{\"errors\":{},\"warnings\":{},\"infos\":{}}},\"diagnostics\":[{}]}}",
            self.errors(),
            self.warnings(),
            self.infos(),
            diags.join(",")
        )
    }

    /// Encode as a SARIF 2.1.0 document. `artifact` is the URI recorded
    /// for findings that carry a plan-text line (pass the plan file path,
    /// or e.g. `"plan.txt"` when the plan never touched disk).
    pub fn to_sarif(&self, artifact: &str) -> String {
        let rules: Vec<String> = Code::ALL
            .iter()
            .map(|c| {
                format!(
                    "{{\"id\":\"{}\",\"name\":\"{}\",\"shortDescription\":{{\"text\":{}}},\"defaultConfiguration\":{{\"level\":\"{}\"}}}}",
                    c.id(),
                    c.slug(),
                    json_string(c.summary()),
                    c.severity().sarif_level()
                )
            })
            .collect();
        let rule_index = |code: Code| {
            Code::ALL
                .iter()
                .position(|c| *c == code)
                .unwrap_or_default()
        };
        let results: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                let mut fields = vec![
                    format!("\"ruleId\":\"{}\"", d.code.id()),
                    format!("\"ruleIndex\":{}", rule_index(d.code)),
                    format!("\"level\":\"{}\"", d.severity().sarif_level()),
                    format!("\"message\":{{\"text\":{}}}", json_string(&d.message)),
                ];
                if let Some(line) = d.line {
                    fields.push(format!(
                        "\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}},\"region\":{{\"startLine\":{line}}}}}}}]",
                        json_string(artifact)
                    ));
                }
                let mut props = Vec::new();
                if let Some(s) = d.stage {
                    props.push(format!("\"stage\":{s}"));
                }
                if let Some(i) = d.index {
                    props.push(format!("\"index\":{i}"));
                }
                if let Some(t) = d.task {
                    props.push(format!("\"task\":{}", t.0));
                }
                if let Some(g) = d.gpu {
                    props.push(format!("\"gpu\":{}", g.0));
                }
                props.push(format!("\"payload\":{}", payload_object(d)));
                fields.push(format!("\"properties\":{{{}}}", props.join(",")));
                format!("{{{}}}", fields.join(","))
            })
            .collect();
        format!(
            "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"micco-analysis\",\"informationUri\":\"https://github.com/example/micco-rs\",\"rules\":[{}]}}}},\"results\":[{}]}}]}}",
            rules.join(","),
            results.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use micco_gpusim::GpuId;
    use micco_workload::TaskId;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(
            Diagnostic::new(Code::CapacityExceeded, "needs 2 GiB, capacity 1 GiB")
                .at(0, 3)
                .for_task(TaskId(7))
                .on_gpu(GpuId(1))
                .at_line(9)
                .with("requested", 2u64 << 30)
                .with("capacity", 1u64 << 30),
        );
        r.push(Diagnostic::new(
            Code::MissedReuse,
            "quote \"and\" backslash \\",
        ));
        r
    }

    #[test]
    fn json_has_codes_and_coordinates() {
        let j = sample().to_json();
        assert!(j.contains("\"code\":\"MICCO-E001\""));
        assert!(j.contains("\"stage\":0") && j.contains("\"index\":3"));
        assert!(j.contains("\"task\":7") && j.contains("\"gpu\":1"));
        assert!(j.contains("\"line\":9"));
        assert!(j.contains("\"errors\":1") && j.contains("\"warnings\":1"));
        assert!(j.contains("\\\"and\\\"") && j.contains("\\\\"));
    }

    #[test]
    fn sarif_has_schema_rules_and_locations() {
        let s = sample().to_sarif("plans/p.txt");
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("sarif-2.1.0.json"));
        // full rules registry present exactly once per code
        for c in Code::ALL {
            assert_eq!(s.matches(&format!("\"id\":\"{}\"", c.id())).count(), 1);
        }
        assert!(s.contains("\"ruleId\":\"MICCO-E001\""));
        assert!(s.contains("\"level\":\"error\""));
        assert!(s.contains("\"uri\":\"plans/p.txt\""));
        assert!(s.contains("\"startLine\":9"));
        // the location-less diagnostic must not emit a locations array
        let missed = s.split("MICCO-W202").nth(2).unwrap_or("");
        assert!(!missed.starts_with(",\"locations\""));
    }

    #[test]
    fn sarif_levels_follow_severity() {
        assert_eq!(Severity::Info.sarif_level(), "note");
        assert_eq!(Severity::Warning.sarif_level(), "warning");
        assert_eq!(Severity::Error.sarif_level(), "error");
    }

    #[test]
    fn empty_report_encodes_cleanly() {
        let r = Report::new();
        assert!(r.to_json().contains("\"diagnostics\":[]"));
        assert!(r.to_sarif("p").contains("\"results\":[]"));
    }
}
