//! End-to-end tests of the `micco lint` command against the checked-in
//! golden fixtures: exit codes, JSON and SARIF payloads, coordinate
//! anchoring — the same invocation CI runs — and which failures print the
//! usage text.

use std::path::PathBuf;
use std::process::{Command, Output};

use micco_core::{PlanFormatError, SchedulePlan};

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The flags that rebuild the golden workload (mirrors how the fixture was
/// generated; `--load` keeps this independent of the generator defaults).
fn workload_args(cmd: &mut Command) {
    cmd.arg("--load")
        .arg(fixtures().join("golden_workload.txt"));
}

fn lint(extra: &[&str], plan: &str) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_micco"));
    cmd.arg("lint").arg("--plan").arg(plan);
    workload_args(&mut cmd);
    cmd.args(extra);
    cmd.output().expect("spawn micco")
}

fn golden_plan() -> String {
    fixtures()
        .join("golden_plan.txt")
        .to_string_lossy()
        .into_owned()
}

#[test]
fn golden_plan_lints_clean_in_every_format() {
    for format in ["text", "json", "sarif"] {
        let out = lint(&["--format", format, "--deny", "warn"], &golden_plan());
        assert!(
            out.status.success(),
            "format {format}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = lint(&["--format", "json", "--deny", "warn"], &golden_plan());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"diagnostics\":[]"), "{stdout}");
}

#[test]
fn corrupted_plan_fails_with_e002_and_line_anchor() {
    let text = std::fs::read_to_string(golden_plan()).expect("fixture");
    // point the first assignment at a device far outside the plan's grid
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let (lineno, line) = lines
        .iter_mut()
        .enumerate()
        .find(|(_, l)| l.starts_with("assign "))
        .expect("plan has assignments");
    let task = line.split_whitespace().nth(1).expect("task id").to_owned();
    *line = format!("assign {task} 99");
    let corrupted = std::env::temp_dir().join(format!("micco-lint-e2e-{}.txt", std::process::id()));
    std::fs::write(&corrupted, lines.join("\n") + "\n").expect("write temp plan");
    let path = corrupted.to_string_lossy().into_owned();

    let out = lint(&["--format", "json"], &path);
    assert!(!out.status.success(), "corrupted plan must be denied");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"code\":\"MICCO-E002\""), "{json}");
    assert!(json.contains("\"stage\":0,\"index\":0"), "{json}");
    assert!(json.contains(&format!("\"task\":{task}")), "{json}");
    assert!(json.contains("\"gpu\":99"), "{json}");
    assert!(json.contains(&format!("\"line\":{}", lineno + 1)), "{json}");

    let out = lint(&["--format", "sarif"], &path);
    assert!(!out.status.success());
    let sarif = String::from_utf8_lossy(&out.stdout);
    assert!(sarif.contains("\"ruleId\":\"MICCO-E002\""), "{sarif}");
    assert!(sarif.contains("\"level\":\"error\""), "{sarif}");
    assert!(
        sarif.contains(&format!("\"startLine\":{}", lineno + 1)),
        "{sarif}"
    );
    // the artifact URI is the plan path the user passed
    assert!(sarif.contains("micco-lint-e2e"), "{sarif}");

    let _ = std::fs::remove_file(corrupted);
}

#[test]
fn shrunken_memory_reports_e001_with_coordinates() {
    // 96³ batched tensors are ~576 KiB each; a 1 MiB device cannot hold a
    // 3-tensor working set, so every placement trips MICCO-E001
    let out = lint(&["--format", "json", "--mem-mib", "1"], &golden_plan());
    assert!(!out.status.success(), "capacity violation must be denied");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"code\":\"MICCO-E001\""), "{json}");
    assert!(
        json.contains("\"stage\":0,\"index\":0,\"task\":0"),
        "{json}"
    );
    let out = lint(&["--format", "sarif", "--mem-mib", "1"], &golden_plan());
    assert!(!out.status.success());
    let sarif = String::from_utf8_lossy(&out.stdout);
    assert!(sarif.contains("\"ruleId\":\"MICCO-E001\""), "{sarif}");

    // the same gate is reachable as an exit code alone: text format
    let out = lint(&["--mem-mib", "1"], &golden_plan());
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("MICCO-E001"));
}

/// The start of the usage text `micco` prints after a grammar error.
const USAGE_HEAD: &str = "usage: micco <command> [options]";

#[test]
fn a_denied_lint_reports_its_findings_without_the_usage_text() {
    let out = lint(&["--format", "json", "--mem-mib", "1"], &golden_plan());
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("\"code\":\"MICCO-E001\""), "{stdout}");
    assert!(stderr.contains("error: lint failed"), "{stderr}");
    assert!(!stderr.contains(USAGE_HEAD), "{stderr}");
}

#[test]
fn grammar_errors_still_print_the_usage_text() {
    let out = lint(&["--bogus"], &golden_plan());
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: unknown flag --bogus"), "{stderr}");
    assert!(stderr.contains(USAGE_HEAD), "{stderr}");

    // a third positional fails in the argument parser, before dispatch
    let out = Command::new(env!("CARGO_BIN_EXE_micco"))
        .args(["lint", "stray", "extra"])
        .output()
        .expect("spawn micco");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: unexpected argument 'extra'"),
        "{stderr}"
    );
    assert!(stderr.contains(USAGE_HEAD), "{stderr}");
}

/// `tests/fixtures/golden_plan.txt` as plan format v1 wrote it, with the
/// FNV-1a stream fingerprint that format carried.
const GOLDEN_PLAN_V1: &str = "\
micco-plan v1
scheduler micco[fixed(0,2,0)]
gpus 4
fingerprint 14250726219966263491
overhead 4552422544205877748
stage bounds 0 2 0
assign 0 0
assign 1 3
assign 2 1
assign 3 2
assign 4 0
assign 5 2
assign 6 1
assign 7 3
assign 8 0
assign 9 3
assign 10 2
assign 11 1
assign 12 3
assign 13 1
assign 14 0
assign 15 2
stage bounds 0 2 0
assign 16 3
assign 17 3
assign 18 1
assign 19 0
assign 20 2
assign 21 1
assign 22 3
assign 23 0
assign 24 0
assign 25 0
assign 26 2
assign 27 3
assign 28 1
assign 29 2
assign 30 3
assign 31 0
stage bounds 0 2 0
assign 32 1
assign 33 0
assign 34 2
assign 35 3
assign 36 1
assign 37 0
assign 38 3
assign 39 2
assign 40 1
assign 41 3
assign 42 0
assign 43 2
assign 44 3
assign 45 1
assign 46 3
assign 47 0
";

#[test]
fn a_v1_plan_is_refused_as_an_unsupported_version() {
    assert_eq!(
        SchedulePlan::from_text(GOLDEN_PLAN_V1),
        Err(PlanFormatError::UnsupportedVersion { found: 1 })
    );
    let path = std::env::temp_dir().join(format!("micco-lint-v1-{}.txt", std::process::id()));
    std::fs::write(&path, GOLDEN_PLAN_V1).expect("write temp plan");
    let out = lint(&[], &path.to_string_lossy());
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("plan format v1 is not supported (this build reads v2)"),
        "{stderr}"
    );
    assert!(!stderr.contains(USAGE_HEAD), "{stderr}");
}
