//! One `SessionConfig` file drives the whole plan flow: `plan`, `lint`,
//! `execute` (simulator, writing a raw trace), `certify`, `execute
//! --backend real` and `replay` all read the request from `--config FILE`
//! and accept the plan it produced, and the real-backend checksum equals
//! the one computed for the same request spelled as flags.

use std::process::{Command, Output};

fn micco(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_micco"))
        .args(args)
        .output()
        .expect("spawn micco")
}

/// Run `micco args`, require exit 0, and return its stdout.
fn ok(args: &[&str]) -> String {
    let out = micco(args);
    assert!(
        out.status.success(),
        "micco {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn checksum(stdout: &str) -> &str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("checksum: "))
        .expect("prints a checksum")
}

#[test]
fn one_config_file_drives_plan_lint_execute_certify_and_replay() {
    let dir = std::env::temp_dir().join(format!("micco-config-flow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (config, plan, trace) = (path("request.json"), path("plan.txt"), path("trace.json"));
    // non-default tensor size, batch and seed shape the workload and the
    // real kernels; steal reaches the real executor
    std::fs::write(
        &config,
        r#"{"vector_size": 6, "tensor_size": 16, "batch": 2, "vectors": 3,
            "seed": 9, "gpus": 2, "steal": true}"#,
    )
    .expect("write config");

    ok(&["plan", "--config", &config, "--out", &plan]);
    ok(&[
        "lint", "--config", &config, "--plan", &plan, "--deny", "warn",
    ]);
    ok(&[
        "execute",
        "--config",
        &config,
        "--plan",
        &plan,
        "--trace-out",
        &trace,
    ]);
    ok(&[
        "certify",
        "--config",
        &config,
        "--plan",
        &plan,
        "--trace",
        &trace,
        "--transfers",
        "strict",
        "--deny",
        "info",
    ]);
    let by_file = ok(&[
        "execute",
        "--config",
        &config,
        "--plan",
        &plan,
        "--backend",
        "real",
    ]);
    ok(&[
        "replay", "--config", &config, "--plan", &plan, "--times", "2",
    ]);

    // the same request spelled as flags computes the identical result
    let by_flags = ok(&[
        "execute",
        "--plan",
        &plan,
        "--backend",
        "real",
        "--vector-size",
        "6",
        "--tensor-size",
        "16",
        "--batch",
        "2",
        "--vectors",
        "3",
        "--seed",
        "9",
        "--gpus",
        "2",
        "--steal",
    ]);
    assert_eq!(checksum(&by_file), checksum(&by_flags));
    std::fs::remove_dir_all(&dir).ok();
}
