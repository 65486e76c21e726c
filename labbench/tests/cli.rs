//! The binary end to end: printed metric names, exit codes, and exact
//! counts that repeat across two traced runs with one seed.

use std::process::Command;

use ichannels_labbench::metrics::{per_layer_names, END_TO_END};

/// Runs the benchmark; returns its exit code and stdout lines.
fn labbench(workload: &str, seed: u64, trace: bool) -> (i32, Vec<String>) {
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/cli-out");
    let output = Command::new(env!("CARGO_BIN_EXE_labbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--out-dir", out_dir])
        .output()
        .expect("run labbench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    (
        output.status.code().expect("exit code"),
        stdout.lines().map(str::to_string).collect(),
    )
}

/// The metric names of a result line, in printed order.
fn metric_names(result: &str) -> Vec<String> {
    let marker = "\": {\"value\"";
    let mut names = Vec::new();
    let mut rest = result;
    while let Some(i) = rest.find(marker) {
        let before = &rest[..i];
        let start = before.rfind('"').expect("metric name opens") + 1;
        names.push(before[start..].to_string());
        rest = &rest[i + marker.len()..];
    }
    names
}

/// The `exact` object of a traced run's diagnostics line.
fn exact(diagnostics: &str) -> String {
    let start = diagnostics.find("\"exact\": {").expect("exact counts");
    let rest = &diagnostics[start..];
    rest[..=rest.find('}').expect("object ends")].to_string()
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let (code, lines) = labbench("fuzz_recurring", 5, false);
    assert_eq!(code, 0, "{lines:?}");
    let result = lines.last().expect("result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{result}"
    );
    let expected: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
    assert_eq!(metric_names(result), expected);
    assert!(
        lines[0].starts_with("{\"host\": {\"nproc\": "),
        "{}",
        lines[0]
    );
}

#[test]
fn traced_runs_repeat_their_exact_counts() {
    for workload in ["catalog_cold", "fuzz_recurring"] {
        let (code, first) = labbench(workload, 9, true);
        assert_eq!(code, 0, "{first:?}");
        let expected: Vec<String> = per_layer_names().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(metric_names(first.last().expect("result line")), expected);
        let (code, second) = labbench(workload, 9, true);
        assert_eq!(code, 0, "{second:?}");
        assert_eq!(exact(&first[1]), exact(&second[1]), "{workload}");
    }
}

#[test]
fn unknown_workload_exits_without_a_result() {
    let (code, lines) = labbench("no_such_workload", 1, false);
    assert_eq!(code, 2);
    assert!(lines.is_empty(), "{lines:?}");
}
