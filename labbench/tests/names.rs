//! The metric and workload names the benchmark prints are the ones
//! BENCHMARK.json declares.

use ichannels_labbench::metrics::{per_layer_names, END_TO_END};
use ichannels_labbench::runner::WORKLOADS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `(name, unit, better)` triples of one list in BENCHMARK.json
/// (`unit` and `better` empty for workloads).
fn declared(section: &str) -> Vec<(String, String, String)> {
    let text = benchmark_json();
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list ends")];
    let field = |entry: &str, key: &str| {
        let pat = format!("\"{key}\": \"");
        entry.find(&pat).map_or(String::new(), |i| {
            let rest = &entry[i + pat.len()..];
            rest[..rest.find('"').expect("string ends")].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name"),
                field(entry, "unit"),
                field(entry, "better"),
            )
        })
        .collect()
}

#[test]
fn end_to_end_metrics_match() {
    let printed: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|&(name, unit, higher)| {
            let better = if higher { "higher" } else { "lower" };
            (name.to_string(), unit.to_string(), better.to_string())
        })
        .collect();
    assert_eq!(declared("end_to_end"), printed);
}

#[test]
fn per_layer_metrics_match() {
    let printed: Vec<(String, String, String)> = per_layer_names()
        .into_iter()
        .map(|(name, unit, higher)| {
            let better = if higher { "higher" } else { "lower" };
            (name, unit.to_string(), better.to_string())
        })
        .collect();
    assert_eq!(declared("per_layer"), printed);
}

#[test]
fn workloads_match() {
    let names: Vec<String> = declared("workloads")
        .into_iter()
        .map(|(n, _, _)| n)
        .collect();
    assert_eq!(names, WORKLOADS);
}
