//! Metric names and the per-layer derivation from the traced passes.
//!
//! The names here are the ones BENCHMARK.json declares; a test keeps
//! the two lists equal.

use ichannels_lab::campaigns;
use ichannels_obs::MetricsSnapshot;

use crate::trace::Tracer;
use crate::workloads::PassOutcome;

/// End-to-end metrics (untraced runs): name, unit, and whether a
/// higher value is better. Times are the process's CPU time
/// ([`crate::clock`]).
pub const END_TO_END: [(&str, &str, bool); 4] = [
    ("setup_s", "s", false),
    ("ops_per_cpu_s", "1/s", true),
    ("pass_cpu_ms_p50", "ms", false),
    ("peak_rss_mb", "MiB", false),
];

/// The five trial phases of the lab's `trial.*` spans.
const PHASES: [&str; 5] = ["resolve", "config", "calibration", "transmit", "metrics"];

/// One per-layer metric of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Name, as in BENCHMARK.json.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Value: per traced pass for counts and times.
    pub value: f64,
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not use).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Everything a traced run measured.
#[derive(Debug)]
pub struct Traced<'a> {
    /// Merged lab telemetry of the traced passes.
    pub snap: &'a MetricsSnapshot,
    /// The benchmark's own spans.
    pub tracer: &'a Tracer,
    /// Summed outcomes of the traced passes.
    pub totals: &'a PassOutcome,
    /// Number of traced passes.
    pub passes: u64,
    /// Median traced pass CPU time, s.
    pub traced_median_s: f64,
    /// Median untraced twin pass CPU time, s.
    pub twin_median_s: f64,
}

/// The per-layer metrics. Counts and times are per traced pass;
/// ratios are over all traced passes.
pub fn per_layer(t: &Traced<'_>) -> Vec<LayerMetric> {
    let k = t.passes as f64;
    let counter = |name: &str| t.snap.counter(name) as f64;
    let hist_sum = |name: &str| t.snap.histogram(name).sum as f64;
    let span_ns = |name: &str| t.tracer.total_ns(name) as f64;
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, higher_is_better: bool, value: f64| {
        out.push(LayerMetric {
            name: name.to_string(),
            unit,
            higher_is_better,
            value,
        });
    };

    let mut campaign_ns = 0.0;
    for (campaign, _) in campaigns::catalog(false) {
        let ns = span_ns(&format!("lab.campaign.{campaign}"));
        campaign_ns += ns;
        push(
            &format!("lab.campaign.{campaign}_ms"),
            "ms",
            false,
            ns / k / 1e6,
        );
    }
    let trials = counter("trial.runs");
    for phase in PHASES {
        let ns = hist_sum(&format!("trial.{phase}"));
        push(
            &format!("lab.trial.{phase}_us"),
            "us",
            false,
            ratio(ns, trials) / 1e3,
        );
    }
    push("lab.trial.count", "count", false, trials / k);

    let step_ns = hist_sum("soc.step_ns");
    let slots = counter("soc.slots_simulated");
    let rearms = counter("soc.rearms");
    push("soc.step_ms", "ms", false, step_ns / k / 1e6);
    push("soc.slots", "count", false, slots / k);
    push("soc.rearms", "count", false, rearms / k);
    push("soc.ns_per_slot", "ns", false, ratio(step_ns, slots));
    push("soc.slots_per_rearm", "ratio", true, ratio(slots, rearms));

    let requests = counter("calibration.requests");
    let hits = counter("calibration.memo_hits");
    push("core.calibration.requests", "count", false, requests / k);
    push("core.calibration.hits", "count", true, hits / k);
    push(
        "core.calibration.hit_rate",
        "frac",
        true,
        ratio(hits, requests),
    );

    let threads = t.snap.gauges.get("exec.threads").copied().unwrap_or(0) as f64;
    let busy_ns = hist_sum("exec.worker_busy_ns");
    let pool_ns = hist_sum("exec.pool_wall_ns");
    push("lab.exec.threads", "count", true, threads);
    push("lab.exec.items", "count", false, counter("exec.items") / k);
    push("lab.exec.busy_ms", "ms", false, busy_ns / k / 1e6);
    push("lab.exec.pool_wall_ms", "ms", false, pool_ns / k / 1e6);
    push(
        "lab.exec.utilisation",
        "frac",
        true,
        ratio(busy_ns, threads * pool_ns),
    );

    // Only `run_to_dir` calls have a report layer around the pool.
    let overhead_ns = if campaign_ns > 0.0 {
        campaign_ns - pool_ns
    } else {
        0.0
    };
    push("lab.report.overhead_ms", "ms", false, overhead_ns / k / 1e6);
    push(
        "meter.export.bytes",
        "bytes",
        false,
        t.totals.export_bytes as f64 / k,
    );

    let cases = counter("fuzz.cases");
    push("lab.fuzz.cases", "count", true, cases / k);
    push(
        "lab.fuzz.findings",
        "count",
        false,
        counter("fuzz.findings") / k,
    );
    push(
        "lab.fuzz.trials_per_case",
        "ratio",
        false,
        ratio(trials, cases),
    );

    let parse_ns = span_ns("lab.shard.parse");
    push("lab.shard.parse_ms", "ms", false, parse_ns / k / 1e6);
    push(
        "lab.shard.merge_ms",
        "ms",
        false,
        span_ns("lab.shard.merge") / k / 1e6,
    );
    let rows = t.totals.rows_parsed as f64;
    push("meter.parse.ns_per_row", "ns", false, ratio(parse_ns, rows));
    for layer in ["ingest", "finish", "render"] {
        let ns = span_ns(&format!("analysis.{layer}"));
        push(&format!("analysis.{layer}_ms"), "ms", false, ns / k / 1e6);
    }

    let overhead = t.traced_median_s / t.twin_median_s - 1.0;
    push("obs.overhead_frac", "frac", false, overhead);
    push("lab.trace.passes", "count", true, k);
    out
}

/// Name, unit and direction of every per-layer metric, in printed
/// order.
pub fn per_layer_names() -> Vec<(String, &'static str, bool)> {
    let empty = Traced {
        snap: &MetricsSnapshot::new(),
        tracer: &Tracer::new(false),
        totals: &PassOutcome::default(),
        passes: 1,
        traced_median_s: 1.0,
        twin_median_s: 1.0,
    };
    per_layer(&empty)
        .into_iter()
        .map(|m| (m.name, m.unit, m.higher_is_better))
        .collect()
}

/// The counts two traced runs of one seed must repeat exactly.
pub fn exact_counts(snap: &MetricsSnapshot, totals: &PassOutcome) -> Vec<(&'static str, u64)> {
    vec![
        ("ops", totals.ops),
        ("trial.runs", snap.counter("trial.runs")),
        ("soc.slots_simulated", snap.counter("soc.slots_simulated")),
        ("soc.rearms", snap.counter("soc.rearms")),
        ("calibration.requests", snap.counter("calibration.requests")),
        (
            "calibration.memo_hits",
            snap.counter("calibration.memo_hits"),
        ),
        ("fuzz.findings", snap.counter("fuzz.findings")),
        ("exec.items", snap.counter("exec.items")),
        ("export.bytes", totals.export_bytes),
        ("rows.parsed", totals.rows_parsed),
    ]
}

/// The traced run's consistency checks; one line per failure.
pub fn consistency_problems(
    snap: &MetricsSnapshot,
    totals: &PassOutcome,
    observed_ops: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    if observed_ops != totals.ops {
        problems.push(format!(
            "benchmark counted {} ops, the lab observed {observed_ops}",
            totals.ops
        ));
    }
    let present = [
        "calibration.requests",
        "calibration.memo_hits",
        "calibration.memo_misses",
    ]
    .iter()
    .any(|name| snap.counters.contains_key(*name));
    let (requests, hits, misses) = (
        snap.counter("calibration.requests"),
        snap.counter("calibration.memo_hits"),
        snap.counter("calibration.memo_misses"),
    );
    if present && requests != hits + misses {
        problems.push(format!(
            "calibration requests {requests} != hits {hits} + misses {misses}"
        ));
    }
    let (trials, rearms, slots) = (
        snap.counter("trial.runs"),
        snap.counter("soc.rearms"),
        snap.counter("soc.slots_simulated"),
    );
    if !(trials <= rearms && rearms <= slots) {
        problems.push(format!(
            "expected trials {trials} <= rearms {rearms} <= slots {slots}"
        ));
    }
    problems
}
