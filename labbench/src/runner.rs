//! One benchmark run: set-up, timed or traced passes, output checks,
//! and the printed result.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ichannels_obs::MetricsSnapshot;

use crate::clock::cpu_time_s;
use crate::inputs::{Domain, PassId};
use crate::metrics::{self, Traced};
use crate::stats::{highest_tail_percentile, median};
use crate::trace::Tracer;
use crate::workloads::analyze_merge::AnalyzeMerge;
use crate::workloads::catalog_cold::CatalogCold;
use crate::workloads::fuzz_recurring::FuzzRecurring;
use crate::workloads::{PassOutcome, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: u32 = 5;

/// Timed passes a run makes even when `--seconds` runs out first.
/// `peak_rss_mb` is read right after them: a fixed amount of work, so
/// a faster program that fits more passes into `--seconds` (and so
/// fills the calibration memo further) is not charged for it.
pub const MIN_PASSES: u64 = 8;

/// Every workload name, in BENCHMARK.json order.
pub const WORKLOADS: [&str; 3] = [CatalogCold::NAME, FuzzRecurring::NAME, AnalyzeMerge::NAME];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// How long the timed passes run (untraced runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where the scratch directory and the span file go.
    pub out_dir: PathBuf,
}

/// A JSON value of the printed lines.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number, printed with all its digits (`null` if not finite).
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// A list.
    List(Vec<Json>),
    /// An object, keys in the given order.
    Obj(Vec<(String, Json)>),
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

impl Json {
    fn render(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": ", escape(k));
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    /// One-line rendering.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }
}

fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output and consistency check passed.
    pub correct: bool,
    /// Operations attempted (passes plus output checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name, value and unit: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The host descriptor.
    pub host: Json,
    /// Everything else worth printing (pass counts, tail percentile,
    /// digests, exact counts, failed checks).
    pub diagnostics: Json,
}

impl Report {
    /// The printed lines: host, diagnostics, and last the result.
    pub fn lines(&self) -> [String; 3] {
        let metrics = obj(self.metrics.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str((*unit).to_string())),
                ]),
            )
        }));
        let result = obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", metrics),
        ]);
        [
            obj([("host", self.host.clone())]).to_line(),
            obj([("diagnostics", self.diagnostics.clone())]).to_line(),
            result.to_line(),
        ]
    }
}

/// Runs the named workload.
///
/// # Errors
///
/// Rejects an unknown workload name and propagates I/O errors.
pub fn run(opts: &Options) -> io::Result<Report> {
    match opts.workload.as_str() {
        CatalogCold::NAME => run_workload::<CatalogCold>(opts),
        FuzzRecurring::NAME => run_workload::<FuzzRecurring>(opts),
        AnalyzeMerge::NAME => run_workload::<AnalyzeMerge>(opts),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            ),
        )),
    }
}

/// Runs `W` in a fresh scratch directory, removed afterwards.
fn run_workload<W: Workload>(opts: &Options) -> io::Result<Report> {
    let scratch = opts
        .out_dir
        .join(format!("scratch-{}-{}", W::NAME, std::process::id()));
    fs::create_dir_all(&scratch)?;
    let report = run_in::<W>(opts, &scratch);
    let cleaned = fs::remove_dir_all(&scratch);
    let report = report?;
    cleaned?;
    Ok(report)
}

/// Passes of one run: per-pass wall and CPU times, throughputs per
/// CPU second, summed outcome.
#[derive(Debug, Default)]
struct Passes {
    walls_s: Vec<f64>,
    cpus_s: Vec<f64>,
    ops_per_cpu_s: Vec<f64>,
    totals: PassOutcome,
}

impl Passes {
    fn run<W: Workload>(&mut self, w: &mut W, pass: PassId, tracer: &mut Tracer) -> io::Result<()> {
        let started = Instant::now();
        let cpu_started = cpu_time_s();
        let out = tracer.span("pass", |t| w.pass(pass, t))?;
        let cpu_s = cpu_time_s() - cpu_started;
        self.walls_s.push(started.elapsed().as_secs_f64());
        self.cpus_s.push(cpu_s);
        self.ops_per_cpu_s
            .push(out.ops.saturating_sub(out.failed) as f64 / cpu_s);
        self.totals.add(&out);
        Ok(())
    }
}

/// What the passes of a run measured, before the output checks.
#[derive(Debug, Default)]
struct Measured {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    diagnostics: Vec<(String, Json)>,
}

fn run_in<W: Workload>(opts: &Options, scratch: &Path) -> io::Result<Report> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let started = cpu_time_s();
        let w = W::setup(opts.seed, rep, scratch, opts.trace)?;
        setup_s.push(cpu_time_s() - started);
        kept.get_or_insert(w);
    }
    let mut w = kept.expect("at least one set-up repetition");
    let input_digest = w.input_digest(PassId::CHECKED);

    let mut m = if opts.trace {
        traced_passes(&mut w, opts)?
    } else {
        timed_passes(&mut w, opts, &setup_s)?
    };
    let check = w.check()?;
    m.attempted += check.ops;
    m.failed += check.failed;
    m.problems.extend(check.problems);
    for problem in &m.problems {
        eprintln!("labbench: {}: {problem}", W::NAME);
    }

    let mut diagnostics = vec![
        ("op".to_string(), Json::Str(W::OP.to_string())),
        ("input_digest".to_string(), Json::Str(input_digest)),
        ("output_digest".to_string(), Json::Str(check.digest)),
        (
            "failed_frac".to_string(),
            Json::Num(m.failed as f64 / m.attempted.max(1) as f64),
        ),
        (
            "problems".to_string(),
            Json::List(m.problems.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    diagnostics.extend(m.diagnostics);
    let host = obj([
        ("nproc", Json::Int(nproc() as u64)),
        ("executor_threads", Json::Int(w.threads() as u64)),
        ("rustc", Json::Str(env_or_unknown("LABBENCH_RUSTC"))),
        ("commit", Json::Str(env_or_unknown("LABBENCH_COMMIT"))),
        ("workload", Json::Str(W::NAME.to_string())),
        ("seed", Json::Int(opts.seed)),
        ("trace", Json::Int(u64::from(opts.trace))),
    ]);
    Ok(Report {
        correct: m.problems.is_empty() && m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics: m.metrics,
        host,
        diagnostics: Json::Obj(diagnostics),
    })
}

/// The untraced run: timed passes until `--seconds` is spent (at
/// least [`MIN_PASSES`]), giving the end-to-end metrics.
fn timed_passes<W: Workload>(w: &mut W, opts: &Options, setup_s: &[f64]) -> io::Result<Measured> {
    let mut timed = Passes::default();
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    let mut index = 0;
    let mut peak_rss = None;
    while index < MIN_PASSES || started.elapsed().as_secs_f64() < opts.seconds {
        let pass = PassId {
            domain: Domain::Pass,
            index,
        };
        timed.run(w, pass, &mut tracer)?;
        index += 1;
        if index == MIN_PASSES {
            peak_rss = Some(peak_rss_mb()?);
        }
    }
    let to_ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let cpu_ms = to_ms(&timed.cpus_s);
    let wall_ms = to_ms(&timed.walls_s);
    let mut diagnostics = vec![("passes".to_string(), Json::Int(index))];
    // The gated figures are CPU times; the wall times beside them show
    // what the host's other guests added (README.md, Noise).
    for (name, ms) in [("pass_cpu_ms", &cpu_ms), ("pass_wall_ms", &wall_ms)] {
        let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
        diagnostics.push((format!("{name}_min"), Json::Num(min)));
        diagnostics.push((format!("{name}_p50"), Json::Num(median(ms))));
        if let Some((p, v)) = highest_tail_percentile(ms) {
            diagnostics.push((format!("{name}_p{p}"), Json::Num(v)));
        }
    }
    diagnostics.push((
        "setup_s_reps".to_string(),
        Json::List(setup_s.iter().map(|&s| Json::Num(s)).collect()),
    ));
    let values = [
        median(setup_s),
        median(&timed.ops_per_cpu_s),
        median(&cpu_ms),
        peak_rss.expect("at least MIN_PASSES passes ran"),
    ];
    Ok(Measured {
        metrics: metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| (name.to_string(), value, unit))
            .collect(),
        attempted: timed.totals.ops,
        failed: timed.totals.failed,
        problems: Vec::new(),
        diagnostics,
    })
}

/// The traced run: [`Workload::TRACED_PASSES`] pairs of an untraced
/// twin pass and a traced pass, giving the per-layer metrics.
fn traced_passes<W: Workload>(w: &mut W, opts: &Options) -> io::Result<Measured> {
    let mut twins = Passes::default();
    let mut traced = Passes::default();
    let mut tracer = Tracer::new(false);
    let mut snap = MetricsSnapshot::new();
    for index in 0..W::TRACED_PASSES {
        tracer.set_on(false);
        let twin = PassId {
            domain: Domain::Twin,
            index,
        };
        twins.run(w, twin, &mut tracer)?;
        tracer.set_on(true);
        tracer.set_pass(index);
        ichannels_obs::reset();
        ichannels_obs::set_enabled(true);
        let pass = PassId {
            domain: Domain::Pass,
            index,
        };
        let result = traced.run(w, pass, &mut tracer);
        ichannels_obs::set_enabled(false);
        result?;
        snap.merge(&ichannels_obs::global().snapshot());
    }
    let spans = opts
        .out_dir
        .join(format!("trace-{}-{}.jsonl", W::NAME, opts.seed));
    fs::write(&spans, tracer.to_jsonl())?;

    let mut failed = twins.totals.failed + traced.totals.failed;
    let problems = metrics::consistency_problems(
        &snap,
        &traced.totals,
        W::observed_ops(&snap, &traced.totals),
    );
    if !problems.is_empty() {
        failed += traced.totals.ops;
    }
    let exact = metrics::exact_counts(&snap, &traced.totals)
        .into_iter()
        .map(|(k, v)| (k, Json::Int(v)));
    let per_layer = metrics::per_layer(&Traced {
        snap: &snap,
        tracer: &tracer,
        totals: &traced.totals,
        passes: W::TRACED_PASSES,
        traced_median_s: median(&traced.cpus_s),
        twin_median_s: median(&twins.cpus_s),
    });
    Ok(Measured {
        metrics: per_layer
            .into_iter()
            .map(|m| (m.name, m.value, m.unit))
            .collect(),
        attempted: twins.totals.ops + traced.totals.ops,
        failed,
        problems,
        diagnostics: vec![
            ("exact".to_string(), obj(exact)),
            ("spans".to_string(), Json::Str(spans.display().to_string())),
        ],
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's peak resident memory (`VmHWM`), MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}
