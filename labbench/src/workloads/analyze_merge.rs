//! `analyze_merge`: parse shard streams, merge them, analyse the
//! merged stream and render `analysis.jsonl` — no SoC work at all.

use std::io;
use std::path::Path;

use ichannels_analysis::{analyze_stream, AnalysisConfig};
use ichannels_lab::report::rows_to_jsonl;
use ichannels_lab::shard::merge_streams;
use ichannels_lab::{campaigns, Executor, ShardSpec, ShardStream, TrialRow};
use ichannels_obs::MetricsSnapshot;

use super::{CheckOutcome, PassOutcome, Workload};
use crate::inputs::{derive, digest, Domain, PassId};
use crate::trace::Tracer;

/// Catalog runs (each under its own seeds) that set-up generates.
pub const CATALOG_RUNS: u64 = 8;

/// Shards each campaign stream is split into.
pub const SHARDS: usize = 3;

/// One campaign run of the input: its shard streams and the unsharded
/// stream they must merge back into.
#[derive(Debug, Clone)]
struct Group {
    campaign: String,
    rows: u64,
    shards: Vec<String>,
    unsharded: String,
}

/// The analysis workload.
#[derive(Debug)]
pub struct AnalyzeMerge {
    groups: Vec<Group>,
    checked: Option<(Vec<String>, String)>,
}

/// Renders one shard's stream: the header line, then its rows.
fn shard_text(campaign: &str, spec: ShardSpec, rows: &[TrialRow]) -> String {
    let mut text = spec.header_row(campaign, rows.len()).to_json();
    text.push('\n');
    text.push_str(&rows_to_jsonl(&spec.select(rows)));
    text
}

/// Parse, merge, analyse and render every group; returns the outcome,
/// the merged streams and the `analysis.jsonl` document.
fn analyze_groups(groups: &[Group], tracer: &mut Tracer) -> (PassOutcome, Vec<String>, String) {
    let mut out = PassOutcome::default();
    let mut merged_streams = Vec::with_capacity(groups.len());
    let mut document = String::new();
    for group in groups {
        out.ops += group.rows;
        let streams = tracer.span("lab.shard.parse", |_| {
            group
                .shards
                .iter()
                .enumerate()
                .map(|(k, text)| ShardStream::parse(&format!("{}#{k}", group.campaign), text))
                .collect::<Result<Vec<_>, _>>()
        });
        let merged = streams.and_then(|streams| {
            out.rows_parsed += streams.iter().map(|s| s.rows.len() as u64).sum::<u64>();
            tracer.span("lab.shard.merge", |_| {
                merge_streams(streams).map(|(_, rows)| rows_to_jsonl(&rows))
            })
        });
        let merged = match merged {
            Ok(merged) => merged,
            Err(e) => {
                eprintln!("labbench: {}: {e}", group.campaign);
                out.failed += group.rows;
                continue;
            }
        };
        let analysis = match tracer.span("analysis.ingest", |_| {
            analyze_stream(&group.campaign, &merged, AnalysisConfig::default())
        }) {
            Ok(analysis) => analysis,
            Err((line, e)) => {
                eprintln!("labbench: {} line {line}: {e}", group.campaign);
                out.failed += group.rows;
                continue;
            }
        };
        let report = tracer.span("analysis.finish", |_| analysis.finish());
        tracer.span("analysis.render", |_| document.push_str(&report.to_jsonl()));
        merged_streams.push(merged);
    }
    (out, merged_streams, document)
}

impl Workload for AnalyzeMerge {
    const NAME: &'static str = "analyze_merge";
    const OP: &'static str = "row";
    const TRACED_PASSES: u64 = 40;

    /// Runs the catalog [`CATALOG_RUNS`] times in memory, each run
    /// under its own seeds, and splits every campaign's trial stream
    /// into [`SHARDS`] shard streams.
    fn setup(seed: u64, rep: u32, _scratch: &Path, _trace: bool) -> io::Result<Self> {
        let executor = Executor::auto();
        let mut groups = Vec::new();
        for run in 0..CATALOG_RUNS {
            let pass = PassId {
                domain: Domain::Setup(rep),
                index: run,
            };
            for ((name, grid), c) in campaigns::catalog(false).into_iter().zip(0u64..) {
                let campaign = format!("{name}_{run}");
                let grid = grid.base_seed(derive(seed, pass, c));
                let report = campaigns::run(&campaign, &grid, executor);
                let rows: Vec<TrialRow> =
                    report.records.iter().map(TrialRow::from_record).collect();
                let shards = (0..SHARDS)
                    .map(|k| {
                        let spec = ShardSpec::new(k, SHARDS).expect("shard index below count");
                        shard_text(&campaign, spec, &rows)
                    })
                    .collect();
                groups.push(Group {
                    rows: rows.len() as u64,
                    unsharded: rows_to_jsonl(&rows),
                    shards,
                    campaign,
                });
            }
        }
        Ok(AnalyzeMerge {
            groups,
            checked: None,
        })
    }

    fn threads(&self) -> usize {
        // Passes run on the calling thread; only set-up uses a pool.
        Executor::auto().threads()
    }

    fn input_digest(&self, _pass: PassId) -> String {
        digest(
            self.groups
                .iter()
                .flat_map(|g| g.shards.iter().map(String::as_bytes)),
        )
    }

    fn pass(&mut self, pass: PassId, tracer: &mut Tracer) -> io::Result<PassOutcome> {
        let (out, merged, document) = analyze_groups(&self.groups, tracer);
        if pass == PassId::CHECKED {
            self.checked = Some((merged, document));
        }
        Ok(out)
    }

    /// The merged streams must render byte-identically to the
    /// unsharded ones, and analysing the unsharded streams must give
    /// the same `analysis.jsonl`.
    fn check(&mut self) -> io::Result<CheckOutcome> {
        let rows: u64 = self.groups.iter().map(|g| g.rows).sum();
        let mut check = CheckOutcome {
            ops: rows,
            ..CheckOutcome::default()
        };
        let Some((merged, document)) = self.checked.take() else {
            check
                .problems
                .push("the checked pass never ran".to_string());
            check.failed = rows;
            return Ok(check);
        };
        let merged_ok = merged.len() == self.groups.len()
            && merged
                .iter()
                .zip(&self.groups)
                .all(|(m, g)| *m == g.unsharded);
        if !merged_ok {
            check
                .problems
                .push("merged shard streams differ from the unsharded streams".to_string());
        }
        let mut unsharded_doc = String::new();
        for group in &self.groups {
            match analyze_stream(&group.campaign, &group.unsharded, AnalysisConfig::default()) {
                Ok(analysis) => unsharded_doc.push_str(&analysis.finish().to_jsonl()),
                Err((line, e)) => check
                    .problems
                    .push(format!("{} line {line}: {e}", group.campaign)),
            }
        }
        if unsharded_doc != document {
            check
                .problems
                .push("analysis.jsonl differs between merged and unsharded input".to_string());
        }
        if !check.problems.is_empty() {
            check.failed = rows;
        }
        check.digest = digest(
            merged
                .iter()
                .map(String::as_bytes)
                .chain([document.as_bytes()]),
        );
        Ok(check)
    }

    fn observed_ops(_snap: &MetricsSnapshot, totals: &PassOutcome) -> u64 {
        totals.rows_parsed
    }
}
