//! `catalog_cold`: the full five-campaign catalog, re-seeded every
//! pass, streamed through `run_to_dir`: timed passes on a one-worker
//! pool, traced passes on `Executor::auto()`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ichannels_lab::campaigns::{self, run_to_dir};
use ichannels_lab::{Executor, Grid, RunConfig};
use ichannels_obs::MetricsSnapshot;

use super::{CheckOutcome, PassOutcome, Workload};
use crate::inputs::{derive, digest, Domain, PassId};
use crate::trace::Tracer;

/// The catalog workload.
#[derive(Debug)]
pub struct CatalogCold {
    seed: u64,
    scratch: PathBuf,
    executor: Executor,
}

/// The five catalog campaigns of one pass, each with its own base seed.
pub fn pass_grids(seed: u64, pass: PassId) -> Vec<(&'static str, Grid)> {
    campaigns::catalog(false)
        .into_iter()
        .zip(0u64..)
        .map(|((name, grid), c)| (name, grid.base_seed(derive(seed, pass, c))))
        .collect()
}

/// Runs one catalog pass into `dir`; returns its outcome and the
/// artifact files `run_to_dir` wrote, in catalog order.
fn run_catalog(
    grids: &[(&'static str, Grid)],
    executor: Executor,
    dir: &Path,
    tracer: &mut Tracer,
) -> io::Result<(PassOutcome, Vec<PathBuf>)> {
    let mut out = PassOutcome::default();
    let mut paths = Vec::new();
    for (name, grid) in grids {
        let run = tracer.span(&format!("lab.campaign.{name}"), |_| {
            run_to_dir(name, grid, executor, dir, RunConfig::default())
        })?;
        out.ops += run.rows.len() as u64;
        out.failed += run.rows.iter().filter(|r| r.error.is_some()).count() as u64;
        if tracer.is_on() {
            for path in &run.paths {
                out.export_bytes += fs::metadata(path)?.len();
            }
        }
        paths.extend(run.paths);
    }
    Ok((out, paths))
}

impl Workload for CatalogCold {
    const NAME: &'static str = "catalog_cold";
    const OP: &'static str = "trial";
    const TRACED_PASSES: u64 = 6;

    /// Creates the scratch directory and runs one warm-up pass (its
    /// own seeds), so page faults, thread start-up and allocator
    /// growth are paid before timing.
    ///
    /// Timed passes run on one worker: two pool threads on a shared
    /// host's vCPUs spread their CPU time by half again as much
    /// (README.md, Noise). Traced passes run on `Executor::auto()`,
    /// so the pool's layer metrics show its balance over nproc threads.
    fn setup(seed: u64, rep: u32, scratch: &Path, trace: bool) -> io::Result<Self> {
        let executor = if trace {
            Executor::auto()
        } else {
            Executor::serial()
        };
        let pass = PassId {
            domain: Domain::Setup(rep),
            index: 0,
        };
        let dir = scratch.join("warmup");
        fs::create_dir_all(&dir)?;
        run_catalog(
            &pass_grids(seed, pass),
            executor,
            &dir,
            &mut Tracer::new(false),
        )?;
        Ok(CatalogCold {
            seed,
            scratch: scratch.to_path_buf(),
            executor,
        })
    }

    fn threads(&self) -> usize {
        self.executor.threads()
    }

    fn input_digest(&self, pass: PassId) -> String {
        let mut parts = Vec::new();
        for (name, grid) in pass_grids(self.seed, pass) {
            parts.push(name.to_string());
            for s in grid.scenarios() {
                parts.push(format!("{} {}", s.label(), s.seed));
            }
        }
        digest(parts.iter().map(String::as_bytes))
    }

    fn pass(&mut self, pass: PassId, tracer: &mut Tracer) -> io::Result<PassOutcome> {
        // The checked pass keeps its artifacts; the others overwrite
        // one another.
        let dir = self.scratch.join(if pass == PassId::CHECKED {
            "checked"
        } else {
            "pass"
        });
        let (out, _) = run_catalog(&pass_grids(self.seed, pass), self.executor, &dir, tracer)?;
        Ok(out)
    }

    /// The checked pass must have no trial errors, and a re-run on the
    /// other pool size (`Executor::auto()` after one worker,
    /// `Executor::serial()` after nproc) must write byte-identical
    /// JSONL and CSV.
    fn check(&mut self) -> io::Result<CheckOutcome> {
        let other = if self.executor.threads() == 1 {
            Executor::auto()
        } else {
            Executor::serial()
        };
        let rerun_dir = self.scratch.join("rerun");
        let (rerun, rerun_paths) = run_catalog(
            &pass_grids(self.seed, PassId::CHECKED),
            other,
            &rerun_dir,
            &mut Tracer::new(false),
        )?;
        let mut check = CheckOutcome {
            ops: rerun.ops,
            failed: rerun.failed,
            ..CheckOutcome::default()
        };
        if rerun.failed > 0 {
            check
                .problems
                .push(format!("{} trial(s) returned errors", rerun.failed));
        }
        let mut outputs = Vec::new();
        for path in rerun_paths {
            let name = path.file_name().expect("artifact paths name a file");
            let checked = fs::read(self.scratch.join("checked").join(name))?;
            if checked != fs::read(&path)? {
                check.problems.push(format!(
                    "{}: {} and {} thread(s) wrote different bytes",
                    name.to_string_lossy(),
                    self.executor.threads(),
                    other.threads()
                ));
                check.failed = check.ops;
            }
            outputs.push(checked);
        }
        check.digest = digest(outputs.iter().map(Vec::as_slice));
        Ok(check)
    }

    fn observed_ops(snap: &MetricsSnapshot, _totals: &PassOutcome) -> u64 {
        snap.counter("trial.runs")
    }
}
