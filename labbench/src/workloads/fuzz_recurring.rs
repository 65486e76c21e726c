//! `fuzz_recurring`: `fuzz::run` over a fixed case budget per pass on
//! one worker — the path where calibrations recur inside a process.

use std::io;
use std::path::Path;

use ichannels_lab::fuzz::{self, gen::sample_scenario, FuzzConfig};
use ichannels_lab::Executor;
use ichannels_obs::MetricsSnapshot;

use super::{CheckOutcome, PassOutcome, Workload};
use crate::inputs::{derive, digest, Domain, PassId};
use crate::trace::Tracer;

/// Fuzz cases per pass.
pub const CASES: u64 = 256;

/// Fuzz cases of the set-up warm-up pass.
const WARMUP_CASES: u64 = 4 * CASES;

/// The fuzz workload.
#[derive(Debug)]
pub struct FuzzRecurring {
    seed: u64,
    executor: Executor,
    checked: Option<String>,
}

/// The fuzz configuration of one pass.
pub fn pass_config(seed: u64, pass: PassId) -> FuzzConfig {
    FuzzConfig {
        seed: derive(seed, pass, 0),
        cases: CASES,
        ..FuzzConfig::default()
    }
}

impl Workload for FuzzRecurring {
    const NAME: &'static str = "fuzz_recurring";
    const OP: &'static str = "case";
    const TRACED_PASSES: u64 = 4;

    /// One small warm-up fuzz pass under the repetition's own seed.
    fn setup(seed: u64, rep: u32, _scratch: &Path, _trace: bool) -> io::Result<Self> {
        let executor = Executor::serial();
        let warmup = FuzzConfig {
            cases: WARMUP_CASES,
            ..pass_config(
                seed,
                PassId {
                    domain: Domain::Setup(rep),
                    index: 0,
                },
            )
        };
        fuzz::run(&warmup, &executor);
        Ok(FuzzRecurring {
            seed,
            executor,
            checked: None,
        })
    }

    fn threads(&self) -> usize {
        self.executor.threads()
    }

    fn input_digest(&self, pass: PassId) -> String {
        let config = pass_config(self.seed, pass);
        let labels: Vec<String> = (0..config.cases)
            .map(|case| {
                let s = sample_scenario(config.seed, case);
                format!("{} {}", s.label(), s.seed)
            })
            .collect();
        digest(labels.iter().map(String::as_bytes))
    }

    fn pass(&mut self, pass: PassId, tracer: &mut Tracer) -> io::Result<PassOutcome> {
        let config = pass_config(self.seed, pass);
        let report = tracer.span("lab.fuzz.run", |_| fuzz::run(&config, &self.executor));
        let findings = tracer.span("lab.fuzz.render", |_| report.to_jsonl());
        if pass == PassId::CHECKED {
            self.checked = Some(findings);
        }
        Ok(PassOutcome {
            ops: config.cases,
            // A short pass lost cases; findings are output, not failures.
            failed: config.cases.saturating_sub(report.cases_run as u64),
            ..PassOutcome::default()
        })
    }

    /// Replaying the checked pass must render byte-identical findings.
    fn check(&mut self) -> io::Result<CheckOutcome> {
        let config = pass_config(self.seed, PassId::CHECKED);
        let replay = fuzz::run(&config, &self.executor).to_jsonl();
        let mut check = CheckOutcome {
            ops: config.cases,
            digest: digest([replay.as_bytes()]),
            ..CheckOutcome::default()
        };
        if self.checked.as_deref() != Some(replay.as_str()) {
            check
                .problems
                .push("replayed fuzz findings differ from the checked pass".to_string());
            check.failed = check.ops;
        }
        Ok(check)
    }

    fn observed_ops(snap: &MetricsSnapshot, _totals: &PassOutcome) -> u64 {
        snap.counter("fuzz.cases")
    }
}
