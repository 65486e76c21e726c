//! The three workloads. Each owns one likely optimisation target and
//! keeps the others light; README.md says which and why.

pub mod analyze_merge;
pub mod catalog_cold;
pub mod fuzz_recurring;

use std::io;
use std::path::Path;

use ichannels_obs::MetricsSnapshot;

use crate::inputs::PassId;
use crate::trace::Tracer;

/// What one pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassOutcome {
    /// Operations attempted (trials, fuzz cases or trial rows).
    pub ops: u64,
    /// Operations that failed (typed trial errors, unparseable rows).
    pub failed: u64,
    /// Bytes of campaign artifacts written (only counted while tracing).
    pub export_bytes: u64,
    /// Trial rows the shard parser read.
    pub rows_parsed: u64,
}

impl PassOutcome {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &PassOutcome) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.export_bytes += other.export_bytes;
        self.rows_parsed += other.rows_parsed;
    }
}

/// The result of a workload's output checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Operations the checks covered.
    pub ops: u64,
    /// Operations whose outputs failed a check.
    pub failed: u64,
    /// Digest of the checked outputs: equal digests on two commits
    /// mean byte-identical outputs.
    pub digest: String,
    /// One line per failed check.
    pub problems: Vec<String>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Name on the command line and in BENCHMARK.json.
    const NAME: &'static str;
    /// What one operation is.
    const OP: &'static str;
    /// Traced passes in a traced run: fixed, so its counts repeat.
    const TRACED_PASSES: u64;

    /// Set-up repetition `rep`; repetition 0 is the one a run keeps.
    /// Repetitions draw their own seeds, so none is served by the
    /// calibration memo of an earlier one. `trace` says whether the
    /// run is the traced one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the scratch directory.
    fn setup(seed: u64, rep: u32, scratch: &Path, trace: bool) -> io::Result<Self>;

    /// Executor threads the workload runs on (its set-up's pool
    /// when its passes use none).
    fn threads(&self) -> usize;

    /// Digest of the inputs the pass hands the lab.
    fn input_digest(&self, pass: PassId) -> String;

    /// Runs one pass. The output of [`PassId::CHECKED`] is kept for
    /// [`Workload::check`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn pass(&mut self, pass: PassId, tracer: &mut Tracer) -> io::Result<PassOutcome>;

    /// Re-derives the checked pass's outputs another way and compares
    /// bytes. Runs outside the timed passes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn check(&mut self) -> io::Result<CheckOutcome>;

    /// The operation count the lab itself observed over the traced
    /// passes, to compare with the benchmark's own.
    fn observed_ops(snap: &MetricsSnapshot, totals: &PassOutcome) -> u64;
}
