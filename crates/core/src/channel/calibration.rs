//! Per-level receiver calibration: the training the paper's receiver
//! does once per platform (§6), plus a process-wide memo cache so
//! identical channel configurations train exactly once per process.
//! The memo is sharded by fingerprint hash (`memoized_means`) and
//! also serves the multi-level alphabet calibration
//! ([`crate::extended::MultiLevelChannel::calibrate`]), whose keys
//! extend the four-level fingerprint with the alphabet.
//!
//! [`Calibration::for_config`] is the pure, fingerprinted entry point:
//! the calibration is a deterministic function of everything the
//! training simulation consumes ([`fingerprint`] spells that set out),
//! so a memo hit returns byte-identical means to a fresh recomputation
//! and enabling the cache can never change output bytes. Configurations
//! that differ anywhere — a different trial seed, a different noise
//! level — produce a different fingerprint and simply miss.
//!
//! Because campaign trials deliberately mix their per-trial seed into
//! the jitter/SoC seeds, a single fresh campaign pass shares nothing
//! and runs at cache-off speed; the memo pays off whenever the *same*
//! configurations recur in one process — re-running a catalog
//! (`campaign bench`'s cache-on arm), A/B twins that resolve to the
//! same tuning (`tests/receiver_invariance.rs`), figure harnesses
//! re-deriving a calibration, and resumed/repeated trials.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::symbols::Symbol;

use super::config::ChannelConfig;
use super::kind::ChannelKind;
use super::run::{ChannelError, IChannel, SymbolRun};

/// Per-level mean receiver durations learned during calibration, in TSC
/// cycles, plus nearest-mean decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    means: [f64; 4],
}

impl Calibration {
    /// Builds a calibration from per-symbol mean durations (TSC cycles).
    pub fn from_means(means: [f64; 4]) -> Self {
        Calibration { means }
    }

    /// Derives the calibration for a channel configuration through the
    /// process-wide memo cache: the first call for a given
    /// [`fingerprint`] runs the four per-level training transmissions,
    /// every later call returns the memoized (identical) means. A broken
    /// configuration (e.g. a slot period too short for the PHI loop)
    /// returns the [`ChannelError`] of the failing training run; errors
    /// are never cached.
    ///
    /// # Errors
    ///
    /// Propagates the [`ChannelError`] of a failing training run.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero or the kind/platform combination is
    /// unsupported.
    pub fn for_config(
        kind: ChannelKind,
        cfg: &ChannelConfig,
        reps: usize,
    ) -> Result<Self, ChannelError> {
        assert!(reps > 0, "calibration needs at least one repetition");
        let means = memoized_means(
            || fingerprint(kind, cfg, reps),
            || calibrate_uncached(kind, cfg, reps),
        )?;
        Ok(Calibration::from_means(std::array::from_fn(|i| {
            means.get(i).copied().unwrap_or(0.0)
        })))
    }

    /// Per-symbol mean durations (TSC cycles).
    pub fn means(&self) -> &[f64; 4] {
        &self.means
    }

    /// Decodes a measured duration by the nearest calibrated mean.
    pub fn decode(&self, duration_cycles: u64) -> Symbol {
        let d = duration_cycles as f64;
        let mut best = 0usize;
        let mut best_err = f64::INFINITY;
        for (i, m) in self.means.iter().enumerate() {
            let e = (d - m).abs();
            if e < best_err {
                best_err = e;
                best = i;
            }
        }
        Symbol::new(best as u8)
    }

    /// The three decision thresholds between the four level means
    /// (midpoints of the sorted means, TSC cycles) — the per-level
    /// thresholds the training preamble learns. Nearest-mean decoding
    /// is exactly thresholding against these.
    pub fn thresholds(&self) -> [f64; 3] {
        let mut sorted = self.means;
        sorted.sort_by(f64::total_cmp);
        [
            (sorted[0] + sorted[1]) / 2.0,
            (sorted[1] + sorted[2]) / 2.0,
            (sorted[2] + sorted[3]) / 2.0,
        ]
    }

    /// Decodes one symbol from repeated measurements of the same
    /// transaction (repeat-and-vote): each duration votes for its
    /// nearest mean, the plurality wins, and ties break toward the
    /// smallest total distance. With a single duration this is exactly
    /// [`Calibration::decode`].
    ///
    /// # Panics
    ///
    /// Panics if `durations` is empty.
    pub fn decode_vote(&self, durations: &[u64]) -> Symbol {
        assert!(!durations.is_empty(), "vote needs at least one sample");
        let mut counts = [0u32; 4];
        let mut total_err = [0.0f64; 4];
        for &d in durations {
            counts[self.decode(d).value() as usize] += 1;
            for (i, m) in self.means.iter().enumerate() {
                total_err[i] += (d as f64 - m).abs();
            }
        }
        let mut best = 0usize;
        for i in 1..4 {
            if counts[i] > counts[best]
                || (counts[i] == counts[best] && total_err[i] < total_err[best])
            {
                best = i;
            }
        }
        Symbol::new(best as u8)
    }

    /// Minimum separation between adjacent level means (TSC cycles) —
    /// the paper reports > 2 000 cycles on a low-noise system (§6.3).
    pub fn min_separation_cycles(&self) -> f64 {
        let mut sorted = self.means;
        sorted.sort_by(f64::total_cmp);
        sorted
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs the four per-level training transmissions on one re-armed
/// [`SymbolRun`] — the Soc-building invariants (instruction counts,
/// slot schedule) are derived once and reused across the four runs —
/// and returns the four level means.
fn calibrate_uncached(
    kind: ChannelKind,
    cfg: &ChannelConfig,
    reps: usize,
) -> Result<Vec<f64>, ChannelError> {
    let mut run = SymbolRun::new(&IChannel::new(kind, cfg.clone()));
    (0..4u8)
        .map(|level| {
            let durations = run.run(&vec![Symbol::new(level); reps], |_| {})?;
            Ok(durations.iter().map(|&d| d as f64).sum::<f64>() / reps as f64)
        })
        .collect()
}

/// The memo key of one calibration: a stable rendering of **exactly**
/// the inputs the training simulation consumes — the channel kind, the
/// repetition count, the **resolved** receiver tuning (so a
/// `Calibrated` mode that resolves to the identity tuning shares its
/// entry with an explicit `Legacy` mode — the two runs are provably
/// bit-identical), the transaction timing, the jitter seed/σ, and the
/// full SoC configuration (platform constants, governor, mitigations,
/// noise, SoC seed). Two configurations with equal fingerprints produce
/// byte-identical calibrations; anything that differs — a per-trial
/// seed, a knob override — changes the fingerprint and misses.
pub fn fingerprint(kind: ChannelKind, cfg: &ChannelConfig, reps: usize) -> String {
    let tuning = cfg.receiver.resolve(&cfg.soc.platform, kind);
    // lint:allow(D004): audited — the fingerprint is a process-local
    // memo key compared only for equality within one process; it is
    // never persisted, so Debug-format drift cannot corrupt artifacts.
    format!(
        "{kind:?}|reps={reps}|tuning={tuning:?}|slot={:?}|start={:?}|sender={:?}|recv={:?}|\
         xdelay={:?}|jitter={:?}|jseed={}|soc={:?}",
        cfg.slot_period,
        cfg.start_offset,
        cfg.sender_loop,
        cfg.receiver_loop,
        cfg.cross_core_delay,
        cfg.measurement_jitter,
        cfg.jitter_seed,
        cfg.soc,
    )
}

/// Hit/miss counters of the calibration memo. A "miss" is one executed
/// four-run training (whether or not the cache was enabled), so
/// `misses` counts the calibrations actually simulated by this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Calibrations served from the cache.
    pub hits: u64,
    /// Calibrations simulated (cache misses and disabled-cache runs).
    pub misses: u64,
}

/// Shards of the memo map. Lookups hash the fingerprint to pick a
/// shard, so concurrent workers probing different configurations no
/// longer serialize on one process-wide mutex.
const N_SHARDS: usize = 16;

/// Entries one shard holds before it is wholesale cleared (a clear only
/// costs retraining, never correctness).
const SHARD_CAPACITY: usize = 8_192 / N_SHARDS;

static ENABLED: AtomicBool = AtomicBool::new(true);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

// lint:allow(D001): the memo is only ever probed by exact key and
// wholesale cleared — nothing iterates it, so map order is
// unobservable in any output.
type Memo = std::collections::HashMap<String, Vec<f64>>;

fn shards() -> &'static [Mutex<Memo>; N_SHARDS] {
    static SHARDS: OnceLock<[Mutex<Memo>; N_SHARDS]> = OnceLock::new();
    SHARDS.get_or_init(|| std::array::from_fn(|_| Mutex::new(Memo::new())))
}

/// Locks the shard holding `key`, recovering from poisoning: the memo
/// holds only complete entries (each insert is a single call), so a
/// panic in another thread cannot leave a torn value behind. The shard
/// choice is a process-local routing decision — it never affects which
/// entries exist, only which mutex guards them.
fn shard_lock(key: &str) -> std::sync::MutexGuard<'static, Memo> {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    shards()[(h.finish() as usize) % N_SHARDS]
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The memo engine shared by the four-level [`Calibration`] and the
/// multi-level alphabet calibration: looks `key_fn()` up in the sharded
/// process-wide memo, running `train` (outside any lock) on a miss.
/// `key_fn` is only invoked while the memo is enabled, so the disabled
/// path never pays for fingerprint rendering.
///
/// # Errors
///
/// Propagates the training error; errors are never cached.
pub(crate) fn memoized_means<K, T>(key_fn: K, train: T) -> Result<Vec<f64>, ChannelError>
where
    K: FnOnce() -> String,
    T: FnOnce() -> Result<Vec<f64>, ChannelError>,
{
    ichannels_obs::counter_add("calibration.requests", 1);
    if !memo_enabled() {
        MISSES.fetch_add(1, Ordering::Relaxed);
        ichannels_obs::counter_add("calibration.memo_misses", 1);
        return train();
    }
    let key = key_fn();
    if let Some(hit) = shard_lock(&key).get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        ichannels_obs::counter_add("calibration.memo_hits", 1);
        return Ok(hit.clone());
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    ichannels_obs::counter_add("calibration.memo_misses", 1);
    // The training runs execute outside the lock so workers never
    // serialize on each other's simulations; two workers racing on
    // the same key compute identical means, so the double insert is
    // benign.
    let means = train()?;
    let mut map = shard_lock(&key);
    // Bound the memo: a long-lived process sweeping ever-fresh seeds
    // would otherwise grow it without limit. Dropping every entry is
    // always safe — the next lookup just retrains.
    if map.len() >= SHARD_CAPACITY {
        map.clear();
    }
    map.insert(key, means.clone());
    Ok(means)
}

/// True while the process-wide calibration memo is consulted (the
/// default).
pub fn memo_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables the calibration memo. Disabling never changes
/// results — every lookup is simply recomputed (what `campaign bench`
/// times as the cache-off arm).
pub fn set_memo_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Drops every memoized calibration and zeroes the hit/miss counters.
pub fn reset_memo() {
    for shard in shards() {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Snapshot of the memo counters.
pub fn memo_stats() -> MemoStats {
    MemoStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}
