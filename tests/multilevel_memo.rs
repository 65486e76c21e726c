//! The multi-level channel's per-alphabet training is memoized through
//! the same process-wide calibration memo as `Calibration::for_config`
//! (PR 10), with the alphabet folded into the fingerprint. Mirrors
//! `tests/calibration_cache.rs` for the `MultiLevelChannel` surface:
//!
//! 1. **Purity** — memo hits, misses, and the disabled cache all
//!    produce identical per-digit means, and distinct alphabets train
//!    distinct memo cells.
//! 2. **Byte transparency** — the `modulation_capacity` campaign (the
//!    one BENCH_5 showed flat at ~1.0× because multi-level training
//!    bypassed the memo) renders byte-identical JSONL with the memo on
//!    and off.
//!
//! The memo is process-global state, so every test here serializes on
//! one lock and restores the enabled default before releasing it.

use std::sync::{Mutex, MutexGuard};

use ichannels_repro::ichannels::channel::{calibration, ChannelConfig, ChannelKind};
use ichannels_repro::ichannels::extended::{LevelAlphabet, MultiLevelChannel};
use ichannels_repro::ichannels_lab::campaigns;
use ichannels_repro::ichannels_lab::report::records_to_jsonl;
use ichannels_repro::ichannels_lab::Executor;

static MEMO_LOCK: Mutex<()> = Mutex::new(());

/// Serializes memo-global tests and restores the default (enabled)
/// state however the test exits.
struct MemoGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl MemoGuard {
    fn acquire() -> Self {
        let guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        MemoGuard(guard)
    }
}

impl Drop for MemoGuard {
    fn drop(&mut self) {
        calibration::set_memo_enabled(true);
    }
}

fn channel(alphabet: LevelAlphabet) -> MultiLevelChannel {
    MultiLevelChannel::new(
        ChannelKind::Thread,
        ChannelConfig::default_cannon_lake(),
        alphabet,
    )
}

/// Multi-level calibration is a pure function of the (config,
/// alphabet) fingerprint: the miss, the hit, and the disabled-cache
/// recomputation all agree, and a different alphabet occupies a
/// different memo cell.
#[test]
fn multilevel_calibrate_is_pure_in_the_memo() {
    let _guard = MemoGuard::acquire();
    calibration::set_memo_enabled(true);
    calibration::reset_memo();

    let ch = channel(LevelAlphabet::paper4());
    let miss = ch.calibrate(1).expect("clean schedule");
    let after_miss = calibration::memo_stats();
    assert_eq!(after_miss.misses, 1, "first calibrate must train");

    let hit = ch.calibrate(1).expect("clean schedule");
    let after_hit = calibration::memo_stats();
    assert_eq!(after_hit.hits, 1, "second calibrate must hit the memo");
    assert_eq!(miss, hit);

    // A different alphabet is a different memo cell: it trains anew
    // rather than serving the paper4 means.
    let other = channel(LevelAlphabet::phi6());
    let other_means = other.calibrate(1).expect("clean schedule");
    let after_other = calibration::memo_stats();
    assert_eq!(
        after_other.misses, 2,
        "a new alphabet must train its own cell"
    );
    assert_ne!(miss.len(), other_means.len());

    // Disabled cache recomputes the identical bytes.
    calibration::set_memo_enabled(false);
    let uncached = ch.calibrate(1).expect("clean schedule");
    assert_eq!(miss, uncached);
}

/// The campaign that motivated this memo extension renders
/// byte-identical JSONL with the memo on and off — the cache can never
/// leak into recorded artifacts.
#[test]
fn modulation_capacity_jsonl_is_byte_identical_with_memo_on_and_off() {
    let _guard = MemoGuard::acquire();
    let (name, grid) = campaigns::catalog(true)
        .into_iter()
        .find(|(name, _)| *name == "modulation_capacity")
        .expect("catalog campaign");
    let scenarios = grid.scenarios();
    calibration::set_memo_enabled(false);
    let off = Executor::new(4).run(&scenarios);
    calibration::set_memo_enabled(true);
    calibration::reset_memo();
    let on = Executor::new(4).run(&scenarios);
    assert_eq!(
        records_to_jsonl(&off),
        records_to_jsonl(&on),
        "{name}: the multi-level calibration memo leaked into trial bytes"
    );

    // And a second memo-on pass trains nothing: the per-alphabet means
    // are all served from the memo (this is precisely what BENCH_5
    // could not do when multi-level training bypassed the cache).
    let warm = calibration::memo_stats();
    assert!(warm.misses > 0, "first pass must train");
    Executor::new(4).run(&scenarios);
    let second = calibration::memo_stats();
    assert_eq!(
        second.misses, warm.misses,
        "second pass must not re-train any multi-level cell"
    );
    assert!(second.hits > warm.hits, "second pass must hit the memo");
}
