//! The calibration memo's two load-bearing guarantees:
//!
//! 1. **Purity** — `Calibration::for_config` is a pure function of the
//!    config fingerprint: memo hits, memo misses, and the disabled
//!    cache all produce identical means, for arbitrary kind × platform
//!    × seed × reps combinations (proptest).
//! 2. **Byte transparency** — running the whole quick catalog with the
//!    memo on produces JSONL byte-identical to running it with the
//!    memo off (the same shape as `tests/receiver_invariance.rs`), so
//!    the cache can never leak into recorded artifacts.
//!
//! The memo is process-global state, so every test here serializes on
//! one lock and restores the enabled default before releasing it.

use std::sync::{Mutex, MutexGuard};

use ichannels_repro::ichannels::channel::{
    calibration, Calibration, ChannelConfig, ChannelKind, IChannel,
};
use ichannels_repro::ichannels_lab::report::records_to_jsonl;
use ichannels_repro::ichannels_lab::{campaigns, Executor};
use ichannels_repro::ichannels_soc::config::{PlatformSpec, SocConfig};
use ichannels_repro::ichannels_uarch::time::Freq;
use proptest::prelude::*;

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

fn platform(idx: usize) -> PlatformSpec {
    match idx {
        0 => PlatformSpec::cannon_lake(),
        1 => PlatformSpec::coffee_lake(),
        2 => PlatformSpec::haswell(),
        _ => PlatformSpec::skylake_server(),
    }
}

fn kind(idx: usize) -> ChannelKind {
    [ChannelKind::Thread, ChannelKind::Smt, ChannelKind::Cores][idx]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `for_config` is a pure function of the fingerprint: the first
    /// (miss) and second (hit) memoized calls, the disabled-cache
    /// recomputation, and the `IChannel::calibrate` surface all agree;
    /// equal configs fingerprint equally and a reseeded config does
    /// not.
    #[test]
    fn for_config_is_pure_in_the_fingerprint(
        platform_idx in 0usize..4,
        kind_idx in 0usize..3,
        seed in any::<u64>(),
        reps in 1usize..3,
    ) {
        let spec = platform(platform_idx);
        let k = kind(kind_idx);
        prop_assume!(k != ChannelKind::Smt || spec.smt);
        let mut cfg = ChannelConfig::default_cannon_lake();
        let freq = spec.pstates.highest_not_above(Freq::from_ghz(2.0));
        cfg.soc = SocConfig::pinned(spec, freq);
        cfg.jitter_seed = seed;
        cfg.soc.seed = seed.rotate_left(17);

        let _guard = MemoGuard::acquire();
        calibration::set_memo_enabled(true);
        calibration::reset_memo();
        let miss = Calibration::for_config(k, &cfg, reps).expect("clean schedule");
        let hit = Calibration::for_config(k, &cfg, reps).expect("clean schedule");
        prop_assert_eq!(&miss, &hit);
        let stats = calibration::memo_stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);

        calibration::set_memo_enabled(false);
        let uncached = Calibration::for_config(k, &cfg, reps).expect("clean schedule");
        prop_assert_eq!(&miss, &uncached);
        let channel = IChannel::new(k, cfg.clone());
        prop_assert_eq!(&channel.calibrate(reps).expect("clean schedule"), &miss);
        calibration::set_memo_enabled(true);

        // Fingerprints: stable for equal configs, sensitive to seeds.
        let fp = calibration::fingerprint(k, &cfg, reps);
        prop_assert_eq!(&fp, &calibration::fingerprint(k, &cfg.clone(), reps));
        let mut reseeded = cfg.clone();
        reseeded.jitter_seed = seed.wrapping_add(1);
        prop_assert!(fp != calibration::fingerprint(k, &reseeded, reps));
    }
}

/// The whole quick catalog renders byte-identical JSONL with the memo
/// on and off — the cache is invisible in every recorded artifact.
#[test]
fn catalog_jsonl_is_byte_identical_with_memo_on_and_off() {
    let _guard = MemoGuard::acquire();
    for (name, grid) in campaigns::catalog(true) {
        let scenarios = grid.scenarios();
        calibration::set_memo_enabled(false);
        let off = Executor::new(4).run(&scenarios);
        calibration::set_memo_enabled(true);
        calibration::reset_memo();
        let on = Executor::new(4).run(&scenarios);
        assert_eq!(
            records_to_jsonl(&off),
            records_to_jsonl(&on),
            "{name}: the calibration memo leaked into trial bytes"
        );
    }
}

/// Re-running identical trials trains nothing: the second pass serves
/// every calibration from the memo (what `campaign bench` records as
/// the cache-on arm).
#[test]
fn repeated_runs_stop_training() {
    let _guard = MemoGuard::acquire();
    let (_, grid) = campaigns::catalog(true)
        .into_iter()
        .find(|(name, _)| *name == "client_vs_server")
        .expect("catalog campaign");
    let scenarios = grid.scenarios();
    calibration::set_memo_enabled(true);
    calibration::reset_memo();
    Executor::new(4).run(&scenarios);
    let warm = calibration::memo_stats();
    assert!(warm.misses > 0, "first pass must train");
    Executor::new(4).run(&scenarios);
    let second = calibration::memo_stats();
    assert_eq!(
        second.misses, warm.misses,
        "second pass must not re-train any cell"
    );
    assert!(second.hits > warm.hits, "second pass must hit the memo");
}
