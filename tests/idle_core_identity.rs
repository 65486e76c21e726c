//! Stepping only the cores in use is pinned bit-identical to stepping
//! every core on the package.
//!
//! `Soc` walks only the cores spawned on since `new`/`rearm`; every
//! other core is still as constructed and contributes nothing an event
//! could observe. This suite checks that claim differentially: the
//! reference run first spawns an immediately-halting program on every
//! hardware thread at t=0, which puts every core in the in-use set (the
//! full scan) and changes no other state; the lazy run does not. Both
//! then replay the same schedule across platform × noise × governor ×
//! spawn order, and every observable surface must match bitwise: the
//! sampled trace, every context's retired count, the end instant,
//! F/V/I/T and the number of events stepped.
//!
//! Two oracles close the gaps a differential test cannot see, because
//! both runs share them: once every license has decayed the package
//! rail must be back at its base voltage (a stale PMU decay memo leaves
//! it raised), and a core that halted stays in use, so its AVX gate
//! closes when its license decays and a re-run pays the wake again.

use ichannels_repro::ichannels_soc::config::{PlatformSpec, SocConfig, TraceConfig};
use ichannels_repro::ichannels_soc::noise::NoiseConfig;
use ichannels_repro::ichannels_soc::program::{Action, Script};
use ichannels_repro::ichannels_soc::sim::Soc;
use ichannels_repro::ichannels_soc::trace::Sample;
use ichannels_repro::ichannels_uarch::isa::InstClass;
use ichannels_repro::ichannels_uarch::time::{Freq, SimTime};
use proptest::prelude::*;

fn platform(idx: usize) -> PlatformSpec {
    match idx {
        0 => PlatformSpec::cannon_lake(),
        1 => PlatformSpec::coffee_lake(),
        2 => PlatformSpec::haswell(),
        _ => PlatformSpec::skylake_server(),
    }
}

fn noise(idx: usize) -> NoiseConfig {
    let mut n = NoiseConfig::quiet();
    match idx {
        0 => {}
        1 => n.interrupt_rate_hz = 20_000.0,
        _ => {
            n.interrupt_rate_hz = 50_000.0;
            n.ctx_switch_rate_hz = 5_000.0;
        }
    }
    n
}

/// The two hardware threads the schedule uses, in spawn order. Order 1
/// spawns a high core before a low one (core 27 then core 3 on the
/// server); order 2 puts both on one core's SMT siblings where the
/// platform has SMT.
fn threads(spec: &PlatformSpec, order: usize) -> [(usize, usize); 2] {
    let hi = spec.n_cores - 1;
    let lo = 3.min(spec.n_cores - 2);
    match order {
        0 => [(lo, 0), (hi, 0)],
        1 => [(hi, 0), (lo, 0)],
        _ if spec.smt => [(hi, 0), (hi, 1)],
        _ => [(hi, 0), (lo, 0)],
    }
}

fn config(platform_idx: usize, noise_idx: usize, pinned: bool, seed: u64) -> SocConfig {
    let spec = platform(platform_idx);
    let mut cfg = if pinned {
        let freq = spec.pstates.highest_not_above(Freq::from_ghz(2.0));
        SocConfig::pinned(spec, freq)
    } else {
        SocConfig::quiet(spec)
    };
    cfg.noise = noise(noise_idx);
    cfg.seed = seed;
    cfg.trace = TraceConfig {
        sample_period: Some(SimTime::from_us(10.0)),
    };
    cfg
}

/// Everything a run exposes; compared with exact (bitwise) `f64`
/// equality.
#[derive(Debug, PartialEq)]
struct Observed {
    end: SimTime,
    samples: Vec<Sample>,
    retired: Vec<f64>,
    freq: Freq,
    vcc_mv: f64,
    icc_a: f64,
    temp_c: f64,
    events: u64,
}

/// Puts every core in the in-use set without touching any other state.
fn touch_every_core(soc: &mut Soc) {
    let spec = &soc.config().platform;
    let (n_cores, smt) = (spec.n_cores, spec.threads_per_core());
    for core in 0..n_cores {
        for t in 0..smt {
            soc.spawn(core, t, Box::new(Script::new(vec![Action::Halt], "halt")));
        }
    }
}

/// The shared schedule: thread `a` runs a license-raising AVX2 loop
/// and halts; thread `b` raises a higher license while `a` is still
/// throttled (on a shared rail both wait on it), then runs scalar code.
/// After every license has decayed, `a`'s core runs an AVX loop again,
/// and the run continues until that license has decayed too.
fn drive(soc: &mut Soc, [a, b]: [(usize, usize); 2]) -> Observed {
    let reset = soc.config().platform.reset_time;
    soc.spawn(
        a.0,
        a.1,
        Box::new(Script::run_loop(InstClass::Heavy256, 20_000)),
    );
    soc.spawn(
        b.0,
        b.1,
        Box::new(Script::new(
            vec![
                Action::SleepFor(SimTime::from_us(2.0)),
                Action::Run {
                    class: InstClass::Heavy512,
                    instructions: 10_000,
                },
                Action::SleepFor(SimTime::from_us(30.0)),
                Action::Run {
                    class: InstClass::Scalar64,
                    instructions: 50_000,
                },
                Action::Halt,
            ],
            "b",
        )),
    );
    soc.run_until_idle(SimTime::from_ms(3.0));
    soc.run_until(soc.now() + reset + SimTime::from_us(50.0));
    soc.spawn(
        a.0,
        a.1,
        Box::new(Script::run_loop(InstClass::Light256, 8_000)),
    );
    let deadline = soc.now() + SimTime::from_ms(3.0);
    soc.run_until_idle(deadline);
    let end = soc.now();
    soc.run_until(end + reset + SimTime::from_us(50.0));

    let spec = &soc.config().platform;
    let (n_cores, smt) = (spec.n_cores, spec.threads_per_core());
    Observed {
        end,
        samples: soc.trace().samples().to_vec(),
        retired: (0..n_cores)
            .flat_map(|c| (0..smt).map(move |t| (c, t)))
            .map(|(c, t)| soc.inst_retired(c, t))
            .collect(),
        freq: soc.freq(),
        vcc_mv: soc.vcc_mv(),
        icc_a: soc.icc_a(),
        temp_c: soc.temp_c(),
        events: soc.events_stepped(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lazy run reproduces the full-scan reference bit for bit, and
    /// every license has decayed back to the base voltage at the end.
    #[test]
    fn idle_cores_are_skipped_without_changing_a_bit(
        platform_idx in 0usize..4,
        noise_idx in 0usize..3,
        pinned in any::<bool>(),
        order in 0usize..3,
        seed in any::<u64>(),
    ) {
        let cfg = config(platform_idx, noise_idx, pinned, seed);
        let used = threads(&cfg.platform, order);

        let mut full = Soc::new(cfg.clone());
        touch_every_core(&mut full);
        prop_assert_eq!(full.events_stepped(), 0);
        let want = drive(&mut full, used);

        let mut lazy = Soc::new(cfg);
        let got = drive(&mut lazy, used);
        prop_assert_eq!(&want, &got);

        // Both runs share the PMU's decay memo, so check it against the
        // physics: with every license expired, the rail is at base.
        prop_assert!(got.events > 0);
        prop_assert_eq!(lazy.pmu().package_setpoint_mv(), lazy.pmu().base_mv());

        // A re-armed simulator restarts the counter and replays the run.
        lazy.rearm();
        prop_assert_eq!(lazy.events_stepped(), 0);
        prop_assert_eq!(drive(&mut lazy, used), got);
    }
}

/// Duration of an AVX loop spawned on (`core`, 0) at the current
/// instant.
fn avx_loop(soc: &mut Soc, core: usize) -> SimTime {
    let start = soc.now();
    soc.spawn(
        core,
        0,
        Box::new(Script::run_loop(InstClass::Light256, 8_000)),
    );
    soc.run_until_idle(start + SimTime::from_ms(3.0)) - start
}

/// A core whose program halted is still in use: when its license
/// decays its AVX gate closes, so a later AVX loop pays the gate wake
/// exactly like the first loop on a fresh simulator.
#[test]
fn a_halted_core_closes_its_gate_when_its_license_decays() {
    for spec in PlatformSpec::all() {
        if spec.avx_pg_wake.is_none() {
            continue;
        }
        let name = spec.name;
        let core = spec.n_cores - 1;
        let freq = spec.pstates.highest_not_above(Freq::from_ghz(2.0));
        let reset = spec.reset_time;
        let mut soc = Soc::new(SocConfig::pinned(spec, freq));
        let first = avx_loop(&mut soc, core);
        soc.run_until(soc.now() + reset + SimTime::from_us(50.0));
        let again = avx_loop(&mut soc, core);
        assert_eq!(first, again, "{name}: the re-run skipped the gate wake");
    }
}
