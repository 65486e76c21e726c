//! The paper's §7 mitigations and their evaluation (Table 1).
//!
//! * **Per-core VR** — LDO rails per core: removes the cross-core SVID
//!   serialization entirely and shrinks same-thread/SMT throttling
//!   periods below the measurement noise floor (partial).
//! * **Improved core throttling** — gate only the PHI uops of the
//!   offending SMT thread: kills IccSMTcovert.
//! * **Secure mode** — pin the worst-case guardband: no voltage
//!   transitions, no throttling, all three channels die; costs static
//!   power (≈4 %/11 % for AVX2/AVX-512 parts).

use ichannels_soc::config::PlatformSpec;
use ichannels_uarch::isa::InstClass;

use crate::ber::{evaluate, ChannelEval};
use crate::channel::{ChannelConfig, ChannelError, ChannelKind, IChannel};

/// One of the three proposed mitigations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mitigation {
    /// Per-core (LDO) voltage regulators.
    PerCoreVr,
    /// Per-thread, PHI-only IDQ gating.
    ImprovedThrottling,
    /// Pinned worst-case voltage guardband.
    SecureMode,
}

impl Mitigation {
    /// All mitigations, in Table 1 order.
    pub const ALL: [Mitigation; 3] = [
        Mitigation::PerCoreVr,
        Mitigation::ImprovedThrottling,
        Mitigation::SecureMode,
    ];

    /// Table 1 label.
    pub const fn name(self) -> &'static str {
        match self {
            Mitigation::PerCoreVr => "Per-core VR",
            Mitigation::ImprovedThrottling => "Improved Throttling",
            Mitigation::SecureMode => "Secure-Mode",
        }
    }

    /// Table 1 overhead description.
    pub const fn overhead(self) -> &'static str {
        match self {
            Mitigation::PerCoreVr => "11%-13% more area",
            Mitigation::ImprovedThrottling => "Some design effort",
            Mitigation::SecureMode => "4%-11% additional power",
        }
    }

    /// Applies the mitigation to a channel configuration.
    pub fn apply(self, mut cfg: ChannelConfig) -> ChannelConfig {
        cfg.soc = match self {
            Mitigation::PerCoreVr => cfg.soc.with_per_core_vr(),
            Mitigation::ImprovedThrottling => cfg.soc.with_improved_throttling(),
            Mitigation::SecureMode => cfg.soc.with_secure_mode(),
        };
        cfg
    }
}

impl std::fmt::Display for Mitigation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// How well a mitigation neutralizes a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effectiveness {
    /// Channel capacity reduced to (near) zero.
    Full,
    /// Channel weakened substantially but not eliminated.
    Partial,
    /// Channel essentially unaffected.
    None,
}

impl std::fmt::Display for Effectiveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Effectiveness::Full => write!(f, "yes"),
            Effectiveness::Partial => write!(f, "partially"),
            Effectiveness::None => write!(f, "no"),
        }
    }
}

/// Classifies a mitigated channel evaluation against the unmitigated
/// capacity.
pub fn classify(mitigated: &ChannelEval, baseline: &ChannelEval) -> Effectiveness {
    classify_capacity(mitigated.capacity_bps, baseline.capacity_bps)
}

/// Classifies from bare capacities (bits/s) — the entry point for
/// callers that aggregate trials outside [`ChannelEval`] (for example
/// the `ichannels-lab` campaign engine).
pub fn classify_capacity(mitigated_bps: f64, baseline_bps: f64) -> Effectiveness {
    let residual = if baseline_bps > 0.0 {
        mitigated_bps / baseline_bps
    } else {
        0.0
    };
    if residual < 0.08 {
        Effectiveness::Full
    } else if residual < 0.75 {
        Effectiveness::Partial
    } else {
        Effectiveness::None
    }
}

/// Evaluation of one (mitigation, channel) cell of Table 1.
#[derive(Debug, Clone)]
pub struct MitigationOutcome {
    /// The mitigation applied.
    pub mitigation: Mitigation,
    /// The channel evaluated.
    pub channel: ChannelKind,
    /// Unmitigated reference evaluation.
    pub baseline: ChannelEval,
    /// Evaluation with the mitigation applied.
    pub mitigated: ChannelEval,
    /// Verdict.
    pub effectiveness: Effectiveness,
}

/// Evaluates one Table 1 cell with `n_symbols` random symbols.
/// The mitigated channel is *recalibrated* first — the attacker adapts.
///
/// # Errors
///
/// Propagates the [`ChannelError`] of a failing training or payload run.
pub fn evaluate_mitigation(
    mitigation: Mitigation,
    kind: ChannelKind,
    base_cfg: &ChannelConfig,
    n_symbols: usize,
    calib_reps: usize,
    seed: u64,
) -> Result<MitigationOutcome, ChannelError> {
    let base_channel = IChannel::new(kind, base_cfg.clone());
    let base_cal = base_channel.calibrate(calib_reps)?;
    let baseline = evaluate(&base_channel, &base_cal, n_symbols, seed)?;

    let mit_cfg = mitigation.apply(base_cfg.clone());
    let mit_channel = IChannel::new(kind, mit_cfg);
    let mit_cal = mit_channel.calibrate(calib_reps)?;
    let mitigated = evaluate(&mit_channel, &mit_cal, n_symbols, seed)?;

    let effectiveness = classify(&mitigated, &baseline);
    Ok(MitigationOutcome {
        mitigation,
        channel: kind,
        baseline,
        mitigated,
        effectiveness,
    })
}

/// Secure-mode power overhead for a system whose widest PHI class is
/// `widest`: the static power increase of pinning the worst-case
/// guardband, `((V + ΔV)/V)² − 1` (paper: up to 4 % for AVX2 systems,
/// 11 % for AVX-512 systems). Evaluated at the nominal (non-turbo)
/// operating point, where the system spends its time.
pub fn secure_mode_power_overhead(platform: &PlatformSpec, widest: InstClass) -> f64 {
    // Nominal frequency: the median P-state (turbo states are transient).
    let freqs = platform.pstates.freqs();
    let freq = freqs[freqs.len() / 2];
    let base_mv = platform.vf_curve.voltage_mv(freq);
    let gb = platform
        .guardband()
        .core_guardband_mv(widest, base_mv, freq);
    ((base_mv + gb) / base_mv).powi(2) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChannelConfig {
        ChannelConfig::default_cannon_lake()
    }

    #[test]
    fn secure_mode_kills_every_channel() {
        for kind in [ChannelKind::Thread, ChannelKind::Smt, ChannelKind::Cores] {
            let o = evaluate_mitigation(Mitigation::SecureMode, kind, &cfg(), 60, 2, 5)
                .expect("clean schedule");
            assert_eq!(
                o.effectiveness,
                Effectiveness::Full,
                "{kind}: residual capacity {}",
                o.mitigated.capacity_bps
            );
        }
    }

    #[test]
    fn improved_throttling_kills_smt_channel_only() -> Result<(), ChannelError> {
        let smt = evaluate_mitigation(
            Mitigation::ImprovedThrottling,
            ChannelKind::Smt,
            &cfg(),
            60,
            2,
            6,
        )?;
        assert_eq!(smt.effectiveness, Effectiveness::Full, "SMT should die");
        let thread = evaluate_mitigation(
            Mitigation::ImprovedThrottling,
            ChannelKind::Thread,
            &cfg(),
            60,
            2,
            6,
        )?;
        assert_eq!(
            thread.effectiveness,
            Effectiveness::None,
            "same-thread channel throttles itself and survives"
        );
        Ok(())
    }

    #[test]
    fn per_core_vr_kills_cross_core_channel() {
        let cores =
            evaluate_mitigation(Mitigation::PerCoreVr, ChannelKind::Cores, &cfg(), 60, 2, 7)
                .expect("clean schedule");
        assert_eq!(cores.effectiveness, Effectiveness::Full);
    }

    #[test]
    fn per_core_vr_weakens_thread_channel() {
        let thread =
            evaluate_mitigation(Mitigation::PerCoreVr, ChannelKind::Thread, &cfg(), 60, 3, 8)
                .expect("clean schedule");
        assert_ne!(
            thread.effectiveness,
            Effectiveness::None,
            "LDO TPs are sub-µs: channel must be at least weakened (residual {})",
            thread.mitigated.capacity_bps / thread.baseline.capacity_bps
        );
    }

    #[test]
    fn secure_mode_overhead_matches_paper_band() {
        let p = PlatformSpec::cannon_lake();
        let avx2 = secure_mode_power_overhead(&p, InstClass::Heavy256);
        let avx512 = secure_mode_power_overhead(&p, InstClass::Heavy512);
        // Paper: up to 4%/11% for AVX2/AVX512 systems.
        assert!((0.015..0.08).contains(&avx2), "avx2 overhead = {avx2}");
        assert!((0.05..0.16).contains(&avx512), "avx512 overhead = {avx512}");
        assert!(avx512 > avx2);
    }
}
