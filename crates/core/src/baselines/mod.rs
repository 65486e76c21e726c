//! State-of-the-art covert channels the paper compares against
//! (Figure 12, Table 2): NetSpectre's same-thread AVX gadget, TurboCC's
//! turbo-frequency channel, DFScovert's governor channel, and POWERT's
//! power-budget channel.
//!
//! NetSpectre and TurboCC run end-to-end on the full SoC simulator;
//! DFScovert and POWERT are modelled directly over the governor/P-state
//! and power-limit state machines (their original attack surfaces —
//! sysfs writes and package power budgeting — have no in-process
//! counterpart; see DESIGN.md).

pub mod dfscovert;
pub mod netspectre;
pub mod powert;
pub mod turbocc;

pub use dfscovert::{DfsCovertChannel, DfsCovertConfig};
pub use netspectre::NetSpectreChannel;
pub use powert::{PowerTChannel, PowerTConfig};
pub use turbocc::{TurboCcChannel, TurboCcConfig};

/// A decoded transmission of a one-bit-per-slot simulated baseline
/// (NetSpectre, TurboCC).
#[derive(Debug, Clone)]
pub struct BitTx {
    /// Bits sent.
    pub sent: Vec<bool>,
    /// Bits decoded.
    pub received: Vec<bool>,
    /// Raw receiver durations (TSC cycles), one per bit.
    pub durations: Vec<u64>,
    /// Throughput in bits/s.
    pub throughput_bps: f64,
}

impl BitTx {
    /// Decodes `durations` by the nearer of the calibrated
    /// `(mean_one, mean_zero)` durations.
    fn decode(sent: &[bool], durations: Vec<u64>, cal: (f64, f64), throughput_bps: f64) -> Self {
        let received = durations
            .iter()
            .map(|&d| {
                let d = d as f64;
                (d - cal.0).abs() < (d - cal.1).abs()
            })
            .collect();
        BitTx {
            sent: sent.to_vec(),
            received,
            durations,
            throughput_bps,
        }
    }

    /// Fraction of wrong bits.
    pub fn bit_error_rate(&self) -> f64 {
        if self.sent.is_empty() {
            return 0.0;
        }
        let wrong = self
            .sent
            .iter()
            .zip(&self.received)
            .filter(|(a, b)| a != b)
            .count();
        wrong as f64 / self.sent.len() as f64
    }
}

/// Calibrates the two duration levels of a one-bit channel by running
/// `reps` ones, then `reps` zeros: returns `(mean_one, mean_zero)` in
/// TSC cycles.
fn two_level_means(run_bits: impl Fn(&[bool]) -> Vec<u64>, reps: usize) -> (f64, f64) {
    let mean = |v: Vec<u64>| v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64;
    (
        mean(run_bits(&vec![true; reps])),
        mean(run_bits(&vec![false; reps])),
    )
}
