//! Channel evaluation harness: bit-error rate, symbol error rate,
//! confusion matrices, and capacity (paper §6.2, §6.3).

use ichannels_meter::stats::ConfusionMatrix;
use ichannels_soc::sim::Soc;
use ichannels_uarch::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::channel::{Calibration, ChannelError, IChannel};
use crate::symbols::Symbol;

/// Evaluation result for one channel configuration.
#[derive(Debug, Clone)]
pub struct ChannelEval {
    /// Bit-error rate over the transmitted stream.
    pub ber: f64,
    /// Symbol-error rate.
    pub ser: f64,
    /// Gross throughput (bits/s): 2 bits per transaction.
    pub throughput_bps: f64,
    /// Effective capacity (bits/s): mutual information × symbol rate —
    /// what survives after errors.
    pub capacity_bps: f64,
    /// The 4×4 sent/received confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Number of symbols evaluated.
    pub n_symbols: usize,
}

/// The channel's effective symbol rate (symbols/s): one transaction
/// slot per symbol, stretched by the calibrated receiver's
/// repeat-and-vote count where one is in force.
pub fn symbol_rate(channel: &IChannel) -> f64 {
    1.0 / (channel.config().slot_period.as_secs() * channel.slots_per_symbol() as f64)
}

/// Draws `n` uniform random symbols.
pub fn random_symbols(n: usize, seed: u64) -> Vec<Symbol> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| Symbol::new(rng.gen_range(0..4))).collect()
}

/// Evaluates a channel over `n_symbols` random symbols.
///
/// # Errors
///
/// [`ChannelError::ReceiverMissedTransactions`] when the slot schedule
/// broke down before the run deadline.
pub fn evaluate(
    channel: &IChannel,
    cal: &Calibration,
    n_symbols: usize,
    seed: u64,
) -> Result<ChannelEval, ChannelError> {
    evaluate_with(channel, cal, n_symbols, seed, |_| {})
}

/// Evaluates a channel with a SoC setup hook (concurrent applications,
/// the §6.3 noise experiments).
///
/// # Errors
///
/// [`ChannelError::ReceiverMissedTransactions`] when the slot schedule
/// broke down before the run deadline.
pub fn evaluate_with<F>(
    channel: &IChannel,
    cal: &Calibration,
    n_symbols: usize,
    seed: u64,
    setup: F,
) -> Result<ChannelEval, ChannelError>
where
    F: FnOnce(&mut Soc),
{
    assert!(n_symbols > 0, "need at least one symbol");
    let tx = channel.transmit_symbols_with(&random_symbols(n_symbols, seed), cal, setup)?;
    let mut confusion = ConfusionMatrix::new(4);
    tx.record_into(&mut confusion);
    Ok(summarize(channel, confusion, tx.throughput_bps()))
}

/// Splits an evaluation into several independent transmissions (fresh
/// SoC per batch) and aggregates — closer to how the paper's 60 s runs
/// repeatedly re-synchronize.
///
/// # Errors
///
/// [`ChannelError::ReceiverMissedTransactions`] when the slot schedule
/// of any batch broke down before the run deadline.
pub fn evaluate_batched(
    channel: &IChannel,
    cal: &Calibration,
    batches: usize,
    symbols_per_batch: usize,
    seed: u64,
) -> Result<ChannelEval, ChannelError> {
    assert!(batches > 0 && symbols_per_batch > 0, "empty evaluation");
    let mut confusion = ConfusionMatrix::new(4);
    let mut elapsed = SimTime::ZERO;
    for b in 0..batches {
        let symbols = random_symbols(symbols_per_batch, seed.wrapping_add(b as u64));
        let tx = channel.transmit_symbols(&symbols, cal)?;
        tx.record_into(&mut confusion);
        elapsed += tx.elapsed;
    }
    let bps = (batches * symbols_per_batch) as f64 * 2.0 / elapsed.as_secs();
    Ok(summarize(channel, confusion, bps))
}

/// Derives the error rates and the capacity from the confusion matrix.
fn summarize(channel: &IChannel, confusion: ConfusionMatrix, throughput_bps: f64) -> ChannelEval {
    ChannelEval {
        ber: confusion.bit_error_rate_2bit(),
        ser: confusion.symbol_error_rate(),
        throughput_bps,
        capacity_bps: confusion.mutual_information_bits_corrected() * symbol_rate(channel),
        n_symbols: confusion.total() as usize,
        confusion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_system_has_near_zero_ber() {
        let ch = IChannel::icc_thread_covert();
        let cal = ch.calibrate(3).expect("clean schedule");
        let eval = evaluate(&ch, &cal, 40, 1).expect("clean schedule");
        assert!(eval.ber < 0.02, "ber = {}", eval.ber);
        assert!(eval.capacity_bps > 2_500.0, "cap = {}", eval.capacity_bps);
    }

    #[test]
    fn random_symbols_are_deterministic_per_seed() {
        assert_eq!(random_symbols(16, 9), random_symbols(16, 9));
        assert_ne!(random_symbols(16, 9), random_symbols(16, 10));
    }

    #[test]
    fn batched_evaluation_aggregates() {
        let ch = IChannel::icc_smt_covert();
        let cal = ch.calibrate(2).expect("clean schedule");
        let eval = evaluate_batched(&ch, &cal, 2, 8, 77).expect("clean schedule");
        assert_eq!(eval.n_symbols, 16);
        assert_eq!(eval.confusion.total(), 16);
        assert!(eval.throughput_bps > 2_000.0);
    }
}
