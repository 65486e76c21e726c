//! Head-to-head shootout: the three IChannels covert channels against
//! the four state-of-the-art baselines (the live version of Figure 12
//! and Table 2).
//!
//! Run with: `cargo run --release --example baseline_shootout`

use ichannels::baselines::dfscovert::DfsCovertChannel;
use ichannels::baselines::netspectre::NetSpectreChannel;
use ichannels::baselines::powert::PowerTChannel;
use ichannels::baselines::turbocc::TurboCcChannel;
use ichannels::ber::evaluate;
use ichannels::channel::{ChannelError, IChannel};

fn main() -> Result<(), ChannelError> {
    println!(
        "{:<18} {:>10} {:>8} {:>10}   mechanism",
        "channel", "bits/s", "BER", "vs best"
    );
    let mut results: Vec<(String, f64, f64, &str)> = Vec::new();

    for (name, ch, mech) in [
        (
            "IccThreadCovert",
            IChannel::icc_thread_covert(),
            "multi-level TP, same thread",
        ),
        (
            "IccSMTcovert",
            IChannel::icc_smt_covert(),
            "IDQ co-throttling across SMT",
        ),
        (
            "IccCoresCovert",
            IChannel::icc_cores_covert(),
            "serialized VR transitions across cores",
        ),
    ] {
        let cal = ch.calibrate(3)?;
        let ev = evaluate(&ch, &cal, 30, 1)?;
        results.push((name.to_string(), ev.throughput_bps, ev.ber, mech));
    }

    let ns = NetSpectreChannel::default_cannon_lake();
    let cal = ns.calibrate(2);
    let tx = ns.transmit(&[true, false, true, true, false, true], cal);
    results.push((
        "NetSpectre".into(),
        tx.throughput_bps,
        tx.bit_error_rate(),
        "single-level TP, same thread",
    ));

    let turbo = TurboCcChannel::default();
    let cal = turbo.calibrate(1);
    let tx = turbo.transmit(&[true, false, true], cal);
    results.push((
        "TurboCC".into(),
        tx.throughput_bps,
        tx.bit_error_rate(),
        "turbo-license frequency changes (ms)",
    ));

    let pt = PowerTChannel::default();
    let bits = [true, false, true, false];
    let (dec, bps) = pt.transmit(&bits);
    let ber = bits.iter().zip(&dec).filter(|(a, b)| a != b).count() as f64 / bits.len() as f64;
    results.push((
        "POWERT".into(),
        bps,
        ber,
        "power-budget frequency clamp (ms)",
    ));

    let dfs = DfsCovertChannel::default();
    let (dec, bps) = dfs.transmit(&bits);
    let ber = bits.iter().zip(&dec).filter(|(a, b)| a != b).count() as f64 / bits.len() as f64;
    results.push((
        "DFScovert".into(),
        bps,
        ber,
        "governor frequency modulation (10s of ms)",
    ));

    let best = results
        .iter()
        .map(|(_, bps, _, _)| *bps)
        .fold(0.0f64, f64::max);
    for (name, bps, ber, mech) in &results {
        println!(
            "{:<18} {:>10.0} {:>8.3} {:>9.1}x   {}",
            name,
            bps,
            ber,
            best / bps,
            mech
        );
    }
    println!();
    println!("the current-management channels sit three orders of magnitude");
    println!("above the governor/thermal-era channels — because voltage ramps");
    println!("settle in microseconds, not milliseconds (paper §6.2)");
    Ok(())
}
