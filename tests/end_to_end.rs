//! End-to-end covert transmissions across channels, platforms, noise
//! conditions, and coding schemes.

use ichannels_repro::ichannels::ber::{evaluate, random_symbols};
use ichannels_repro::ichannels::channel::{ChannelConfig, ChannelKind, IChannel};
use ichannels_repro::ichannels::ecc::{check_frame, frame_with_crc, Hamming74, Repetition3};
use ichannels_repro::ichannels::symbols::{bits_to_bytes, bytes_to_bits, symbols_to_bits};
use ichannels_repro::ichannels_soc::config::{PlatformSpec, SocConfig};
use ichannels_repro::ichannels_soc::noise::NoiseConfig;
use ichannels_repro::ichannels_uarch::time::Freq;

#[test]
fn all_three_channels_transfer_a_byte_error_free() {
    let payload = [0b1011_0010u8];
    let bits = bytes_to_bits(&payload);
    for ch in [
        IChannel::icc_thread_covert(),
        IChannel::icc_smt_covert(),
        IChannel::icc_cores_covert(),
    ] {
        let cal = ch.calibrate(2).expect("clean schedule");
        let tx = ch.transmit_bits(&bits, &cal).expect("clean schedule");
        assert_eq!(
            bits_to_bytes(&symbols_to_bits(&tx.received)),
            payload,
            "{} corrupted the payload",
            ch.kind()
        );
        assert!(tx.throughput_bps() > 2_500.0);
    }
}

#[test]
fn channel_capacity_is_about_24x_powert() {
    // §6.2 headline: ~2.9 kb/s ≈ 24× the 122 b/s of POWERT.
    let ch = IChannel::icc_smt_covert();
    let cal = ch.calibrate(2).expect("clean schedule");
    let ev = evaluate(&ch, &cal, 30, 3).expect("clean schedule");
    let ratio = ev.throughput_bps / 122.0;
    assert!((20.0..28.0).contains(&ratio), "ratio = {ratio}");
}

#[test]
fn cross_core_channel_works_on_all_platforms() {
    for platform in PlatformSpec::all() {
        let freq = platform.pstates.highest_not_above(Freq::from_ghz(2.0));
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.soc = SocConfig::pinned(platform.clone(), freq);
        let ch = IChannel::new(ChannelKind::Cores, cfg);
        let cal = ch.calibrate(2).expect("clean schedule");
        let symbols = random_symbols(8, 9);
        let tx = ch.transmit_symbols(&symbols, &cal).expect("clean schedule");
        assert_eq!(
            tx.received, symbols,
            "cross-core channel failed on {}",
            platform.name
        );
    }
}

#[test]
fn low_noise_system_has_near_zero_ber() {
    let mut ch = IChannel::icc_thread_covert();
    ch.config_mut().soc = ch.config().soc.clone().with_noise(NoiseConfig::low());
    let cal = ch.calibrate(3).expect("clean schedule");
    let ev = evaluate(&ch, &cal, 60, 5).expect("clean schedule");
    assert!(ev.ber < 0.03, "BER = {}", ev.ber);
}

#[test]
fn heavy_noise_degrades_but_repetition_code_recovers() {
    let mut ch = IChannel::icc_smt_covert();
    ch.config_mut().soc = ch
        .config()
        .soc
        .clone()
        .with_noise(NoiseConfig::ctx_switches_only(1_500.0));
    let cal = ch.calibrate(3).expect("clean schedule");

    let data = [true, false, true, true, false, false, true, false];
    let coded = Repetition3.encode(&data);
    // A repetition triple spans 1.5 symbols, so a single unlucky symbol
    // hit can defeat the code within one transmission; §6.3's remedy is
    // to retransmit. The sender repeats until a transmission decodes
    // clean (bounded), mirroring the one-way-link protocol. Each retry
    // happens later in time, i.e. under fresh noise arrivals, so the
    // SoC seed advances per attempt.
    let base_seed = ch.config().soc.seed;
    let mut recovered = None;
    let mut raw_bers = Vec::new();
    for attempt in 0..4u64 {
        ch.config_mut().soc.seed = base_seed.wrapping_add(attempt);
        let tx = ch.transmit_bits(&coded, &cal).expect("clean schedule");
        raw_bers.push(tx.bit_error_rate());
        let decoded = Repetition3.decode(&symbols_to_bits(&tx.received));
        if decoded == data {
            recovered = Some(decoded);
            break;
        }
    }
    assert_eq!(
        recovered.as_deref(),
        Some(&data[..]),
        "raw BERs were {raw_bers:?}"
    );
}

#[test]
fn crc_framed_hamming_transfer_under_noise() {
    let mut ch = IChannel::icc_cores_covert();
    ch.config_mut().soc = ch.config().soc.clone().with_noise(NoiseConfig::low());
    let cal = ch.calibrate(2).expect("clean schedule");
    let payload = b"key=42";
    let framed = frame_with_crc(payload);
    let mut bits = bytes_to_bits(&framed);
    while !bits.len().is_multiple_of(4) {
        bits.push(false);
    }
    let coded = Hamming74.encode(&bits);
    let mut channel_bits = coded.clone();
    if !channel_bits.len().is_multiple_of(2) {
        channel_bits.push(false);
    }
    let tx = ch
        .transmit_bits(&channel_bits, &cal)
        .expect("clean schedule");
    let mut rx = symbols_to_bits(&tx.received);
    rx.truncate(coded.len());
    let mut bytes = bits_to_bytes(&Hamming74.decode(&rx));
    bytes.truncate(framed.len());
    assert_eq!(check_frame(&bytes), Some(&payload[..]));
}

#[test]
fn transmissions_are_deterministic_given_seeds() {
    let run = || {
        let ch = IChannel::icc_thread_covert();
        let cal = ch.calibrate(2).expect("clean schedule");
        ch.transmit_symbols(&random_symbols(12, 7), &cal)
            .expect("clean schedule")
            .durations
    };
    assert_eq!(run(), run());
}

#[test]
fn channel_works_at_any_pinned_frequency() {
    // §5.7 / Table 2: the mechanism is turbo-independent — it works at
    // low frequencies too (unlike TurboCC).
    for ghz in [1.0, 1.8, 2.2] {
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.soc = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(ghz));
        let ch = IChannel::new(ChannelKind::Thread, cfg);
        let cal = ch.calibrate(2).expect("clean schedule");
        let symbols = random_symbols(8, 11);
        let tx = ch.transmit_symbols(&symbols, &cal).expect("clean schedule");
        assert_eq!(tx.received, symbols, "failed at {ghz} GHz");
    }
}
