//! A reliable message protocol over the covert channel.
//!
//! §6.3 sketches three noise mitigations: averaging over repeated sends,
//! error-correcting codes, and transmitting during quiet periods. This
//! module combines the first two into a practical one-way link (the
//! receiver has no way to ACK): the payload is split into frames, each
//! frame carries a sequence number, a Hamming(7,4)-coded body, and a
//! CRC-8; the sender repeats the whole message `redundancy` times and
//! the receiver keeps, per sequence number, the first copy whose CRC
//! checks out.

use crate::channel::{Calibration, ChannelError, IChannel};
use crate::ecc::{check_frame, frame_with_crc, Hamming74};
use crate::symbols::{bits_to_bytes, bits_to_symbols, bytes_to_bits, symbols_to_bits, Symbol};

/// Maximum payload bytes per frame.
pub const FRAME_PAYLOAD: usize = 8;

/// One protocol frame: `[seq, len, payload…]` + CRC, Hamming-coded.
fn encode_frame(seq: u8, payload: &[u8]) -> Vec<Symbol> {
    assert!(payload.len() <= FRAME_PAYLOAD, "payload too large");
    let mut raw = Vec::with_capacity(2 + FRAME_PAYLOAD);
    raw.push(seq);
    raw.push(payload.len() as u8);
    raw.extend_from_slice(payload);
    raw.resize(2 + FRAME_PAYLOAD, 0); // fixed-size frames simplify sync
    let framed = frame_with_crc(&raw);
    let bits = bytes_to_bits(&framed);
    let coded = Hamming74.encode(&bits); // 11 bytes → 88 bits → 154 bits
    let mut padded = coded;
    if !padded.len().is_multiple_of(2) {
        padded.push(false);
    }
    bits_to_symbols(&padded)
}

/// Symbols per encoded frame (fixed because frames are fixed-size).
pub fn frame_symbols() -> usize {
    encode_frame(0, &[]).len()
}

/// Attempts to decode one frame; `None` when the CRC fails.
fn decode_frame(symbols: &[Symbol]) -> Option<(u8, Vec<u8>)> {
    let bits = symbols_to_bits(symbols);
    let coded_len = (2 + FRAME_PAYLOAD + 1) * 8 / 4 * 7; // bytes → Hamming bits
    let coded = &bits[..coded_len.min(bits.len())];
    let data_bits = Hamming74.decode(coded);
    let bytes = bits_to_bytes(&data_bits);
    let frame = &bytes[..(2 + FRAME_PAYLOAD + 1).min(bytes.len())];
    let raw = check_frame(frame)?;
    let seq = raw[0];
    let len = raw[1] as usize;
    if len > FRAME_PAYLOAD {
        return None;
    }
    Some((seq, raw[2..2 + len].to_vec()))
}

/// Transfer statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Total frames transmitted (including repeats).
    pub frames_sent: usize,
    /// Frames whose CRC failed at the receiver.
    pub frames_corrupt: usize,
    /// Distinct frames recovered.
    pub frames_recovered: usize,
}

/// A one-way reliable link over an [`IChannel`].
#[derive(Debug)]
pub struct FramedLink<'a> {
    channel: &'a IChannel,
    cal: &'a Calibration,
    /// How many times the whole message is repeated (§6.3: "send the
    /// secret value many times").
    pub redundancy: usize,
}

impl<'a> FramedLink<'a> {
    /// Creates a link with the given redundancy (≥1).
    ///
    /// # Panics
    ///
    /// Panics if `redundancy` is zero.
    pub fn new(channel: &'a IChannel, cal: &'a Calibration, redundancy: usize) -> Self {
        assert!(redundancy >= 1, "redundancy must be at least 1");
        FramedLink {
            channel,
            cal,
            redundancy,
        }
    }

    /// Sends `payload` and returns what the receiver reconstructed plus
    /// link statistics. `None` payload bytes indicate unrecoverable
    /// frames (all copies corrupt).
    ///
    /// # Errors
    ///
    /// [`ChannelError::ReceiverMissedTransactions`] when a frame's slot
    /// schedule broke down before the run deadline.
    ///
    /// # Panics
    ///
    /// Panics if the payload needs more than 256 frames.
    pub fn transfer(&self, payload: &[u8]) -> Result<(Option<Vec<u8>>, LinkStats), ChannelError> {
        let chunks: Vec<&[u8]> = payload.chunks(FRAME_PAYLOAD).collect();
        assert!(chunks.len() <= 256, "payload too large for u8 sequence");
        let mut stats = LinkStats {
            frames_sent: 0,
            frames_corrupt: 0,
            frames_recovered: 0,
        };
        let mut recovered: Vec<Option<Vec<u8>>> = vec![None; chunks.len()];
        for round in 0..self.redundancy {
            for (seq, chunk) in chunks.iter().enumerate() {
                if recovered[seq].is_some() {
                    continue; // receiver already has this frame
                }
                // Every repeat happens later in wall-clock time, so it
                // must see fresh OS-noise arrivals: advance the SoC seed
                // per round. (Replaying the identical noise stream would
                // make redundancy useless against a deterministic hit.)
                let mut channel = self.channel.clone();
                channel.config_mut().soc.seed =
                    self.channel.config().soc.seed.wrapping_add(round as u64);
                let symbols = encode_frame(seq as u8, chunk);
                let tx = channel.transmit_symbols(&symbols, self.cal)?;
                stats.frames_sent += 1;
                match decode_frame(&tx.received) {
                    Some((rx_seq, data)) if rx_seq as usize == seq => {
                        recovered[seq] = Some(data);
                        stats.frames_recovered += 1;
                    }
                    _ => stats.frames_corrupt += 1,
                }
            }
        }
        let message = recovered
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .map(|frames| frames.concat());
        Ok((message, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ichannels_soc::noise::NoiseConfig;

    #[test]
    fn frame_round_trip() {
        let symbols = encode_frame(7, b"covert");
        let (seq, data) = decode_frame(&symbols).expect("clean frame decodes");
        assert_eq!(seq, 7);
        assert_eq!(data, b"covert");
    }

    #[test]
    fn corrupt_frame_is_rejected() {
        let mut symbols = encode_frame(3, b"payload!");
        // Flip three symbols (beyond Hamming's correction budget).
        for i in [0, 10, 20] {
            let v = symbols[i].value() ^ 0b11;
            symbols[i] = Symbol::new(v);
        }
        assert_eq!(decode_frame(&symbols), None);
    }

    #[test]
    fn clean_link_transfers_in_one_round() {
        let ch = IChannel::icc_smt_covert();
        let cal = ch.calibrate(2).expect("clean schedule");
        let link = FramedLink::new(&ch, &cal, 2);
        let payload = b"attack at dawn";
        let (rx, stats) = link.transfer(payload).expect("clean schedule");
        assert_eq!(rx.as_deref(), Some(&payload[..]));
        assert_eq!(stats.frames_corrupt, 0);
        assert_eq!(stats.frames_recovered, 2); // 14 bytes = 2 frames
        assert_eq!(stats.frames_sent, 2); // no repeats needed
    }

    #[test]
    fn noisy_link_recovers_via_redundancy() {
        let mut ch = IChannel::icc_thread_covert();
        ch.config_mut().soc = ch
            .config()
            .soc
            .clone()
            .with_noise(NoiseConfig::ctx_switches_only(2_000.0));
        let cal = ch.calibrate(3).expect("clean schedule");
        // At 2000 ctx-switches/s roughly every other frame takes an
        // uncorrectable hit; a deep redundancy budget is what makes the
        // one-way link reliable (§6.3: "send the secret value many
        // times").
        let link = FramedLink::new(&ch, &cal, 12);
        let payload = b"0123456789abcdef";
        let (rx, stats) = link.transfer(payload).expect("clean schedule");
        assert_eq!(rx.as_deref(), Some(&payload[..]), "stats = {stats:?}");
        assert!(
            stats.frames_corrupt > 0,
            "noise should corrupt at least one frame copy"
        );
    }
}
