//! Input derivation: every input a workload hands the lab is a pure
//! function of the workload seed, a domain, and an index.

/// Which stream of inputs a seed is drawn for. Domains never share a
/// seed, so (for example) a warm-up pass can never pre-fill the
/// calibration memo for a timed pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Set-up repetition `rep` (warm-up passes, generated data).
    Setup(u32),
    /// The passes whose inputs every run shares: timed passes of an
    /// untraced run, traced passes of a traced run.
    Pass,
    /// The untraced twin passes of a traced run (the overhead base).
    Twin,
}

impl Domain {
    fn tag(self) -> u64 {
        match self {
            Domain::Setup(rep) => 0x5E70_0000 + u64::from(rep),
            Domain::Pass => 0x9A55,
            Domain::Twin => 0x7C1A,
        }
    }
}

/// One pass of a run: its domain and its index within that domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassId {
    /// Input domain.
    pub domain: Domain,
    /// Index within the domain.
    pub index: u64,
}

impl PassId {
    /// The pass whose outputs the output checks re-derive.
    pub const CHECKED: PassId = PassId {
        domain: Domain::Pass,
        index: 0,
    };
}

/// SplitMix64 finaliser.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of input `item` of pass `pass` under workload seed `seed`.
pub fn derive(seed: u64, pass: PassId, item: u64) -> u64 {
    let mut h = splitmix(seed);
    for v in [pass.domain.tag(), pass.index, item] {
        h = splitmix(h ^ v);
    }
    h
}

/// 64-bit FNV-1a, rendered as 16 hex digits: the output digests.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for part in parts {
        for &b in part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Separate parts so ("ab", "c") and ("a", "bc") differ.
        h = (h ^ 0xFF).wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}
