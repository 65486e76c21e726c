//! Demonstrates the three §7 mitigations against all three channels —
//! the Table 1 story as a live experiment.
//!
//! For each (mitigation × channel) pair the attacker *recalibrates*
//! against the defended system (worst case for the defender) and we
//! measure what capacity survives.
//!
//! Run with: `cargo run --release --example mitigation_demo`

use ichannels::channel::{ChannelConfig, ChannelError, ChannelKind};
use ichannels::mitigations::{evaluate_mitigation, secure_mode_power_overhead, Mitigation};
use ichannels_soc::config::PlatformSpec;
use ichannels_uarch::isa::InstClass;

fn main() -> Result<(), ChannelError> {
    let base = ChannelConfig::default_cannon_lake();
    let kinds = [ChannelKind::Thread, ChannelKind::Smt, ChannelKind::Cores];

    println!(
        "{:<22} {:<16} {:>12} {:>12} {:>8}  verdict",
        "mitigation", "channel", "base b/s", "defended b/s", "BER"
    );
    for mitigation in Mitigation::ALL {
        for kind in kinds {
            let o = evaluate_mitigation(mitigation, kind, &base, 40, 2, 0xD1CE)?;
            println!(
                "{:<22} {:<16} {:>12.0} {:>12.0} {:>8.3}  {}",
                mitigation.name(),
                kind.name(),
                o.baseline.capacity_bps,
                o.mitigated.capacity_bps,
                o.mitigated.ber,
                o.effectiveness
            );
        }
        println!("{:<22} overhead: {}", "", mitigation.overhead());
        println!();
    }

    let p = PlatformSpec::cannon_lake();
    println!(
        "secure-mode static power cost: {:.1}% (AVX2 system) / {:.1}% (AVX-512 system)",
        secure_mode_power_overhead(&p, InstClass::Heavy256) * 100.0,
        secure_mode_power_overhead(&p, InstClass::Heavy512) * 100.0
    );
    println!("(compare: SGX costs up to 79% performance / 67% energy, §7)");
    Ok(())
}
