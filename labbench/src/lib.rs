//! The IChannels lab benchmark.
//!
//! Drives the lab from outside, through its public entry points only,
//! on three workloads (see README.md): `catalog_cold`,
//! `fuzz_recurring` and `analyze_merge`. An untraced run reports the
//! end-to-end metrics; a traced run reports the per-layer metrics from
//! the benchmark's own spans plus the lab's `ichannels_obs` telemetry.

pub mod clock;
pub mod inputs;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
