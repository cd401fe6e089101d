//! # adapt-noise — system-noise injection
//!
//! Reproduces the noise model of the paper's §5.1.1: each rank suffers
//! preemption *windows* at a fixed frequency (10 Hz) with uniformly
//! distributed durations (0–10 ms for an average 5% duty cycle, 0–20 ms
//! for 10%), mirroring the kernel-injection methodology of Beckman et al.
//! that the paper cites.
//!
//! During a window the rank's CPU makes no progress: callbacks are
//! deferred and in-progress handler work is stretched. In-flight network
//! transfers continue (DMA does not need the host CPU) — this asymmetry
//! is exactly what lets ADAPT's outstanding operations absorb noise while
//! synchronization-heavy baselines amplify it.

pub mod model;

pub use model::{ClusterNoise, NoiseSpec, RankNoise};
