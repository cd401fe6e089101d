//! # adapt-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the ADAPT reproduction: a virtual clock, a
//! deterministic event queue, seeded randomness plumbing, and measurement
//! helpers. Everything above this crate (network model, MPI runtime,
//! collective algorithms) is expressed as events scheduled on the
//! [`EventQueue`].
//!
//! Determinism contract: given identical inputs and an identical
//! [`rng::MasterSeed`], a simulation built on this crate
//! produces identical virtual-time results on every run.

pub mod audit;
pub mod fxhash;
pub mod park;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use audit::{AuditReport, RankAudit};
pub use park::ParkedBands;
pub use queue::{EventKey, EventQueue, QueueAudit};
pub use rng::{MasterSeed, StreamTag};
pub use stats::Summary;
pub use time::{Duration, Time};
