//! # adapt-net — flow-level network model
//!
//! Models every in-flight message as a *flow* across a path of hardware
//! lanes (shared-memory pipes, inter-socket buses, NICs, PCIe directions).
//! Concurrent flows share each lane's bandwidth equally (processor
//! sharing; a flow drains at the minimum share along its path), which is
//! what produces the congestion phenomena the ADAPT paper reasons about —
//! e.g. three flows on one PCIe direction each seeing a third of the
//! bandwidth (§4.1), or a Waitall forcing heterogeneous lanes to the speed
//! of the slowest (§3.2.2).
//!
//! The per-lane cost model is Hockney's `α + m/β`: each link contributes
//! propagation latency α, and the bandwidth phase runs at the allotted
//! share of β.

pub mod fabric;
pub mod flow;
pub mod links;

pub use fabric::Fabric;
pub use flow::{Delivery, FlowId, FlowScheduler, FlowSpec, NetPerf, NetStep, Network};
pub use links::{Link, LinkClass, LinkId, Path, MAX_PATH};
