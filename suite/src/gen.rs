//! Seeded op-list generation. A workload is a grid of collective cases;
//! the seed jitters each case's message size, draws its fault seed, and
//! shuffles the order. The simulator receives only the ops
//! generated here, and the same seed always yields the same list.

use adapt_bench::FIG89_SIZES;
use adapt_collectives::Library;
use adapt_topology::{profiles, MachineSpec};

/// SplitMix64: a stateless-to-seed generator, so the op list is a pure
/// function of `--seed` and of nothing else in the build.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    Cori,
    Stampede2,
}

impl Machine {
    pub fn spec(self, nodes: u32) -> MachineSpec {
        match self {
            Machine::Cori => profiles::cori(nodes),
            Machine::Stampede2 => profiles::stampede2(nodes),
        }
    }

    pub fn ranks_per_node(self) -> u32 {
        match self {
            Machine::Cori => 32,
            Machine::Stampede2 => 48,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coll {
    Bcast,
    Reduce,
    Allreduce,
}

/// One generated collective: everything needed to build and run it.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub machine: Machine,
    pub nodes: u32,
    pub coll: Coll,
    /// `OmpiAdapt` for every allreduce (ADAPT's ring is the only one).
    pub library: Library,
    pub msg_bytes: u64,
    /// Uniform OS-noise duty cycle on every rank, in percent (0 = silent).
    pub noise_pct: f64,
    pub noise_seed: u64,
    /// Per-hop loss of the op's fault plan; `None` runs without a plan.
    pub loss: Option<f64>,
    pub fault_seed: u64,
    /// Production posture: streaming recorder and health monitor attached.
    pub observed: bool,
}

impl Op {
    pub fn nranks(&self) -> u32 {
        self.nodes * self.machine.ranks_per_node()
    }

    pub fn is_adapt(&self) -> bool {
        self.library == Library::OmpiAdapt
    }

    /// One line per op; the op-list determinism test compares these bytes.
    pub fn describe(&self) -> String {
        format!(
            "{:?}x{} {:?} {} {}B noise={}%/{:016x} loss={:?}/{:016x} observed={}",
            self.machine,
            self.nodes,
            self.coll,
            self.library.label(),
            self.msg_bytes,
            self.noise_pct,
            self.noise_seed,
            self.loss,
            self.fault_seed,
            self.observed
        )
    }
}

#[cfg(test)]
pub fn render(ops: &[Op]) -> String {
    ops.iter().map(|op| op.describe() + "\n").collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BcastPipeline,
    AllreduceNoisy,
    LibraryMix,
    BcastObservedLossy,
}

/// The Figure 9 library set.
const FIG9_LIBS: [Library; 7] = [
    Library::OmpiAdapt,
    Library::OmpiDefault,
    Library::OmpiDefaultTopo,
    Library::OmpiBlocking,
    Library::IntelMpi,
    Library::CrayMpi,
    Library::Mvapich,
];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BcastPipeline,
        Workload::AllreduceNoisy,
        Workload::LibraryMix,
        Workload::BcastObservedLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BcastPipeline => "bcast_pipeline",
            Workload::AllreduceNoisy => "allreduce_noisy",
            Workload::LibraryMix => "library_mix",
            Workload::BcastObservedLossy => "bcast_observed_lossy",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One round: every cell of the workload's grid once, sizes jittered
    /// by up to 2% below the nominal size, in seeded order.
    pub fn ops(self, seed: u64) -> Vec<Op> {
        let mut rng = SplitMix::new(seed ^ (self as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        // Jitter only downward: ADAPT's segment size steps up just above
        // 128 KiB and 1 MiB, and a case straddling a step would make the
        // round's cost bimodal across seeds.
        let jitter = |bytes: u64, rng: &mut SplitMix| -> u64 {
            let scaled = (bytes as f64 * (1.0 - 0.02 * rng.unit())) as u64;
            (scaled / 8).max(1) * 8
        };
        let base = Op {
            machine: Machine::Cori,
            nodes: 8,
            coll: Coll::Bcast,
            library: Library::OmpiAdapt,
            msg_bytes: 0,
            noise_pct: 0.0,
            noise_seed: 0,
            loss: None,
            fault_seed: 0,
            observed: false,
        };
        // Noise realizations do not follow the seed: one realization moves
        // an allreduce's cost by up to 3x, so seeded ones would swamp the
        // run-to-run comparison. The seed still moves sizes and order.
        let mut fixed = SplitMix::new(0x5EED);
        let mut ops = Vec::new();
        match self {
            Workload::BcastPipeline => {
                for nodes in [8, 16, 32] {
                    for size in FIG89_SIZES {
                        ops.push(Op {
                            nodes,
                            msg_bytes: jitter(size, &mut rng),
                            ..base.clone()
                        });
                    }
                }
            }
            Workload::AllreduceNoisy => {
                // 256 ranks: a rank stalled by noise keeps receiving the
                // ring's blocks, so the deferred-item cascade grows with
                // the ring and with the op's simulated length; at 192
                // ranks or 4-16 KiB it barely shows. Blocks stay 256 B-4 KiB.
                // Twenty ops a round: five rounds give the 100 samples a
                // p90 needs (see `MIN_TAIL_SAMPLES`) in about 30 s.
                for size in [64 << 10, 1 << 20] {
                    for noise_pct in [5.0, 10.0].repeat(5) {
                        ops.push(Op {
                            coll: Coll::Allreduce,
                            msg_bytes: jitter(size, &mut rng),
                            noise_pct,
                            noise_seed: fixed.next_u64(),
                            ..base.clone()
                        });
                    }
                }
            }
            Workload::LibraryMix => {
                for (machine, nodes) in [(Machine::Cori, 8), (Machine::Stampede2, 4)] {
                    for coll in [Coll::Bcast, Coll::Reduce] {
                        for library in FIG9_LIBS {
                            for size in LIBRARY_MIX_SIZES {
                                // The baselines post receives late, so a
                                // jittered size's short eager tail would
                                // arrive unexpected; they run Figure 9's
                                // exact sizes.
                                let msg_bytes = if library == Library::OmpiAdapt {
                                    jitter(size, &mut rng)
                                } else {
                                    size
                                };
                                ops.push(Op {
                                    machine,
                                    nodes,
                                    coll,
                                    library,
                                    msg_bytes,
                                    ..base.clone()
                                });
                            }
                        }
                    }
                }
            }
            Workload::BcastObservedLossy => {
                // Several fault seeds per cell: one loss pattern can double
                // a 64 KiB op's makespan, so a single draw per cell would
                // leave the workload's cost and latency seed-dominated.
                for loss in [0.0, 0.005, 0.01, 0.005, 0.01, 0.005, 0.01] {
                    for size in FIG89_SIZES {
                        ops.push(Op {
                            msg_bytes: jitter(size, &mut rng),
                            loss: Some(loss),
                            fault_seed: rng.next_u64(),
                            observed: true,
                            ..base.clone()
                        });
                    }
                }
            }
        }
        rng.shuffle(&mut ops);
        ops
    }
}

/// Sizes of the library comparison: the ends and the middle of the
/// Figure 9 range.
const LIBRARY_MIX_SIZES: [u64; 3] = [64 << 10, 512 << 10, 4 << 20];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_list_other_seed_other_list() {
        for w in Workload::ALL {
            let a = render(&w.ops(2018));
            assert_eq!(a, render(&w.ops(2018)), "{}", w.name());
            assert_ne!(a, render(&w.ops(2019)), "{}", w.name());
        }
    }

    #[test]
    fn jitter_stays_within_two_percent_below_nominal() {
        for op in Workload::BcastPipeline.ops(5) {
            let nominal = FIG89_SIZES
                .into_iter()
                .find(|&n| n >= op.msg_bytes)
                .expect("size at or below a Figure 8/9 size");
            assert!(
                op.msg_bytes as f64 >= nominal as f64 * 0.98,
                "{}",
                op.describe()
            );
            assert_eq!(op.msg_bytes % 8, 0);
        }
    }
}
