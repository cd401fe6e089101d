//! Library presets and the measurement harness.
//!
//! Maps each comparator of the paper's evaluation to a concrete
//! implementation on the simulated runtime, and provides the trial loop
//! (iterations × seeds × noise) every figure is generated from.
//!
//! ### Comparator emulation (documented substitutions, see DESIGN.md §1)
//!
//! | Paper series | Emulation |
//! |---|---|
//! | OMPI-adapt | ADAPT event-driven engine + single-communicator topology-aware chain tree |
//! | OMPI-default | Waitall engine + the `tuned` decision rules (topology-blind) |
//! | OMPI-default-topo | Waitall engine + the same topology-aware tree ADAPT uses |
//! | Intel MPI | Hierarchical multi-communicator SHM-based k-nomial (its topo default) |
//! | Intel-topo-« alg » | The named classic algorithm (binomial / recursive doubling / ring / SHM family / Shumilin / Rabenseifner) |
//! | Cray MPI | Blocking engine + topology-aware tree (fast vendor pipelining, heavy synchronization) |
//! | MVAPICH | Blocking engine + binomial tree (the Algorithm 1 pattern §2.2.3 attributes to MPICH/MVAPICH) |

use crate::blocking::{BlockingBcastSpec, BlockingReduceSpec};
use crate::exchange::{AllgatherKind, RabenseifnerReduceSpec, ScatterAllgatherBcastSpec};
use crate::hier::{HierBcastSpec, HierLevels, HierReduceSpec};
use crate::tuned;
use crate::waitall::{WaitallBcastSpec, WaitallReduceSpec};
use adapt_core::{
    topology_aware_tree, AdaptConfig, BcastSpec, ReduceData, ReduceExec, ReduceSpec,
    TopoTreeConfig, Tree, TreeKind,
};
use adapt_mpi::{FaultPlan, RankProgram, RunError, RunResult, World, WorldStats};
use adapt_noise::{ClusterNoise, NoiseSpec};
use adapt_obs::{Intervention, MemRecorder, Monitor, StreamRecorder};
use adapt_sim::audit::AuditReport;
use adapt_sim::rng::{MasterSeed, StreamTag};
use adapt_sim::time::Duration;
use adapt_sim::Summary;
use adapt_topology::{MachineSpec, Placement};
use std::num::NonZeroU32;
use std::sync::Arc;

/// Which collective operation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// One-to-all broadcast.
    Bcast,
    /// All-to-one reduction.
    Reduce,
}

/// Intel-MPI algorithm selector (the `I_MPI_ADJUST_*` families shown in
/// Figure 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IntelAlg {
    /// Plain binomial tree.
    Binomial,
    /// Scatter + recursive-doubling allgather (broadcast only).
    RecursiveDoubling,
    /// Scatter + ring allgather (broadcast only).
    Ring,
    /// SHM-based hierarchical, flat intra-socket shape.
    ShmFlat,
    /// SHM-based hierarchical, k-nomial intra-socket shape.
    ShmKnomial,
    /// SHM-based hierarchical, k-ary intra-socket shape.
    ShmKnary,
    /// SHM-based hierarchical, binomial intra-socket shape (reduce).
    ShmBinomial,
    /// Shumilin's reduce (emulated as a deeply pipelined binary tree; the
    /// vendor implementation is closed — see EXPERIMENTS.md).
    Shumilin,
    /// Rabenseifner's reduce (reduce-scatter + gather; falls back to a
    /// segmented binomial for non-power-of-two rank counts).
    Rabenseifner,
}

/// The libraries compared in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Library {
    /// ADAPT: event-driven engine + topology-aware tree.
    OmpiAdapt,
    /// Open MPI `tuned` module (Waitall engine, decision rules).
    OmpiDefault,
    /// `tuned`'s Waitall engine driven by ADAPT's topology-aware tree.
    OmpiDefaultTopo,
    /// Pure blocking baseline (Algorithm 1), for the dependency studies.
    OmpiBlocking,
    /// Intel MPI with topology awareness (default SHM-based k-nomial).
    IntelMpi,
    /// Intel MPI with an explicit algorithm selection.
    IntelTopo(IntelAlg),
    /// Cray MPI emulation.
    CrayMpi,
    /// MVAPICH emulation.
    Mvapich,
}

impl Library {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            Library::OmpiAdapt => "OMPI-adapt".into(),
            Library::OmpiDefault => "OMPI-default".into(),
            Library::OmpiDefaultTopo => "OMPI-default-topo".into(),
            Library::OmpiBlocking => "OMPI-blocking".into(),
            Library::IntelMpi => "Intel MPI".into(),
            Library::IntelTopo(a) => format!("Intel-topo-{a:?}"),
            Library::CrayMpi => "Cray MPI".into(),
            Library::Mvapich => "MVAPICH".into(),
        }
    }
}

/// One collective configuration to measure.
#[derive(Clone)]
pub struct CollectiveCase {
    /// Machine profile.
    pub machine: MachineSpec,
    /// Job size in ranks.
    pub nranks: u32,
    /// The operation.
    pub op: OpKind,
    /// The library preset.
    pub library: Library,
    /// Message size in bytes.
    pub msg_bytes: u64,
}

/// The intra-socket tree shape of an SHM-family Intel algorithm.
fn shm_socket_kind(alg: IntelAlg) -> TreeKind {
    match alg {
        IntelAlg::ShmFlat => TreeKind::Flat,
        IntelAlg::ShmKnomial => TreeKind::Knomial(4),
        IntelAlg::ShmKnary => TreeKind::Kary(4),
        IntelAlg::ShmBinomial => TreeKind::Binomial,
        other => panic!("{other:?} is not an SHM-family algorithm"),
    }
}

/// ADAPT's own segment-size choice: small messages keep enough segments
/// to fill the pipeline, while segments stay above the eager limit so the
/// window throttles the sender (an eager-sized segment storm would defeat
/// the M > N pre-posting rule with unexpected-message copies).
fn adapt_cfg(msg_bytes: u64) -> AdaptConfig {
    let seg = match msg_bytes {
        0..=131_072 => 16 * 1024,
        131_073..=1_048_576 => 32 * 1024,
        _ => 64 * 1024,
    };
    AdaptConfig::default().with_seg_size(seg)
}

impl CollectiveCase {
    fn placement(&self) -> Placement {
        Placement::block_cpu(self.machine.shape, self.nranks)
    }

    fn topo_tree(&self) -> Arc<Tree> {
        Arc::new(topology_aware_tree(
            &self.placement(),
            TopoTreeConfig::default(),
        ))
    }

    /// SHM-family hierarchical levels with the given socket shape.
    fn shm_levels(&self, socket: TreeKind) -> HierLevels {
        HierLevels {
            cluster: TreeKind::Binomial,
            node: TreeKind::Flat,
            socket,
            seg_size: 64 * 1024,
        }
    }

    fn hier_bcast_spec(&self, socket: TreeKind) -> HierBcastSpec {
        HierBcastSpec {
            placement: self.placement(),
            root: 0,
            msg_bytes: self.msg_bytes,
            levels: self.shm_levels(socket),
            data: None,
        }
    }

    fn hier_reduce_spec(&self, socket: TreeKind) -> HierReduceSpec {
        HierReduceSpec {
            placement: self.placement(),
            root: 0,
            msg_bytes: self.msg_bytes,
            levels: self.shm_levels(socket),
            data: None,
        }
    }

    /// The case as per-rank *phase lists*, for embedding into longer phase
    /// chains (back-to-back iterations, applications). Hierarchical
    /// libraries contribute their level phases; everything else is a
    /// single phase.
    pub fn phase_lists(&self) -> Vec<Vec<Box<dyn RankProgram>>> {
        let hier_socket = match (self.op, self.library) {
            (_, Library::IntelMpi) => Some(TreeKind::Knomial(4)),
            (_, Library::IntelTopo(alg))
                if matches!(
                    alg,
                    IntelAlg::ShmFlat
                        | IntelAlg::ShmKnomial
                        | IntelAlg::ShmKnary
                        | IntelAlg::ShmBinomial
                ) =>
            {
                Some(shm_socket_kind(alg))
            }
            _ => None,
        };
        match (self.op, hier_socket) {
            (OpKind::Bcast, Some(socket)) => self
                .hier_bcast_spec(socket)
                .phase_lists()
                .into_iter()
                .map(|(phases, _slot)| phases)
                .collect(),
            (OpKind::Reduce, Some(socket)) => self
                .hier_reduce_spec(socket)
                .phase_lists()
                .into_iter()
                .map(|(phases, _slot)| phases)
                .collect(),
            _ => self.programs().into_iter().map(|p| vec![p]).collect(),
        }
    }

    /// A plain CPU run of this case, with per-node noise when a caller
    /// sets a nonzero [`Noise::percent`].
    pub fn spec(&self) -> RunSpec {
        let case = self.clone();
        RunSpec::new(
            self.machine.clone(),
            self.nranks,
            Arc::new(move || case.programs()),
        )
    }

    /// Build the per-rank programs for this case (synthetic payloads).
    pub fn programs(&self) -> Vec<Box<dyn RankProgram>> {
        match self.op {
            OpKind::Bcast => self.bcast_programs(),
            OpKind::Reduce => self.reduce_programs(),
        }
    }

    fn bcast_programs(&self) -> Vec<Box<dyn RankProgram>> {
        let n = self.nranks;
        let msg = self.msg_bytes;
        match self.library {
            Library::OmpiAdapt => BcastSpec {
                tree: self.topo_tree(),
                msg_bytes: msg,
                cfg: adapt_cfg(msg),
                data: None,
            }
            .programs(),
            Library::OmpiDefault => {
                let d = tuned::bcast(n, msg);
                WaitallBcastSpec {
                    tree: Arc::new(Tree::build(d.tree, n, 0)),
                    msg_bytes: msg,
                    seg_size: d.seg_size,
                    data: None,
                }
                .programs()
            }
            Library::OmpiDefaultTopo => WaitallBcastSpec {
                tree: self.topo_tree(),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            }
            .programs(),
            Library::OmpiBlocking => BlockingBcastSpec {
                tree: Arc::new(Tree::build(TreeKind::Binomial, n, 0)),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            }
            .programs(),
            Library::IntelMpi => self.intel_bcast(IntelAlg::ShmKnomial),
            Library::IntelTopo(alg) => self.intel_bcast(alg),
            Library::CrayMpi => BlockingBcastSpec {
                tree: self.topo_tree(),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            }
            .programs(),
            Library::Mvapich => BlockingBcastSpec {
                tree: Arc::new(Tree::build(TreeKind::Binomial, n, 0)),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            }
            .programs(),
        }
    }

    fn intel_bcast(&self, alg: IntelAlg) -> Vec<Box<dyn RankProgram>> {
        let n = self.nranks;
        let msg = self.msg_bytes;
        match alg {
            IntelAlg::Binomial => WaitallBcastSpec {
                tree: Arc::new(Tree::build(TreeKind::Binomial, n, 0)),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            }
            .programs(),
            IntelAlg::RecursiveDoubling => ScatterAllgatherBcastSpec {
                nranks: n,
                msg_bytes: msg,
                allgather: AllgatherKind::RecursiveDoubling,
                data: None,
            }
            .programs(),
            IntelAlg::Ring => ScatterAllgatherBcastSpec {
                nranks: n,
                msg_bytes: msg,
                allgather: AllgatherKind::Ring,
                data: None,
            }
            .programs(),
            IntelAlg::ShmFlat
            | IntelAlg::ShmKnomial
            | IntelAlg::ShmKnary
            | IntelAlg::ShmBinomial => self.hier_bcast_spec(shm_socket_kind(alg)).programs(),
            IntelAlg::Shumilin | IntelAlg::Rabenseifner => {
                panic!("{alg:?} is a reduce algorithm")
            }
        }
    }

    fn reduce_programs(&self) -> Vec<Box<dyn RankProgram>> {
        let n = self.nranks;
        let msg = self.msg_bytes;
        match self.library {
            Library::OmpiAdapt => ReduceSpec {
                tree: self.topo_tree(),
                msg_bytes: msg,
                cfg: adapt_cfg(msg),
                data: ReduceData::Synthetic,
                exec: ReduceExec::Cpu,
            }
            .programs(),
            Library::OmpiDefault => {
                let d = tuned::reduce(n, msg);
                WaitallReduceSpec {
                    tree: Arc::new(Tree::build(d.tree, n, 0)),
                    msg_bytes: msg,
                    seg_size: d.seg_size,
                    data: None,
                }
                .programs()
            }
            Library::OmpiDefaultTopo => WaitallReduceSpec {
                tree: self.topo_tree(),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            }
            .programs(),
            Library::OmpiBlocking => BlockingReduceSpec {
                tree: Arc::new(Tree::build(TreeKind::Binomial, n, 0)),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            }
            .programs(),
            Library::IntelMpi => self.intel_reduce(IntelAlg::ShmKnomial),
            Library::IntelTopo(alg) => self.intel_reduce(alg),
            Library::CrayMpi => BlockingReduceSpec {
                tree: self.topo_tree(),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            }
            .programs(),
            Library::Mvapich => BlockingReduceSpec {
                tree: Arc::new(Tree::build(TreeKind::Binomial, n, 0)),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            }
            .programs(),
        }
    }

    fn intel_reduce(&self, alg: IntelAlg) -> Vec<Box<dyn RankProgram>> {
        let n = self.nranks;
        let msg = self.msg_bytes;
        match alg {
            IntelAlg::Binomial => WaitallReduceSpec {
                tree: Arc::new(Tree::build(TreeKind::Binomial, n, 0)),
                msg_bytes: msg,
                seg_size: 64 * 1024,
                data: None,
            }
            .programs(),
            IntelAlg::Shumilin => WaitallReduceSpec {
                tree: Arc::new(Tree::build(TreeKind::Binary, n, 0)),
                msg_bytes: msg,
                seg_size: 16 * 1024,
                data: None,
            }
            .programs(),
            IntelAlg::Rabenseifner => {
                if n.is_power_of_two() {
                    RabenseifnerReduceSpec {
                        nranks: n,
                        msg_bytes: msg,
                        data: None,
                    }
                    .programs()
                } else {
                    // Production libraries run a pre-phase for non-powers of
                    // two; we fall back to a segmented binomial.
                    WaitallReduceSpec {
                        tree: Arc::new(Tree::build(TreeKind::Binomial, n, 0)),
                        msg_bytes: msg,
                        seg_size: 64 * 1024,
                        data: None,
                    }
                    .programs()
                }
            }
            IntelAlg::ShmFlat
            | IntelAlg::ShmKnomial
            | IntelAlg::ShmKnary
            | IntelAlg::ShmBinomial => self.hier_reduce_spec(shm_socket_kind(alg)).programs(),
            IntelAlg::RecursiveDoubling | IntelAlg::Ring => {
                panic!("{alg:?} is a broadcast algorithm")
            }
        }
    }
}

/// Where noise is injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoiseScope {
    /// Independent noise process on every rank. The harshest reading of
    /// §5.1.1; a deep pipeline meets some rank's window almost always.
    AllRanks,
    /// One noisy rank per node (the core hosting the OS/daemon activity) —
    /// the kernel-injection methodology of Beckman et al. that the paper
    /// follows, and the scope that reproduces Figure 7's magnitudes.
    PerNode,
    /// A single noisy rank (used by the §2.1 dependency studies).
    SingleRank(u32),
    /// One noisy rank per every `k` nodes — a sparser daemon layout whose
    /// interference intensity matches the regime of the paper's Figure 7
    /// (see EXPERIMENTS.md E1 for the calibration study).
    SparseNodes(u32),
}

/// Noise injection for one run: average duty cycle in percent (0 =
/// silent), where it lands, and the master seed of the noise streams.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Noise {
    /// Average noise duty cycle in percent (5 and 10 in the paper's
    /// Figure 7).
    pub percent: f64,
    /// Where the noise lands.
    pub scope: NoiseScope,
    /// Master seed of the noise streams.
    pub seed: u64,
}

impl Noise {
    /// No noise at all.
    pub const SILENT: Noise = Noise {
        percent: 0.0,
        scope: NoiseScope::PerNode,
        seed: 1,
    };

    /// Build the per-rank noise model for a job of `nranks` ranks placed
    /// `ranks_per_node` to a node.
    fn model(&self, nranks: u32, ranks_per_node: u32) -> ClusterNoise {
        if self.percent <= 0.0 {
            return ClusterNoise::silent(nranks);
        }
        let spec = NoiseSpec::uniform_percent(self.percent);
        let seed = MasterSeed(self.seed);
        let per_node = ranks_per_node.max(1);
        match self.scope {
            NoiseScope::AllRanks => ClusterNoise::uniform(nranks, spec, seed),
            NoiseScope::PerNode => {
                let noisy: Vec<u32> = (0..nranks).step_by(per_node as usize).collect();
                ClusterNoise::on_ranks(nranks, &noisy, spec, seed)
            }
            NoiseScope::SingleRank(r) => ClusterNoise::single_rank(nranks, r, spec, seed),
            NoiseScope::SparseNodes(k) => {
                let stride = (per_node * k.max(1)) as usize;
                let noisy: Vec<u32> = (0..nranks)
                    .step_by(stride)
                    .map(|r| r + per_node / 2) // mid-node rank, away from leaders
                    .filter(|&r| r < nranks)
                    .collect();
                ClusterNoise::on_ranks(nranks, &noisy, spec, seed)
            }
        }
    }
}

/// Which processing elements the ranks are bound to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Device {
    /// One rank per CPU core ([`World::cpu`]).
    Cpu,
    /// One rank per GPU ([`World::gpu`]).
    Gpu,
}

/// What the run records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recording {
    /// No recorder: every probe is one predictable branch.
    Off,
    /// Full recording ([`MemRecorder`]) into [`RunResult::obs`], with
    /// gauges sampled every `metrics_interval_ns` when set.
    Full {
        /// Gauge sampling interval (ns); `None` samples nothing.
        metrics_interval_ns: Option<u64>,
    },
    /// Bounded-memory aggregation ([`StreamRecorder`]) into
    /// [`RunResult::summary`], with a flight ring of the last `flight`
    /// spans when set.
    Streaming {
        /// Flight-ring capacity in spans; `None` keeps no ring.
        flight: Option<usize>,
    },
}

/// Builds a fresh set of per-rank programs, one per rank. Shared, so a
/// spec can run more than once (repetitions, what-if re-runs).
pub type ProgramBuilder = Arc<dyn Fn() -> Vec<Box<dyn RankProgram>> + Send + Sync>;

/// Everything one run is made of: the job, its programs, and what is
/// attached to the world. Plain data; [`execute`] is the one way to run
/// it, on the CPU or on the GPU, faulted or not, recorded or not.
#[derive(Clone)]
pub struct RunSpec {
    /// Machine profile.
    pub machine: MachineSpec,
    /// Job size in ranks.
    pub nranks: u32,
    /// CPU or GPU placement.
    pub device: Device,
    /// The rank programs.
    pub programs: ProgramBuilder,
    /// OS noise.
    pub noise: Noise,
    /// Fault plan (lossy links, windows, stalls, kills).
    pub faults: Option<FaultPlan>,
    /// Progress-watchdog horizon.
    pub watchdog: Option<Duration>,
    /// Health-monitor snapshot interval (ns).
    pub monitor_ns: Option<u64>,
    /// Run with this what-if intervention applied (`--whatif`).
    pub intervention: Option<Intervention>,
    /// The recorder.
    pub recorder: Recording,
}

impl RunSpec {
    /// A plain run of `programs`: CPU placement, silent, nothing
    /// attached.
    pub fn new(machine: MachineSpec, nranks: u32, programs: ProgramBuilder) -> RunSpec {
        RunSpec {
            machine,
            nranks,
            device: Device::Cpu,
            programs,
            noise: Noise::SILENT,
            faults: None,
            watchdog: None,
            monitor_ns: None,
            intervention: None,
            recorder: Recording::Off,
        }
    }

    /// Ranks placed on one node.
    fn ranks_per_node(&self) -> u32 {
        let shape = self.machine.shape;
        shape.sockets_per_node
            * match self.device {
                Device::Cpu => shape.cores_per_socket,
                Device::Gpu => shape.gpus_per_socket,
            }
    }
}

/// Run a spec to completion. Fails with a typed [`RunError`] when the
/// run cannot complete (deadlock, watchdog, exhausted retries, failed
/// ranks, event cap), when it completes with a dirty invariant audit
/// ([`RunError::AuditFailed`]), or when the spec's link rescale matches
/// no link ([`RunError::NoSuchLink`]). Every other intervention is a
/// real configuration of the world. An `Ok` result is always
/// audit-clean.
pub fn execute(spec: &RunSpec) -> Result<RunResult, Box<RunError>> {
    let mut noise = spec.noise;
    let mut faults = spec.faults.clone();
    let mut silenced = None;
    match &spec.intervention {
        Some(Intervention::NoiseOff) => noise = Noise::SILENT,
        Some(Intervention::RankNoiseOff(r)) => silenced = Some(*r),
        Some(Intervention::StallsOff) => {
            if let Some(plan) = &mut faults {
                plan.stalls.clear();
            }
        }
        _ => {}
    }
    let mut noise = noise.model(spec.nranks, spec.ranks_per_node());
    if let Some(r) = silenced {
        noise.silence_rank(r);
    }
    let mut world = match spec.device {
        Device::Cpu => World::cpu(spec.machine.clone(), spec.nranks, noise),
        Device::Gpu => World::gpu(spec.machine.clone(), spec.nranks, noise),
    };
    match &spec.intervention {
        Some(Intervention::ScaleLink { pattern, factor }) => {
            let touched = world.prescale_links(*factor, 1.0 / *factor, |label| {
                label.starts_with(pattern.as_str())
            });
            if touched == 0 {
                return Err(Box::new(RunError::NoSuchLink {
                    pattern: pattern.clone(),
                }));
            }
        }
        Some(Intervention::ScaleLayer { layer, factor }) => {
            world = world.with_layer_scale(*layer, *factor);
        }
        _ => {}
    }
    if let Some(plan) = faults {
        world = world.with_faults(plan);
    }
    if let Some(horizon) = spec.watchdog {
        world = world.with_watchdog(horizon);
    }
    if let Some(ns) = spec.monitor_ns {
        world = world.with_monitor(Monitor::new(ns));
    }
    world = match spec.recorder {
        Recording::Off => world,
        Recording::Full {
            metrics_interval_ns: None,
        } => world.with_recorder(MemRecorder::new()),
        Recording::Full {
            metrics_interval_ns: Some(ns),
        } => world.with_recorder(MemRecorder::with_metrics(ns)),
        Recording::Streaming { flight } => {
            let rec = StreamRecorder::new();
            world.with_recorder(match flight {
                Some(n) => rec.with_flight(n),
                None => rec,
            })
        }
    };
    let res = world.try_run((spec.programs)())?;
    if !res.audit.is_clean() {
        return Err(Box::new(RunError::AuditFailed {
            audit: res.audit,
            flight: res.flight,
        }));
    }
    Ok(res)
}

/// Measurement configuration: a case plus noise and repetition settings.
#[derive(Clone)]
pub struct Trial {
    /// The collective under test.
    pub case: CollectiveCase,
    /// Average noise duty cycle in percent (0 = silent; 5 and 10 in the
    /// paper's Figure 7).
    pub noise_percent: f64,
    /// Where the noise lands.
    pub scope: NoiseScope,
    /// Back-to-back operations per measurement, IMB style: the collective
    /// repeats in one simulated world with noise running continuously, so
    /// skew from one iteration carries into the next — which is exactly
    /// what amplifies synchronization-heavy designs in Figure 7.
    pub iterations: NonZeroU32,
    /// Independent repetitions (fresh worlds, derived seeds).
    pub repeats: NonZeroU32,
    /// Master seed.
    pub seed: u64,
}

/// Result of a trial.
#[derive(Clone, Debug)]
pub struct TrialResult {
    /// Mean completion time in microseconds.
    pub mean_us: f64,
    /// Spread across iterations.
    pub min_us: f64,
    /// Spread across iterations.
    pub max_us: f64,
    /// Per-iteration times (microseconds).
    pub samples: Vec<f64>,
    /// Counters from the last iteration.
    pub stats: WorldStats,
    /// Invariant report from the last repetition (every repetition runs
    /// through [`execute`], so every report is clean).
    pub audit: AuditReport,
}

/// Run a full trial: `repeats` independent worlds, each timing
/// `iterations` back-to-back operations, reporting per-operation times.
/// Fails with the [`RunError`] of the first repetition that fails.
pub fn run_trial(trial: &Trial) -> Result<TrialResult, Box<RunError>> {
    let case = trial.case.clone();
    let iterations = trial.iterations.get();
    // Chain `iterations` copies of the collective per rank.
    let chained: ProgramBuilder = Arc::new(move || {
        let mut per_rank: Vec<Vec<Box<dyn RankProgram>>> =
            (0..case.nranks).map(|_| Vec::new()).collect();
        for _ in 0..iterations {
            for (r, phases) in case.phase_lists().into_iter().enumerate() {
                per_rank[r].extend(phases);
            }
        }
        per_rank
            .into_iter()
            .map(|phases| Box::new(crate::hier::PhasedProgram::new(phases)) as Box<dyn RankProgram>)
            .collect()
    });
    let mut samples = Vec::with_capacity(trial.repeats.get() as usize);
    let mut stats = WorldStats::default();
    let mut audit = AuditReport::default();
    for rep in 0..trial.repeats.get() {
        let spec = RunSpec {
            noise: Noise {
                percent: trial.noise_percent,
                scope: trial.scope,
                seed: MasterSeed(trial.seed).stream(StreamTag::Workload, rep as u64),
            },
            ..RunSpec::new(
                trial.case.machine.clone(),
                trial.case.nranks,
                chained.clone(),
            )
        };
        let res = execute(&spec)?;
        samples.push(res.makespan.as_micros_f64() / f64::from(iterations));
        stats = res.stats;
        audit = res.audit;
    }
    let summary: Summary = samples.iter().copied().collect();
    Ok(TrialResult {
        mean_us: summary.mean(),
        min_us: summary.min(),
        max_us: summary.max(),
        samples,
        stats,
        audit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_topology::profiles;

    fn mini_case(library: Library, op: OpKind, msg: u64) -> CollectiveCase {
        CollectiveCase {
            machine: profiles::minicluster(4, 2, 4),
            nranks: 32,
            op,
            library,
            msg_bytes: msg,
        }
    }

    /// Completion time (µs) of a plain run of `case`.
    fn run_us(case: &CollectiveCase) -> f64 {
        execute(&case.spec()).unwrap().makespan.as_micros_f64()
    }

    #[test]
    fn every_library_runs_both_ops() {
        let libs = [
            Library::OmpiAdapt,
            Library::OmpiDefault,
            Library::OmpiDefaultTopo,
            Library::OmpiBlocking,
            Library::IntelMpi,
            Library::CrayMpi,
            Library::Mvapich,
            Library::IntelTopo(IntelAlg::Binomial),
            Library::IntelTopo(IntelAlg::ShmFlat),
            Library::IntelTopo(IntelAlg::ShmKnomial),
            Library::IntelTopo(IntelAlg::ShmKnary),
        ];
        for lib in libs {
            for op in [OpKind::Bcast, OpKind::Reduce] {
                let case = mini_case(lib, op, 1 << 20);
                let us = run_us(&case);
                assert!(us > 0.0, "{} {:?}", lib.label(), op);
            }
        }
        // Broadcast-only and reduce-only algorithms.
        for alg in [IntelAlg::RecursiveDoubling, IntelAlg::Ring] {
            let case = mini_case(Library::IntelTopo(alg), OpKind::Bcast, 1 << 20);
            assert!(run_us(&case) > 0.0);
        }
        for alg in [
            IntelAlg::Shumilin,
            IntelAlg::Rabenseifner,
            IntelAlg::ShmBinomial,
        ] {
            let case = mini_case(Library::IntelTopo(alg), OpKind::Reduce, 1 << 20);
            assert!(run_us(&case) > 0.0);
        }
    }

    #[test]
    fn adapt_wins_large_message_broadcast() {
        let msg = 4 << 20;
        let adapt = run_us(&mini_case(Library::OmpiAdapt, OpKind::Bcast, msg));
        for lib in [Library::OmpiDefault, Library::IntelMpi, Library::Mvapich] {
            let other = run_us(&mini_case(lib, OpKind::Bcast, msg));
            assert!(
                adapt < other,
                "adapt {adapt:.1}us should beat {} {other:.1}us",
                lib.label()
            );
        }
    }

    #[test]
    fn noise_hurts_blocking_more_than_adapt() {
        let msg = 4 << 20;
        let slowdown = |lib: Library| {
            let clean = run_trial(&Trial {
                case: mini_case(lib, OpKind::Bcast, msg),
                noise_percent: 0.0,
                scope: NoiseScope::AllRanks,
                iterations: const { NonZeroU32::new(3).unwrap() },
                repeats: const { NonZeroU32::new(1).unwrap() },
                seed: 7,
            })
            .unwrap()
            .mean_us;
            let noisy = run_trial(&Trial {
                case: mini_case(lib, OpKind::Bcast, msg),
                noise_percent: 10.0,
                scope: NoiseScope::AllRanks,
                iterations: const { NonZeroU32::new(8).unwrap() },
                repeats: const { NonZeroU32::new(2).unwrap() },
                seed: 7,
            })
            .unwrap()
            .mean_us;
            noisy / clean
        };
        let adapt = slowdown(Library::OmpiAdapt);
        let blocking = slowdown(Library::Mvapich);
        assert!(
            adapt < blocking,
            "adapt slowdown {adapt:.2}x vs blocking {blocking:.2}x"
        );
    }

    #[test]
    fn trial_is_deterministic() {
        let trial = Trial {
            case: mini_case(Library::OmpiAdapt, OpKind::Bcast, 1 << 20),
            noise_percent: 5.0,
            scope: NoiseScope::PerNode,
            iterations: const { NonZeroU32::new(4).unwrap() },
            repeats: const { NonZeroU32::new(2).unwrap() },
            seed: 11,
        };
        assert_eq!(
            run_trial(&trial).unwrap().samples,
            run_trial(&trial).unwrap().samples
        );
    }

    #[test]
    fn phase_lists_cover_every_rank_and_flatten_hierarchies() {
        // Plain libraries: one phase per rank. Hierarchical: 1 + nodes +
        // sockets phases (non-participants no-op), so back-to-back chaining
        // never nests PhasedPrograms.
        let plain = mini_case(Library::OmpiAdapt, OpKind::Bcast, 1 << 20).phase_lists();
        assert_eq!(plain.len(), 32);
        assert!(plain.iter().all(|p| p.len() == 1));
        let hier = mini_case(Library::IntelMpi, OpKind::Bcast, 1 << 20).phase_lists();
        assert_eq!(hier.len(), 32);
        // minicluster(4,2,4): 1 cluster + 4 node + 8 socket groups.
        assert!(hier.iter().all(|p| p.len() == 13), "got {}", hier[0].len());
    }

    /// Rank 0 sends one eager message that rank 1 never receives.
    struct Orphan;
    impl RankProgram for Orphan {
        fn on_start(&mut self, ctx: &mut dyn adapt_mpi::ProgramCtx) {
            if ctx.rank() == 0 {
                ctx.isend(1, 0, adapt_mpi::Payload::Synthetic(64), adapt_mpi::Token(0));
            } else {
                ctx.finish();
            }
        }
        fn on_completion(&mut self, ctx: &mut dyn adapt_mpi::ProgramCtx, _: adapt_mpi::Completion) {
            ctx.finish();
        }
    }

    #[test]
    fn a_dirty_audit_is_a_typed_error() {
        let spec = RunSpec::new(
            profiles::minicluster(1, 1, 2),
            2,
            Arc::new(|| vec![Box::new(Orphan) as Box<dyn RankProgram>, Box::new(Orphan)]),
        );
        let err = execute(&spec)
            .err()
            .expect("an unreceived send is not clean");
        let RunError::AuditFailed { audit, flight } = *err else {
            panic!("expected AuditFailed, got {err}");
        };
        assert!(!audit.is_clean());
        assert!(flight.is_none(), "no recorder, no flight ring");
    }

    #[test]
    fn stalls_off_reruns_the_plan_without_its_stalls() {
        let at = |us| adapt_sim::time::Time::ZERO + Duration::from_micros(us);
        let case = mini_case(Library::OmpiAdapt, OpKind::Bcast, 1 << 16);
        let stalled = RunSpec {
            faults: Some(FaultPlan::lossy(1, 0.0).with_stall(3, at(0), at(500))),
            ..case.spec()
        };
        let unstalled = RunSpec {
            intervention: Some(Intervention::StallsOff),
            ..stalled.clone()
        };
        let slow = execute(&stalled).unwrap().makespan;
        let fast = execute(&unstalled).unwrap().makespan;
        assert!(slow > Duration::from_micros(500), "{slow}");
        assert_eq!(fast, execute(&case.spec()).unwrap().makespan);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Library::OmpiAdapt.label(), "OMPI-adapt");
        assert_eq!(
            Library::IntelTopo(IntelAlg::Rabenseifner).label(),
            "Intel-topo-Rabenseifner"
        );
    }
}
