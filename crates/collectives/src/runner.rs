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
use adapt_mpi::{FaultPlan, RankProgram, RunResult, World, WorldStats};
use adapt_noise::{ClusterNoise, NoiseSpec};
use adapt_sim::audit::AuditReport;
use adapt_sim::rng::{MasterSeed, StreamTag};
use adapt_sim::Summary;
use adapt_topology::{MachineSpec, Placement};
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
    pub iterations: u32,
    /// Independent repetitions (fresh worlds, derived seeds).
    pub repeats: u32,
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
    /// Invariant report from the last repetition (every repetition is
    /// asserted clean as it runs).
    pub audit: AuditReport,
}

/// Build the noise model for a case.
pub fn noise_for_case(
    case: &CollectiveCase,
    scope: NoiseScope,
    noise_percent: f64,
    seed: u64,
) -> ClusterNoise {
    if noise_percent <= 0.0 {
        return ClusterNoise::silent(case.nranks);
    }
    let spec = NoiseSpec::uniform_percent(noise_percent);
    match scope {
        NoiseScope::AllRanks => ClusterNoise::uniform(case.nranks, spec, MasterSeed(seed)),
        NoiseScope::PerNode => {
            let per_node =
                case.machine.shape.sockets_per_node * case.machine.shape.cores_per_socket;
            let noisy: Vec<u32> = (0..case.nranks).step_by(per_node.max(1) as usize).collect();
            ClusterNoise::on_ranks(case.nranks, &noisy, spec, MasterSeed(seed))
        }
        NoiseScope::SingleRank(r) => {
            ClusterNoise::single_rank(case.nranks, r, spec, MasterSeed(seed))
        }
        NoiseScope::SparseNodes(k) => {
            let per_node =
                case.machine.shape.sockets_per_node * case.machine.shape.cores_per_socket;
            let stride = (per_node * k.max(1)) as usize;
            let noisy: Vec<u32> = (0..case.nranks)
                .step_by(stride.max(1))
                .map(|r| r + per_node / 2) // mid-node rank, away from leaders
                .filter(|&r| r < case.nranks)
                .collect();
            ClusterNoise::on_ranks(case.nranks, &noisy, spec, MasterSeed(seed))
        }
    }
}

/// Run one iteration of a case (per-node noise scope) and return its
/// completion time (µs).
///
/// This is the path the benchmark barometer's `fig8_quick_bcast_256`
/// acceptance scenario times with recording compiled in but disabled —
/// changes that slow it show up in `bench diff` against the committed
/// ledger (`results/barometer.jsonl`).
pub fn run_once(case: &CollectiveCase, noise_percent: f64, seed: u64) -> (f64, WorldStats) {
    run_once_scoped(case, NoiseScope::PerNode, noise_percent, seed)
}

/// Build the [`World`] and per-rank programs for one iteration of a case.
/// Callers that need to attach a recorder or otherwise configure the world
/// before running (the CLI's observability paths) start from here;
/// [`run_once_scoped`] is this plus `run` and the audit assertion.
pub fn world_for_case(
    case: &CollectiveCase,
    scope: NoiseScope,
    noise_percent: f64,
    seed: u64,
) -> (World, Vec<Box<dyn RankProgram>>) {
    let noise = noise_for_case(case, scope, noise_percent, seed);
    let world = World::cpu(case.machine.clone(), case.nranks, noise);
    (world, case.programs())
}

/// Run one iteration with an explicit noise scope.
pub fn run_once_scoped(
    case: &CollectiveCase,
    scope: NoiseScope,
    noise_percent: f64,
    seed: u64,
) -> (f64, WorldStats) {
    let (world, programs) = world_for_case(case, scope, noise_percent, seed);
    let res = world.run(programs);
    assert!(
        res.audit.is_clean(),
        "{} {:?} {}B: {}",
        case.library.label(),
        case.op,
        case.msg_bytes,
        res.audit
    );
    (res.makespan.as_micros_f64(), res.stats)
}

/// Run one iteration with a fault plan attached: lossy links, down and
/// degradation windows, rank stalls — with the reliability layer
/// recovering every injected loss. Returns the full [`RunResult`] so
/// callers can inspect recovery counters (`retransmits`, `acks`,
/// `duplicates_suppressed`) and per-rank completion times; the audit is
/// asserted clean, which under faults means *delivered exactly once
/// despite every drop*.
pub fn run_once_faulted(
    case: &CollectiveCase,
    scope: NoiseScope,
    noise_percent: f64,
    seed: u64,
    plan: FaultPlan,
) -> RunResult {
    match try_run_once_faulted(case, scope, noise_percent, seed, plan) {
        Ok(res) => res,
        Err(e) => panic!(
            "{} {:?} {}B (faulted): {e}",
            case.library.label(),
            case.op,
            case.msg_bytes
        ),
    }
}

/// Fallible variant of [`run_once_faulted`] for schedules that may not be
/// survivable — rank/node kills in particular. A completed run still has
/// its audit asserted clean (under kills that means *every byte between
/// live ranks delivered exactly once, dead ranks' bytes accounted in the
/// failed columns*); an unsurvivable schedule comes back as the
/// structured [`RunError`](adapt_mpi::RunError) instead of a panic or a
/// hang.
pub fn try_run_once_faulted(
    case: &CollectiveCase,
    scope: NoiseScope,
    noise_percent: f64,
    seed: u64,
    plan: FaultPlan,
) -> Result<RunResult, Box<adapt_mpi::RunError>> {
    let (world, programs) = world_for_case(case, scope, noise_percent, seed);
    let res = world.with_faults(plan).try_run(programs)?;
    assert!(
        res.audit.is_clean(),
        "{} {:?} {}B (faulted): {}",
        case.library.label(),
        case.op,
        case.msg_bytes,
        res.audit
    );
    Ok(res)
}

/// Run one iteration with a [`MemRecorder`](adapt_obs::MemRecorder)
/// attached and return the full result; `res.obs` carries the recording
/// (`metrics_interval_ns` of zero disables gauge sampling). This is the
/// producer side of the what-if engine: the recording feeds
/// [`adapt_obs::predict`] and `obs-whatif`.
pub fn record_once(
    case: &CollectiveCase,
    scope: NoiseScope,
    noise_percent: f64,
    seed: u64,
    metrics_interval_ns: u64,
) -> RunResult {
    let (world, programs) = world_for_case(case, scope, noise_percent, seed);
    let rec = if metrics_interval_ns > 0 {
        adapt_obs::MemRecorder::with_metrics(metrics_interval_ns)
    } else {
        adapt_obs::MemRecorder::new()
    };
    let res = world.with_recorder(Box::new(rec)).run(programs);
    assert!(
        res.audit.is_clean(),
        "{} {:?} {}B (recorded): {}",
        case.library.label(),
        case.op,
        case.msg_bytes,
        res.audit
    );
    res
}

/// Re-run a case under the **real-configuration equivalent** of a
/// what-if intervention — the ground truth a counterfactual prediction
/// is validated against. A recorder is attached so the result carries a
/// fresh recording for per-rank comparison.
///
/// Returns an error for interventions with no real equivalent
/// (`ScaleLayer` is a virtual-only Coz-style probe) or when a link
/// pattern matches nothing.
pub fn run_intervened(
    case: &CollectiveCase,
    scope: NoiseScope,
    noise_percent: f64,
    seed: u64,
    iv: &adapt_obs::Intervention,
    metrics_interval_ns: u64,
) -> Result<RunResult, String> {
    use adapt_obs::Intervention;
    let noise = match iv {
        Intervention::NoiseOff => ClusterNoise::silent(case.nranks),
        Intervention::RankNoiseOff(r) => {
            let mut n = noise_for_case(case, scope, noise_percent, seed);
            n.silence_rank(*r);
            n
        }
        Intervention::ScaleLayer { .. } => {
            return Err(
                "scale-layer is a virtual-only intervention; no real configuration matches it"
                    .into(),
            )
        }
        // `StallsOff` on a fault-free case, and `Noop`, are the plain run.
        _ => noise_for_case(case, scope, noise_percent, seed),
    };
    let mut world = World::cpu(case.machine.clone(), case.nranks, noise);
    if let Intervention::ScaleLink { pattern, factor } = iv {
        let touched = world.prescale_links(*factor, 1.0 / *factor, |label| {
            label.starts_with(pattern.as_str())
        });
        if touched == 0 {
            return Err(format!("no link label starts with {pattern:?}"));
        }
    }
    let rec = if metrics_interval_ns > 0 {
        adapt_obs::MemRecorder::with_metrics(metrics_interval_ns)
    } else {
        adapt_obs::MemRecorder::new()
    };
    let res = world.with_recorder(Box::new(rec)).run(case.programs());
    assert!(
        res.audit.is_clean(),
        "{} {:?} {}B (intervened): {}",
        case.library.label(),
        case.op,
        case.msg_bytes,
        res.audit
    );
    Ok(res)
}

/// Run a full trial: `repeats` independent worlds, each timing
/// `iterations` back-to-back operations, reporting per-operation times.
pub fn run_trial(trial: &Trial) -> TrialResult {
    assert!(trial.iterations > 0 && trial.repeats > 0);
    let mut samples = Vec::with_capacity(trial.repeats as usize);
    let mut stats = WorldStats::default();
    let mut audit = AuditReport::default();
    for rep in 0..trial.repeats {
        let seed = MasterSeed(trial.seed).stream(StreamTag::Workload, rep as u64);
        let noise = noise_for_case(&trial.case, trial.scope, trial.noise_percent, seed);
        let nranks = trial.case.nranks;
        // Chain `iterations` copies of the collective per rank.
        let mut per_rank: Vec<Vec<Box<dyn RankProgram>>> =
            (0..nranks).map(|_| Vec::new()).collect();
        for _ in 0..trial.iterations {
            for (r, phases) in trial.case.phase_lists().into_iter().enumerate() {
                per_rank[r].extend(phases);
            }
        }
        let programs: Vec<Box<dyn RankProgram>> = per_rank
            .into_iter()
            .map(|phases| Box::new(crate::hier::PhasedProgram::new(phases)) as Box<dyn RankProgram>)
            .collect();
        let world = World::cpu(trial.case.machine.clone(), nranks, noise);
        let res = world.run(programs);
        assert!(
            res.audit.is_clean(),
            "{} {:?} {}B rep {rep}: {}",
            trial.case.library.label(),
            trial.case.op,
            trial.case.msg_bytes,
            res.audit
        );
        samples.push(res.makespan.as_micros_f64() / trial.iterations as f64);
        stats = res.stats;
        audit = res.audit;
    }
    let summary: Summary = samples.iter().copied().collect();
    TrialResult {
        mean_us: summary.mean(),
        min_us: summary.min(),
        max_us: summary.max(),
        samples,
        stats,
        audit,
    }
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
                let (us, _) = run_once(&case, 0.0, 1);
                assert!(us > 0.0, "{} {:?}", lib.label(), op);
            }
        }
        // Broadcast-only and reduce-only algorithms.
        for alg in [IntelAlg::RecursiveDoubling, IntelAlg::Ring] {
            let case = mini_case(Library::IntelTopo(alg), OpKind::Bcast, 1 << 20);
            assert!(run_once(&case, 0.0, 1).0 > 0.0);
        }
        for alg in [
            IntelAlg::Shumilin,
            IntelAlg::Rabenseifner,
            IntelAlg::ShmBinomial,
        ] {
            let case = mini_case(Library::IntelTopo(alg), OpKind::Reduce, 1 << 20);
            assert!(run_once(&case, 0.0, 1).0 > 0.0);
        }
    }

    #[test]
    fn adapt_wins_large_message_broadcast() {
        let msg = 4 << 20;
        let adapt = run_once(&mini_case(Library::OmpiAdapt, OpKind::Bcast, msg), 0.0, 1).0;
        for lib in [Library::OmpiDefault, Library::IntelMpi, Library::Mvapich] {
            let other = run_once(&mini_case(lib, OpKind::Bcast, msg), 0.0, 1).0;
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
                iterations: 3,
                repeats: 1,
                seed: 7,
            })
            .mean_us;
            let noisy = run_trial(&Trial {
                case: mini_case(lib, OpKind::Bcast, msg),
                noise_percent: 10.0,
                scope: NoiseScope::AllRanks,
                iterations: 8,
                repeats: 2,
                seed: 7,
            })
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
            iterations: 4,
            repeats: 2,
            seed: 11,
        };
        assert_eq!(run_trial(&trial).samples, run_trial(&trial).samples);
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

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Library::OmpiAdapt.label(), "OMPI-adapt");
        assert_eq!(
            Library::IntelTopo(IntelAlg::Rabenseifner).label(),
            "Intel-topo-Rabenseifner"
        );
    }
}
