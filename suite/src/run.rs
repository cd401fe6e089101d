//! Building, running and checking one op, and the data-carrying twins
//! that check what the timed (synthetic-payload) ops cannot.

use crate::gen::{Coll, Op};
use crate::trace::{HandlerClock, Probe, ProbeLog, Timed};
use adapt_collectives::{CollectiveCase, OpKind};
use adapt_core::{
    topology_aware_tree, AdaptAllreduce, AdaptBcast, AdaptConfig, AdaptReduce, AllreduceSpec,
    BcastSpec, ReduceData, ReduceExec, ReduceSpec, TopoTreeConfig,
};
use adapt_faults::FaultPlan;
use adapt_mpi::{f64_to_bytes, DType, RankProgram, ReduceOp, RunResult, World};
use adapt_noise::{ClusterNoise, NoiseSpec};
use adapt_obs::{Monitor, Recorder, StreamRecorder};
use adapt_sim::rng::MasterSeed;
use adapt_sim::time::Duration;
use adapt_topology::{MachineSpec, Placement};
use bytes::Bytes;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Retransmit timeout of the lossy ops' fault plans.
const RTO: Duration = Duration::from_micros(80);
/// Health-monitor snapshot cadence of the observed ops (simulated ns).
const MONITOR_NS: u64 = 10_000;

/// What is attached to the world besides the op's own noise and faults.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// As a user runs it: observed ops carry their recorder and monitor.
    Plain,
    /// Observed ops stripped of recorder and monitor (the obs baseline).
    Bare,
    /// Handler clocks and the bench-side probe recorder attached.
    Traced,
}

/// One executed op.
pub struct Outcome {
    /// `World::cpu` and everything attached to it.
    pub world_ns: u64,
    /// Program construction (`programs()`).
    pub programs_ns: u64,
    /// `World::try_run`.
    pub run_ns: u64,
    pub result: Result<RunResult, String>,
    /// Traced mode only.
    pub handlers: Option<Rc<HandlerClock>>,
    /// Traced mode only.
    pub log: Option<ProbeLog>,
}

impl Outcome {
    pub fn host_ns(&self) -> u64 {
        self.world_ns + self.programs_ns + self.run_ns
    }
}

fn noise(op: &Op) -> ClusterNoise {
    let n = op.nranks();
    if op.noise_pct > 0.0 {
        let spec = NoiseSpec::uniform_percent(op.noise_pct);
        ClusterNoise::uniform(n, spec, MasterSeed(op.noise_seed))
    } else {
        ClusterNoise::silent(n)
    }
}

fn world(op: &Op, spec: &MachineSpec) -> World {
    let world = World::cpu(spec.clone(), op.nranks(), noise(op));
    match op.loss {
        Some(loss) => world.with_faults(FaultPlan::lossy(op.fault_seed, loss).with_rto(RTO)),
        None => world,
    }
}

fn programs(op: &Op, spec: &MachineSpec) -> Vec<Box<dyn RankProgram>> {
    let kind = match op.coll {
        Coll::Bcast => OpKind::Bcast,
        Coll::Reduce => OpKind::Reduce,
        Coll::Allreduce => {
            return AllreduceSpec {
                nranks: op.nranks(),
                msg_bytes: op.msg_bytes,
                cfg: AdaptConfig::default(),
                data: None,
            }
            .programs()
        }
    };
    CollectiveCase {
        machine: spec.clone(),
        nranks: op.nranks(),
        op: kind,
        library: op.library,
        msg_bytes: op.msg_bytes,
    }
    .programs()
}

fn panic_text(p: Box<dyn Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Run `world` to completion; any panic, run error or dirty audit is the
/// op's one-line failure reason.
fn try_run(world: World, programs: Vec<Box<dyn RankProgram>>) -> Result<RunResult, String> {
    match catch_unwind(AssertUnwindSafe(move || world.try_run(programs))) {
        Ok(Ok(res)) if res.audit.is_clean() => Ok(res),
        Ok(Ok(res)) => Err(format!("dirty audit: {}", res.audit)),
        Ok(Err(e)) => Err(format!(
            "run error: {}",
            e.to_string().lines().next().unwrap_or("")
        )),
        Err(p) => Err(format!("panic: {}", panic_text(p))),
    }
}

/// Build, run and audit one op.
pub fn execute(op: &Op, mode: Mode) -> Outcome {
    let t = Instant::now();
    let spec = op.machine.spec(op.nodes);
    let mut world = world(op, &spec);
    let mut probe_out = None;
    match mode {
        Mode::Plain if op.observed => {
            world = world
                .with_recorder(StreamRecorder::new())
                .with_monitor(Monitor::new(MONITOR_NS));
        }
        Mode::Traced => {
            let (probe, out) = Probe::new();
            world = world.with_recorder(Box::new(probe) as Box<dyn Recorder>);
            if op.observed {
                world = world.with_monitor(Monitor::new(MONITOR_NS));
            }
            probe_out = Some(out);
        }
        Mode::Plain | Mode::Bare => {}
    }
    let world_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let mut programs = programs(op, &spec);
    let programs_ns = t.elapsed().as_nanos() as u64;
    let handlers = (mode == Mode::Traced).then(|| Rc::new(HandlerClock::default()));
    if let Some(clock) = &handlers {
        programs = Timed::wrap(programs, clock);
    }
    let t = Instant::now();
    let result = try_run(world, programs);
    let run_ns = t.elapsed().as_nanos() as u64;
    Outcome {
        world_ns,
        programs_ns,
        run_ns,
        result,
        handlers,
        log: probe_out.and_then(|out| out.take()),
    }
}

/// ADAPT's segment size for a message, as the collectives runner picks it
/// for `Library::OmpiAdapt`, so a twin pipelines like its timed op.
fn adapt_cfg(msg_bytes: u64) -> AdaptConfig {
    let seg = match msg_bytes {
        0..=131_072 => 16 * 1024,
        131_073..=1_048_576 => 32 * 1024,
        _ => 64 * 1024,
    };
    AdaptConfig::default().with_seg_size(seg)
}

/// Four distinct integer-valued f64 inputs; rank `r` contributes input
/// `r % 4`. Integer values keep every partial sum exact in any order.
fn contributions(nranks: u32, msg_bytes: u64) -> (Arc<Vec<Bytes>>, Vec<u8>) {
    let elems = (msg_bytes / 8) as usize;
    let input = |k: usize| -> Vec<f64> { (0..elems).map(|i| ((k * 7 + i) % 61) as f64).collect() };
    let inputs: Vec<Bytes> = (0..4)
        .map(|k| Bytes::from(f64_to_bytes(&input(k))))
        .collect();
    let expected: Vec<f64> = (0..elems)
        .map(|i| {
            (0..nranks as usize)
                .map(|r| ((r % 4 * 7 + i) % 61) as f64)
                .sum()
        })
        .collect();
    let per_rank = (0..nranks as usize)
        .map(|r| inputs[r % 4].clone())
        .collect();
    (Arc::new(per_rank), f64_to_bytes(&expected))
}

fn downcast<T: 'static>(p: Box<dyn RankProgram>) -> Result<Box<T>, String> {
    let any: Box<dyn Any> = p;
    any.downcast::<T>()
        .map_err(|_| "unexpected program type".to_string())
}

/// Run `op` again with real payloads and check the delivered bytes: every
/// rank's broadcast copy, the reduce root's result, or every rank's
/// allreduce result against a sequential sum. Only ADAPT ops have twins.
pub fn data_twin(op: &Op) -> Result<(), String> {
    let spec = op.machine.spec(op.nodes);
    let n = op.nranks();
    let tree = || {
        let placement = Placement::block_cpu(spec.shape, n);
        Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()))
    };
    match op.coll {
        Coll::Bcast => {
            let data: Vec<u8> = (0..op.msg_bytes).map(|i| (i * 131 % 251) as u8).collect();
            let programs = BcastSpec {
                tree: tree(),
                msg_bytes: op.msg_bytes,
                cfg: adapt_cfg(op.msg_bytes),
                data: Some(Bytes::from(data.clone())),
            }
            .programs();
            let res = try_run(world(op, &spec), programs)?;
            for p in res.programs {
                let b = downcast::<AdaptBcast>(p)?;
                if b.assembled().as_deref() != Some(&data[..]) {
                    return Err(format!("bcast data mismatch on rank {}", b.rank()));
                }
            }
        }
        Coll::Reduce => {
            let (inputs, expected) = contributions(n, op.msg_bytes);
            let programs = ReduceSpec {
                tree: tree(),
                msg_bytes: op.msg_bytes,
                cfg: adapt_cfg(op.msg_bytes),
                data: ReduceData::Real {
                    op: ReduceOp::Sum,
                    dtype: DType::F64,
                    contributions: inputs,
                },
                exec: ReduceExec::Cpu,
            }
            .programs();
            let res = try_run(world(op, &spec), programs)?;
            let root = res.programs.into_iter().next().ok_or("no ranks")?;
            if downcast::<AdaptReduce>(root)?.result() != Some(expected) {
                return Err("reduce result mismatch at the root".into());
            }
        }
        Coll::Allreduce => {
            let (inputs, expected) = contributions(n, op.msg_bytes);
            let programs = AllreduceSpec {
                nranks: n,
                msg_bytes: op.msg_bytes,
                cfg: AdaptConfig::default(),
                data: Some((ReduceOp::Sum, DType::F64, inputs)),
            }
            .programs();
            let res = try_run(world(op, &spec), programs)?;
            for (r, p) in res.programs.into_iter().enumerate() {
                if downcast::<AdaptAllreduce>(p)?.result().as_ref() != Some(&expected) {
                    return Err(format!("allreduce result mismatch on rank {r}"));
                }
            }
        }
    }
    Ok(())
}
