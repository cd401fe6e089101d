//! Cross-crate integration tests through the public `adapt` facade.

use adapt::apps::{run_asp, verify_distributed_fw, AspConfig};
use adapt::collectives::{Noise, NoiseScope};
use adapt::prelude::*;
use bytes::Bytes;
use std::num::NonZeroU32;
use std::sync::Arc;

#[test]
fn facade_broadcast_delivers_real_data() {
    let machine = profiles::minicluster(2, 2, 4);
    let nranks = 16;
    let data: Vec<u8> = (0..300_000u32).map(|i| (i % 249) as u8).collect();
    let placement = Placement::block_cpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let spec = BcastSpec {
        tree,
        msg_bytes: data.len() as u64,
        cfg: AdaptConfig::default().with_seg_size(32 * 1024),
        data: Some(Bytes::from(data.clone())),
    };
    let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks));
    let res = world.try_run(spec.programs()).unwrap();
    assert!(res.audit.is_clean(), "{}", res.audit);
    for (r, p) in res.programs.into_iter().enumerate() {
        let any: Box<dyn std::any::Any> = p;
        let b = any.downcast::<adapt::core::AdaptBcast>().unwrap();
        assert_eq!(b.assembled().unwrap(), data, "rank {r}");
    }
}

#[test]
fn facade_reduce_is_numerically_exact_under_noise() {
    let machine = profiles::minicluster(2, 2, 4);
    let nranks = 16u32;
    let elems = 5000usize;
    let contributions: Arc<Vec<Bytes>> = Arc::new(
        (0..nranks)
            .map(|r| {
                let v: Vec<f64> = (0..elems).map(|i| ((r as usize + i) % 37) as f64).collect();
                Bytes::from(adapt::mpi::f64_to_bytes(&v))
            })
            .collect(),
    );
    let expected: Vec<f64> = (0..elems)
        .map(|i| (0..nranks).map(|r| ((r as usize + i) % 37) as f64).sum())
        .collect();
    let placement = Placement::block_cpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let spec = ReduceSpec {
        tree,
        msg_bytes: (elems * 8) as u64,
        cfg: AdaptConfig::default().with_seg_size(8 * 1024),
        data: ReduceData::Real {
            op: adapt::mpi::ReduceOp::Sum,
            dtype: adapt::mpi::DType::F64,
            contributions,
        },
        exec: ReduceExec::Cpu,
    };
    let noise = ClusterNoise::uniform(
        nranks,
        NoiseSpec {
            period: Duration::from_micros(300),
            max_duration: Duration::from_micros(200),
        },
        MasterSeed(5),
    );
    let world = World::cpu(machine, nranks, noise);
    let res = world.try_run(spec.programs()).unwrap();
    assert!(res.audit.is_clean(), "{}", res.audit);
    let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
    let root = root.downcast::<adapt::core::AdaptReduce>().unwrap();
    assert_eq!(
        adapt::mpi::bytes_to_f64(&root.result().unwrap()),
        expected,
        "noise must never corrupt data"
    );
}

#[test]
fn noise_resistance_ordering_holds_end_to_end() {
    // The paper's central claim, end to end at reduced scale: under
    // noise the event-driven design slows down less than the blocking
    // design. Measured IMB-style (back-to-back iterations in one world),
    // because blocking amplifies noise by carrying skew from one iteration
    // into the next. All ranks are noisy here: at 32 ranks the paper's
    // 10 Hz per-node windows would rarely intersect a short run at all.
    let machine = profiles::minicluster(4, 2, 4);
    let nranks = 32;
    let slowdown = |library: Library| {
        let mk = |noise: f64| {
            let tr = adapt::collectives::run_trial(&adapt::collectives::Trial {
                case: CollectiveCase {
                    machine: machine.clone(),
                    nranks,
                    op: OpKind::Bcast,
                    library,
                    msg_bytes: 2 << 20,
                },
                noise_percent: noise,
                scope: NoiseScope::AllRanks,
                iterations: const { NonZeroU32::new(16).unwrap() },
                repeats: const { NonZeroU32::new(3).unwrap() },
                seed: 4,
            })
            .expect("the noisy trial completes");
            assert!(tr.audit.is_clean(), "{}", tr.audit);
            tr.mean_us
        };
        mk(10.0) / mk(0.0)
    };
    let adapt = slowdown(Library::OmpiAdapt);
    let blocking = slowdown(Library::Mvapich);
    assert!(
        adapt < blocking,
        "adapt {adapt:.2}x must absorb noise better than blocking {blocking:.2}x"
    );
}

#[test]
fn gpu_pipeline_end_to_end() {
    // The full §4 story on a small GPU machine: adapt (staging + GPU
    // reduce) beats the CPU-fold baseline on both operations.
    let machine = profiles::psg(2);
    let nranks = machine.gpu_job_size();
    let time = |library: GpuLibrary, op: OpKind| {
        let case = GpuCase {
            machine: machine.clone(),
            nranks,
            op,
            library,
            msg_bytes: 16 << 20,
        };
        execute(&case.spec()).unwrap().makespan.as_micros_f64()
    };
    assert!(
        time(GpuLibrary::OmpiAdapt, OpKind::Bcast) < time(GpuLibrary::OmpiDefault, OpKind::Bcast)
    );
    let adapt_reduce = time(GpuLibrary::OmpiAdapt, OpKind::Reduce);
    let mvapich_reduce = time(GpuLibrary::Mvapich, OpKind::Reduce);
    assert!(
        adapt_reduce * 2.0 < mvapich_reduce,
        "GPU-offloaded reduce must win big: {adapt_reduce:.0}us vs {mvapich_reduce:.0}us"
    );
}

#[test]
fn asp_application_end_to_end() {
    let machine = profiles::minicluster(2, 2, 4);
    let r = run_asp(&AspConfig {
        machine,
        nranks: 16,
        library: Library::OmpiAdapt,
        row_bytes: 512 * 1024,
        iterations: 8,
        compute_per_iter: Duration::from_micros(100),
    })
    .unwrap();
    assert!(r.total_s > 0.0);
    assert!(r.comm_fraction() > 0.0 && r.comm_fraction() < 1.0);
    // And the numerics of the distributed algorithm are exact.
    assert_eq!(verify_distributed_fw(6, 20, 11).unwrap(), 0.0);
}

#[test]
fn full_stack_determinism() {
    // A 10%-noise reduce on the minicluster, plus a 30%-noise 64-rank
    // reduce on Cori that stresses preemption and deferral far past the
    // golden fixtures: the same seed must reproduce the makespan and
    // every counter.
    let cases = [
        (profiles::minicluster(3, 2, 4), 24, 2 << 20, 10.0, 77),
        (profiles::cori(2), 64, 1 << 19, 30.0, 1234),
    ];
    for (machine, nranks, msg_bytes, noise_percent, seed) in cases {
        let case = CollectiveCase {
            machine,
            nranks,
            op: OpKind::Reduce,
            library: Library::OmpiAdapt,
            msg_bytes,
        };
        let spec = RunSpec {
            noise: Noise {
                percent: noise_percent,
                scope: NoiseScope::AllRanks,
                seed,
            },
            ..case.spec()
        };
        let run = || {
            let res = execute(&spec).unwrap();
            (res.makespan, res.stats)
        };
        assert_eq!(run(), run(), "{nranks} ranks, {noise_percent}% noise");
    }
}

#[test]
fn audit_report_accounts_for_every_byte_and_event() {
    // The invariant audit layer end to end: run an ADAPT broadcast with
    // real data through the facade and check not only that the report is
    // clean but that its counters line up with the world's own statistics
    // and with each other.
    let machine = profiles::minicluster(2, 2, 4);
    let nranks = 16;
    let placement = Placement::block_cpu(machine.shape, nranks);
    let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
    let spec = BcastSpec {
        tree,
        msg_bytes: 1 << 20,
        cfg: AdaptConfig::default().with_seg_size(16 * 1024),
        data: None,
    };
    let world = World::cpu(machine, nranks, ClusterNoise::silent(nranks));
    let res = world.try_run(spec.programs()).unwrap();
    let audit = &res.audit;
    assert!(audit.is_clean(), "{audit}");
    // Every message the runtime counted is a posted send in the audit.
    assert_eq!(audit.total_sends_posted(), res.stats.messages);
    // Conservation, spelled out: what the senders posted is what the
    // receivers completed, and the network agrees (copies included).
    assert_eq!(audit.send_posted_bytes, audit.recv_completed_bytes);
    assert_eq!(
        audit.net_delivered_bytes,
        audit.send_posted_bytes + audit.copy_posted_bytes
    );
    assert_eq!(audit.net_delivered_bytes, res.stats.delivered_bytes);
    // Receive bookkeeping closes: every posted receive either completed
    // or is reported as an (legitimate, M > N style) leftover.
    let posted: u64 = audit.per_rank.iter().map(|r| r.recvs_posted).sum();
    assert_eq!(
        posted,
        audit.total_recvs_completed() + audit.leftover_posted_recvs
    );
    // The event queue's self-check ran and found the heap consistent.
    assert!(audit.queue.is_consistent(), "{:?}", audit.queue);
    assert_eq!(audit.queue.causality_violations, 0);
}

#[test]
fn trees_share_no_state_across_runs() {
    // Two sequential worlds over the same spec give identical results
    // (no hidden global state anywhere in the stack).
    let machine = profiles::minicluster(2, 1, 4);
    let mk = || {
        let case = CollectiveCase {
            machine: machine.clone(),
            nranks: 8,
            op: OpKind::Bcast,
            library: Library::OmpiDefaultTopo,
            msg_bytes: 1 << 20,
        };
        execute(&case.spec()).unwrap().makespan
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b);
}
