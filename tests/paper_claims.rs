//! The paper's headline claims, asserted at reduced scale. These are the
//! qualitative shapes EXPERIMENTS.md reports at full scale; here they gate
//! regressions on every `cargo test`.

use adapt::collectives::{execute, CollectiveCase, IntelAlg, Library, OpKind};
use adapt::prelude::*;
use std::num::NonZeroU32;
use std::sync::Arc;

fn case(library: Library, op: OpKind, msg: u64) -> CollectiveCase {
    let machine = profiles::cori(2); // 64 ranks, keeps debug-mode runtimes low
    CollectiveCase {
        nranks: machine.cpu_job_size(),
        machine,
        op,
        library,
        msg_bytes: msg,
    }
}

/// Completion time (µs) of a plain run of `case`.
fn run_us(case: &CollectiveCase) -> f64 {
    execute(&case.spec())
        .expect("a plain run completes audit-clean")
        .makespan
        .as_micros_f64()
}

/// §5.2.1: for large messages ADAPT outperforms the non-topology-aware
/// libraries on both operations.
#[test]
fn adapt_wins_large_messages() {
    for op in [OpKind::Bcast, OpKind::Reduce] {
        let adapt = run_us(&case(Library::OmpiAdapt, op, 4 << 20));
        for lib in [Library::OmpiDefault, Library::Mvapich] {
            let other = run_us(&case(lib, op, 4 << 20));
            assert!(
                adapt < other,
                "{op:?}: adapt {adapt:.0}us vs {} {other:.0}us",
                lib.label()
            );
        }
    }
}

/// §5.1.2: with the *same* topology-aware tree, the paper reports the
/// event-driven engine ~20% ahead of the Waitall engine. Our
/// processor-sharing lanes charge queueing to ADAPT's deeper windows on
/// saturated socket chains (see EXPERIMENTS.md E3), so clean runs land
/// within a few percent of each other — but under noise the Waitall
/// fences propagate delay and the event-driven engine wins decisively.
#[test]
fn adapt_vs_waitall_on_same_tree() {
    use adapt::collectives::{run_trial, NoiseScope, Trial};
    let clean_adapt = run_us(&case(Library::OmpiAdapt, OpKind::Bcast, 4 << 20));
    let clean_topo = run_us(&case(Library::OmpiDefaultTopo, OpKind::Bcast, 4 << 20));
    assert!(
        clean_adapt < clean_topo * 1.15,
        "clean: event-driven {clean_adapt:.0}us must stay within 15% of Waitall {clean_topo:.0}us"
    );
    let noisy = |library: Library| {
        let tr = run_trial(&Trial {
            case: case(library, OpKind::Bcast, 4 << 20),
            noise_percent: 10.0,
            scope: NoiseScope::AllRanks,
            iterations: const { NonZeroU32::new(8).unwrap() },
            repeats: const { NonZeroU32::new(3).unwrap() },
            seed: 6,
        })
        .expect("the noisy trial completes");
        assert!(tr.audit.is_clean(), "{}", tr.audit);
        tr.mean_us
    };
    let noisy_adapt = noisy(Library::OmpiAdapt);
    let noisy_topo = noisy(Library::OmpiDefaultTopo);
    assert!(
        noisy_adapt < noisy_topo,
        "noisy: event-driven {noisy_adapt:.0}us must beat Waitall {noisy_topo:.0}us"
    );
}

/// §5.1.2 (small-message caveat): the pipelined topology-aware design
/// needs enough segments, so it may lose at small sizes — assert it is at
/// least not catastrophically behind (within 5x of the tuned module), and
/// that its advantage appears by 4 MB.
#[test]
fn small_message_pipeline_fill_caveat() {
    let small_adapt = run_us(&case(Library::OmpiAdapt, OpKind::Bcast, 64 << 10));
    let small_tuned = run_us(&case(Library::OmpiDefault, OpKind::Bcast, 64 << 10));
    assert!(small_adapt < small_tuned * 5.0);
    let large_adapt = run_us(&case(Library::OmpiAdapt, OpKind::Bcast, 4 << 20));
    let large_tuned = run_us(&case(Library::OmpiDefault, OpKind::Bcast, 4 << 20));
    assert!(large_adapt < large_tuned);
}

/// §3.1 vs §3.2: the single-communicator topology-aware tree overlaps
/// levels that the multi-communicator hierarchy serializes.
#[test]
fn single_communicator_beats_phased_hierarchy() {
    let adapt = run_us(&case(Library::OmpiAdapt, OpKind::Bcast, 4 << 20));
    let hier = run_us(&case(
        Library::IntelTopo(IntelAlg::ShmKnomial),
        OpKind::Bcast,
        4 << 20,
    ));
    assert!(adapt < hier, "adapt {adapt:.0}us vs hierarchy {hier:.0}us");
}

/// Figure 10: ADAPT's chain pipeline cost is nearly independent of rank
/// count once the pipeline is full.
#[test]
fn strong_scaling_is_nearly_flat() {
    let time_at = |nodes: u32| {
        let machine = profiles::cori(nodes);
        let case = CollectiveCase {
            nranks: machine.cpu_job_size(),
            machine,
            op: OpKind::Bcast,
            library: Library::OmpiAdapt,
            msg_bytes: 4 << 20,
        };
        run_us(&case)
    };
    let small = time_at(2); // 64 ranks
    let large = time_at(6); // 192 ranks
    assert!(
        large < small * 1.6,
        "3x more ranks must cost <1.6x time: {small:.0}us -> {large:.0}us"
    );
}

/// Every comparator of the evaluation satisfies the simulator-wide
/// invariant audit on both operations: bytes conserved from send to
/// receive, completions matched per rank, no causality violations, and a
/// consistent event queue. A figure produced by a run that fails these
/// checks would not be worth plotting.
#[test]
fn every_comparator_passes_invariant_audit() {
    let machine = profiles::minicluster(2, 2, 4);
    let nranks = 16;
    for library in [
        Library::OmpiAdapt,
        Library::OmpiDefault,
        Library::OmpiDefaultTopo,
        Library::OmpiBlocking,
        Library::IntelMpi,
        Library::CrayMpi,
        Library::Mvapich,
    ] {
        for op in [OpKind::Bcast, OpKind::Reduce] {
            let case = CollectiveCase {
                machine: machine.clone(),
                nranks,
                op,
                library,
                msg_bytes: 1 << 20,
            };
            let world = World::cpu(machine.clone(), nranks, ClusterNoise::silent(nranks));
            let res = world.try_run(case.programs()).unwrap();
            assert!(
                res.audit.is_clean(),
                "{} {op:?}: {}",
                library.label(),
                res.audit
            );
            assert_eq!(res.audit.total_sends_posted(), res.stats.messages);
            assert_eq!(res.audit.net_delivered_bytes, res.stats.delivered_bytes);
        }
    }
}

/// §2.2.1: a deeper receive window M "minimizes the chance of unexpected
/// segments" (the paper's wording — eager bursts can still outrun the
/// window when the receiver's CPU lags). This is an eager-protocol
/// phenomenon (4 KB segments = the minicluster eager limit); rendezvous
/// segments cannot be unexpected at all.
#[test]
fn receive_window_rule() {
    let machine = profiles::minicluster(2, 1, 4);
    let nranks = 8;
    let run_with = |n_out: u32, m_out: u32| {
        let placement = Placement::block_cpu(machine.shape, nranks);
        let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
        let spec = BcastSpec {
            tree,
            msg_bytes: 2 << 20,
            cfg: AdaptConfig::default()
                .with_seg_size(4 * 1024)
                .with_outstanding(n_out, m_out),
            data: None,
        };
        let world = World::cpu(machine.clone(), nranks, ClusterNoise::silent(nranks));
        let res = world.try_run(spec.programs()).unwrap();
        // Unexpected arrivals exercise the buffered-copy path; bytes must
        // still be conserved through it.
        assert!(res.audit.is_clean(), "{}", res.audit);
        res.stats.unexpected_matches
    };
    let deep = run_with(4, 12);
    let shallow = run_with(12, 2);
    assert!(
        deep < shallow,
        "deeper windows must reduce unexpected arrivals: M=12 -> {deep}, M=2 -> {shallow}"
    );
    // Rendezvous-sized segments cannot be unexpected.
    let rndv = {
        let placement = Placement::block_cpu(machine.shape, nranks);
        let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
        let spec = BcastSpec {
            tree,
            msg_bytes: 2 << 20,
            cfg: AdaptConfig::default().with_seg_size(64 * 1024),
            data: None,
        };
        let world = World::cpu(machine.clone(), nranks, ClusterNoise::silent(nranks));
        let res = world.try_run(spec.programs()).unwrap();
        assert!(res.audit.is_clean(), "{}", res.audit);
        res.stats.unexpected_matches
    };
    assert_eq!(rndv, 0, "rendezvous segments are never unexpected");
}
