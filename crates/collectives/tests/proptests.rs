//! Property-based correctness of the baseline collective implementations:
//! whatever the tree shape, segmentation, message size, or machine shape,
//! blocking / Waitall / hierarchical engines must move the exact bytes.

use adapt_collectives::{
    BlockingBcastSpec, BlockingReduceSpec, HierBcastSpec, HierLevels, HierProgram, HierReduceSpec,
    ReduceInputs, WaitallBcastSpec, WaitallReduceSpec,
};
use adapt_core::{Tree, TreeKind};
use adapt_mpi::{bytes_to_f64, f64_to_bytes, World};
use adapt_noise::ClusterNoise;
use adapt_topology::{ClusterShape, Placement};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_kind() -> impl Strategy<Value = TreeKind> {
    prop_oneof![
        Just(TreeKind::Chain),
        Just(TreeKind::Binary),
        Just(TreeKind::Binomial),
        Just(TreeKind::Flat),
        (2u32..5).prop_map(TreeKind::Kary),
        (2u32..5).prop_map(TreeKind::Knomial),
    ]
}

fn machine() -> adapt_topology::MachineSpec {
    adapt_topology::profiles::minicluster(3, 2, 4)
}

fn payload(len: u64) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 17) % 251) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocking_bcast_delivers(kind in arb_kind(), n in 2u32..20, msg_kb in 1u64..32, seg_kb in 1u64..16) {
        let data = payload(msg_kb * 1024 + 7);
        let spec = BlockingBcastSpec {
            tree: Arc::new(Tree::build(kind, n, 0)),
            msg_bytes: data.len() as u64,
            seg_size: seg_kb * 1024,
            data: Some(Bytes::from(data.clone())),
        };
        let world = World::cpu(machine(), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        for p in res.programs {
            let any: Box<dyn std::any::Any> = p;
            let b = any.downcast::<adapt_collectives::blocking::BlockingBcast>().unwrap();
            prop_assert_eq!(b.assembled().unwrap(), data.clone());
        }
    }

    #[test]
    fn waitall_bcast_delivers(kind in arb_kind(), n in 2u32..20, msg_kb in 1u64..32, seg_kb in 1u64..16) {
        let data = payload(msg_kb * 1024 + 3);
        let spec = WaitallBcastSpec {
            tree: Arc::new(Tree::build(kind, n, 0)),
            msg_bytes: data.len() as u64,
            seg_size: seg_kb * 1024,
            data: Some(Bytes::from(data.clone())),
        };
        let world = World::cpu(machine(), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        for p in res.programs {
            let any: Box<dyn std::any::Any> = p;
            let b = any.downcast::<adapt_collectives::waitall::WaitallBcast>().unwrap();
            prop_assert_eq!(b.assembled().unwrap(), data.clone());
        }
    }

    #[test]
    fn engines_reduce_identically(kind in arb_kind(), n in 2u32..16, elems in 32usize..800, seg_kb in 1u64..8) {
        let contributions: Vec<Bytes> = (0..n)
            .map(|r| {
                let v: Vec<f64> = (0..elems).map(|i| ((r as usize * 11 + i) % 29) as f64).collect();
                Bytes::from(f64_to_bytes(&v))
            })
            .collect();
        let expected: Vec<f64> = (0..elems)
            .map(|i| (0..n).map(|r| ((r as usize * 11 + i) % 29) as f64).sum())
            .collect();
        let msg = (elems * 8) as u64;

        // Blocking engine.
        let spec = BlockingReduceSpec {
            tree: Arc::new(Tree::build(kind, n, 0)),
            msg_bytes: msg,
            seg_size: seg_kb * 1024,
            data: Some(ReduceInputs::f64_sum(contributions.clone())),
        };
        let world = World::cpu(machine(), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let r1 = bytes_to_f64(&root.downcast::<adapt_collectives::blocking::BlockingReduce>().unwrap().result().unwrap());
        prop_assert_eq!(&r1, &expected);

        // Waitall engine.
        let spec = WaitallReduceSpec {
            tree: Arc::new(Tree::build(kind, n, 0)),
            msg_bytes: msg,
            seg_size: seg_kb * 1024,
            data: Some(ReduceInputs::f64_sum(contributions)),
        };
        let world = World::cpu(machine(), n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let r2 = bytes_to_f64(&root.downcast::<adapt_collectives::waitall::WaitallReduce>().unwrap().result().unwrap());
        prop_assert_eq!(&r2, &expected);
    }

    #[test]
    fn hierarchical_bcast_delivers_on_random_shapes(
        nodes in 1u32..4,
        sockets in 1u32..3,
        cores in 1u32..5,
        fill in 1u32..60,
        cluster in arb_kind(),
        socket_kind in arb_kind(),
        msg_kb in 1u64..24,
    ) {
        let shape = ClusterShape { nodes, sockets_per_node: sockets, cores_per_socket: cores, gpus_per_socket: 0 };
        let total = shape.total_cores();
        let n = (fill % total) + 1;
        let data = payload(msg_kb * 1024 + 11);
        let spec = HierBcastSpec {
            placement: Placement::block_cpu(shape, n),
            root: 0,
            msg_bytes: data.len() as u64,
            levels: HierLevels {
                cluster,
                node: TreeKind::Flat,
                socket: socket_kind,
                seg_size: 8 * 1024,
            },
            data: Some(Bytes::from(data.clone())),
        };
        let machine = adapt_topology::MachineSpec { shape, ..machine() };
        let world = World::cpu(machine, n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        for p in res.programs {
            let any: Box<dyn std::any::Any> = p;
            let h = any.downcast::<HierProgram>().unwrap();
            prop_assert_eq!(h.data().unwrap(), data.clone());
        }
    }

    #[test]
    fn hierarchical_reduce_sums_on_random_shapes(
        nodes in 1u32..4,
        sockets in 1u32..3,
        cores in 1u32..5,
        fill in 1u32..60,
        elems in 32usize..500,
    ) {
        let shape = ClusterShape { nodes, sockets_per_node: sockets, cores_per_socket: cores, gpus_per_socket: 0 };
        let total = shape.total_cores();
        let n = (fill % total) + 1;
        let contributions: Vec<Bytes> = (0..n)
            .map(|r| Bytes::from(f64_to_bytes(&vec![(r % 13) as f64; elems])))
            .collect();
        let expected: f64 = (0..n).map(|r| (r % 13) as f64).sum();
        let spec = HierReduceSpec {
            placement: Placement::block_cpu(shape, n),
            root: 0,
            msg_bytes: (elems * 8) as u64,
            levels: HierLevels::default(),
            data: Some(ReduceInputs::f64_sum(contributions)),
        };
        let machine = adapt_topology::MachineSpec { shape, ..machine() };
        let world = World::cpu(machine, n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let h = root.downcast::<HierProgram>().unwrap();
        prop_assert_eq!(bytes_to_f64(&h.data().unwrap()), vec![expected; elems]);
    }
}
