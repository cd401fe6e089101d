//! Property-based tests of the tree builders and the ADAPT collectives.

use adapt_core::{
    topology_aware_tree_rooted, AdaptConfig, BcastSpec, ReduceData, ReduceExec, ReduceSpec,
    TopoTreeConfig, Tree, TreeKind,
};
use adapt_mpi::{bytes_to_f64, f64_to_bytes, DType, ReduceOp, World};
use adapt_noise::{ClusterNoise, DurationLaw, NoiseSpec};
use adapt_sim::rng::MasterSeed;
use adapt_sim::time::Duration;
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
        (2u32..6).prop_map(TreeKind::Kary),
        (2u32..6).prop_map(TreeKind::Knomial),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every builder yields a valid spanning tree for any size and root.
    #[test]
    fn trees_are_valid_spanning_trees(kind in arb_kind(), n in 1u32..200, root_pick in 0u32..200) {
        let root = root_pick % n;
        let t = Tree::build(kind, n, root);
        prop_assert_eq!(t.validate(), Ok(()));
        prop_assert_eq!(t.root(), root);
        // Edge count of a spanning tree.
        let edges: usize = (0..n).map(|r| t.children(r).len()).sum();
        prop_assert_eq!(edges as u32, n - 1);
    }

    /// The topology-aware tree is a valid spanning tree for any shape,
    /// job size, and root.
    #[test]
    fn topo_trees_are_valid(
        nodes in 1u32..5,
        sockets in 1u32..3,
        cores in 1u32..6,
        fill in 1u32..120,
        root_pick in 0u32..128,
    ) {
        let shape = ClusterShape { nodes, sockets_per_node: sockets, cores_per_socket: cores, gpus_per_socket: 0 };
        let total = shape.total_cores();
        let nranks = (fill % total) + 1;
        let root = root_pick % nranks;
        let placement = Placement::block_cpu(shape, nranks);
        let t = topology_aware_tree_rooted(&placement, TopoTreeConfig::default(), root);
        prop_assert_eq!(t.validate(), Ok(()));
        prop_assert_eq!(t.root(), root);
    }

    /// Broadcast delivers the root's exact bytes to every rank, for any
    /// tree shape, message size, segmentation, and window config — with or
    /// without noise.
    #[test]
    fn bcast_delivers_exact_data(
        kind in arb_kind(),
        n in 2u32..24,
        msg_kb in 1u64..64,
        seg_kb in 1u64..32,
        sends in 1u32..5,
        extra_recvs in 0u32..4,
        noisy in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let msg = msg_kb * 1024 + 13; // ragged tail
        let data: Vec<u8> = (0..msg).map(|i| (i * 31 % 251) as u8).collect();
        let spec = BcastSpec {
            tree: Arc::new(Tree::build(kind, n, 0)),
            msg_bytes: msg,
            cfg: AdaptConfig::default()
                .with_seg_size(seg_kb * 1024)
                .with_outstanding(sends, sends + extra_recvs + 1),
            data: Some(Bytes::from(data.clone())),
        };
        let machine = adapt_topology::profiles::minicluster(3, 2, 4);
        let noise = if noisy {
            ClusterNoise::uniform(n, NoiseSpec {
                period: Duration::from_micros(200),
                max_duration: Duration::from_micros(120),
                law: DurationLaw::Uniform,
            }, MasterSeed(seed))
        } else {
            ClusterNoise::silent(n)
        };
        let world = World::cpu(machine, n, noise);
        let res = world.try_run(spec.programs()).unwrap();
        for p in res.programs {
            let any: Box<dyn std::any::Any> = p;
            let b = any.downcast::<adapt_core::AdaptBcast>().unwrap();
            prop_assert_eq!(b.assembled().unwrap(), data.clone());
        }
    }

    /// Reduce equals the sequential fold for any tree, segmentation, and
    /// noise (sum over integer-valued f64 is associative-exact).
    #[test]
    fn reduce_equals_sequential_fold(
        kind in arb_kind(),
        n in 2u32..20,
        elems in 16usize..600,
        seg in 64u64..4096,
        noisy in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let contributions: Vec<Bytes> = (0..n)
            .map(|r| {
                let v: Vec<f64> = (0..elems).map(|i| ((r as usize * 7 + i) % 91) as f64).collect();
                Bytes::from(f64_to_bytes(&v))
            })
            .collect();
        let expected: Vec<f64> = (0..elems)
            .map(|i| (0..n).map(|r| ((r as usize * 7 + i) % 91) as f64).sum())
            .collect();
        let spec = ReduceSpec {
            tree: Arc::new(Tree::build(kind, n, 0)),
            msg_bytes: (elems * 8) as u64,
            cfg: AdaptConfig::default().with_seg_size(seg * 8),
            data: ReduceData::Real {
                op: ReduceOp::Sum,
                dtype: DType::F64,
                contributions: Arc::new(contributions),
            },
            exec: ReduceExec::Cpu,
        };
        let machine = adapt_topology::profiles::minicluster(3, 2, 4);
        let noise = if noisy {
            ClusterNoise::uniform(n, NoiseSpec {
                period: Duration::from_micros(150),
                max_duration: Duration::from_micros(100),
                law: DurationLaw::Uniform,
            }, MasterSeed(seed))
        } else {
            ClusterNoise::silent(n)
        };
        let world = World::cpu(machine, n, noise);
        let res = world.try_run(spec.programs()).unwrap();
        let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let root = root.downcast::<adapt_core::AdaptReduce>().unwrap();
        prop_assert_eq!(bytes_to_f64(&root.result().unwrap()), expected);
    }

    /// Noise can only slow a collective down, never speed it up, and the
    /// simulation stays deterministic per seed.
    #[test]
    fn noise_is_monotone_and_deterministic(seed in 0u64..200) {
        let n = 12u32;
        let mk = |noise: ClusterNoise| {
            let spec = BcastSpec {
                tree: Arc::new(Tree::build(TreeKind::Chain, n, 0)),
                msg_bytes: 1 << 20,
                cfg: AdaptConfig::default(),
                data: None,
            };
            let machine = adapt_topology::profiles::minicluster(3, 2, 2);
            World::cpu(machine, n, noise).try_run(spec.programs()).unwrap().makespan
        };
        let clean = mk(ClusterNoise::silent(n));
        let heavy = NoiseSpec {
            period: Duration::from_micros(100),
            max_duration: Duration::from_micros(95),
            law: DurationLaw::Uniform,
        };
        let noisy1 = mk(ClusterNoise::uniform(n, heavy, MasterSeed(seed)));
        let noisy2 = mk(ClusterNoise::uniform(n, heavy, MasterSeed(seed)));
        prop_assert_eq!(noisy1, noisy2);
        prop_assert!(noisy1 >= clean);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scatter delivers each rank exactly its block, any size/segmentation.
    #[test]
    fn scatter_delivers_blocks(n in 2u32..20, msg_kb in 1u64..48, seg_kb in 1u64..16) {
        use adapt_core::{AdaptScatter, ScatterSpec};
        let msg = msg_kb * 1024 + 5;
        let data: Vec<u8> = (0..msg).map(|i| (i * 41 % 251) as u8).collect();
        let spec = ScatterSpec {
            nranks: n,
            msg_bytes: msg,
            cfg: AdaptConfig::default().with_seg_size(seg_kb * 1024),
            data: Some(Bytes::from(data.clone())),
        };
        let machine = adapt_topology::profiles::minicluster(3, 2, 4);
        let world = World::cpu(machine, n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        // Expected block boundaries (MPI convention).
        let block = |i: u64| -> u64 {
            let base = msg / n as u64;
            let rem = msg % n as u64;
            i * base + i.min(rem)
        };
        for (r, p) in res.programs.into_iter().enumerate() {
            let any: Box<dyn std::any::Any> = p;
            let s = any.downcast::<AdaptScatter>().unwrap();
            let (lo, hi) = (block(r as u64) as usize, block(r as u64 + 1) as usize);
            prop_assert_eq!(s.own_block().unwrap(), &data[lo..hi]);
        }
    }

    /// Gather reassembles all blocks at the root, any size/segmentation.
    #[test]
    fn gather_reassembles(n in 2u32..20, msg_kb in 1u64..48, seg_kb in 1u64..16) {
        use adapt_core::{AdaptGather, GatherSpec};
        let msg = msg_kb * 1024 + 9;
        let block = |i: u64| -> u64 {
            let base = msg / n as u64;
            let rem = msg % n as u64;
            i * base + i.min(rem)
        };
        let contributions: Vec<Bytes> = (0..n as u64)
            .map(|r| {
                Bytes::from(
                    (block(r)..block(r + 1))
                        .map(|i| ((i * 29 + r) % 251) as u8)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut expected = Vec::new();
        for c in &contributions {
            expected.extend_from_slice(c);
        }
        let spec = GatherSpec {
            nranks: n,
            msg_bytes: msg,
            cfg: AdaptConfig::default().with_seg_size(seg_kb * 1024),
            data: Some(Arc::new(contributions)),
        };
        let machine = adapt_topology::profiles::minicluster(3, 2, 4);
        let world = World::cpu(machine, n, ClusterNoise::silent(n));
        let res = world.try_run(spec.programs()).unwrap();
        let root: Box<dyn std::any::Any> = res.programs.into_iter().next().unwrap();
        let root = root.downcast::<AdaptGather>().unwrap();
        prop_assert_eq!(root.result().unwrap(), expected);
    }

    /// Ring allreduce equals the sequential fold on every rank, with or
    /// without noise.
    #[test]
    fn allreduce_exact_on_every_rank(
        n in 2u32..16,
        elems in 16usize..700,
        noisy in proptest::bool::ANY,
        seed in 0u64..500,
    ) {
        use adapt_core::{AdaptAllreduce, AllreduceSpec};
        let contributions: Arc<Vec<Bytes>> = Arc::new(
            (0..n)
                .map(|r| {
                    let v: Vec<f64> = (0..elems).map(|i| ((r as usize * 5 + i) % 43) as f64).collect();
                    Bytes::from(f64_to_bytes(&v))
                })
                .collect(),
        );
        let expected: Vec<f64> = (0..elems)
            .map(|i| (0..n).map(|r| ((r as usize * 5 + i) % 43) as f64).sum())
            .collect();
        let spec = AllreduceSpec {
            nranks: n,
            msg_bytes: (elems * 8) as u64,
            cfg: AdaptConfig::default(),
            data: Some((ReduceOp::Sum, DType::F64, contributions)),
        };
        let machine = adapt_topology::profiles::minicluster(3, 2, 4);
        let noise = if noisy {
            ClusterNoise::uniform(n, NoiseSpec {
                period: Duration::from_micros(250),
                max_duration: Duration::from_micros(150),
                law: DurationLaw::Uniform,
            }, MasterSeed(seed))
        } else {
            ClusterNoise::silent(n)
        };
        let world = World::cpu(machine, n, noise);
        let res = world.try_run(spec.programs()).unwrap();
        for p in res.programs {
            let any: Box<dyn std::any::Any> = p;
            let a = any.downcast::<AdaptAllreduce>().unwrap();
            prop_assert_eq!(bytes_to_f64(&a.result().unwrap()), expected.clone());
        }
    }
}
