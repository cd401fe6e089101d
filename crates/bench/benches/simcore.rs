//! Microbenches of the simulator's hot paths: the event queue, the
//! flow-level network engine, and the end-to-end event rate of the MPI
//! runtime.

use adapt_mpi::World;
use adapt_net::{FlowId, FlowScheduler, FlowSpec, Link, LinkClass, LinkId, Network, Path};
use adapt_noise::ClusterNoise;
use adapt_sim::queue::{EventKey, EventQueue};
use adapt_sim::time::{Duration as SimDuration, Time};
use adapt_topology::profiles;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// Push/pop throughput of the deterministic event queue.
fn event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(Time(i * 37 % 10_000), i);
            }
            let mut out = 0u64;
            while let Some((_, v)) = q.pop() {
                out ^= v;
            }
            out
        });
    });
    g.bench_function("push_cancel_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let keys: Vec<_> = (0..n).map(|i| q.schedule(Time(i), i)).collect();
            for k in keys.iter().step_by(2) {
                q.cancel(*k);
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            count
        });
    });
    g.finish();
}

struct Q(EventQueue<FlowId>);
impl FlowScheduler for Q {
    fn schedule(&mut self, at: Time, flow: FlowId) -> EventKey {
        self.0.schedule(at, flow)
    }
    fn cancel(&mut self, key: EventKey) {
        self.0.cancel(key);
    }
}

/// Flow engine under heavy sharing: 64 concurrent flows on one link.
fn flow_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_engine");
    g.bench_function("64_shared_flows", |b| {
        b.iter(|| {
            let mut net = Network::new(vec![Link {
                class: LinkClass::Backbone,
                capacity: 1e10,
                latency: SimDuration::from_nanos(500),
            }]);
            let mut q = Q(EventQueue::new());
            for tag in 0..64u64 {
                net.start_flow(
                    Time(tag * 100),
                    FlowSpec {
                        path: Path::new(&[LinkId(0)]),
                        bytes: 100_000 + tag * 1000,
                        tag,
                    },
                    &mut q,
                );
            }
            let mut delivered = 0;
            while let Some((t, fid)) = q.0.pop() {
                if matches!(
                    net.handle_event(t, fid, &mut q),
                    adapt_net::NetStep::Delivered(_)
                ) {
                    delivered += 1;
                }
            }
            delivered
        });
    });
    g.finish();
}

/// End-to-end simulated-event rate: a 32-rank ADAPT broadcast.
fn world_event_rate(c: &mut Criterion) {
    use adapt_core::{topology_aware_tree, AdaptConfig, BcastSpec, TopoTreeConfig};
    use adapt_topology::Placement;
    use std::sync::Arc;

    let mut g = c.benchmark_group("world");
    g.sample_size(20);
    g.bench_function("adapt_bcast_32ranks_1MB", |b| {
        b.iter(|| {
            let machine = profiles::minicluster(4, 2, 4);
            let placement = Placement::block_cpu(machine.shape, 32);
            let tree = Arc::new(topology_aware_tree(&placement, TopoTreeConfig::default()));
            let spec = BcastSpec {
                tree,
                msg_bytes: 1 << 20,
                cfg: AdaptConfig::default(),
                data: None,
            };
            let world = World::cpu(machine, 32, ClusterNoise::silent(32));
            world
                .try_run(spec.programs())
                .expect("the benchmarked broadcast completes")
                .makespan
        });
    });
    g.finish();
}

criterion_group!(simcore, event_queue, flow_engine, world_event_rate);
criterion_main!(simcore);
