//! Criterion benches mirroring the paper's figures at reduced scale, so
//! `cargo bench` finishes in minutes. One group per figure/table; the
//! full-scale numbers come from the `fig*`/`table1` binaries.

use adapt_apps::{run_asp, AspConfig};
use adapt_collectives::{
    execute, CollectiveCase, IntelAlg, Library, Noise, NoiseScope, OpKind, RunSpec,
};
use adapt_gpu::{GpuCase, GpuLibrary};
use adapt_sim::time::Duration as SimDuration;
use adapt_topology::profiles;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn cpu_case(library: Library, op: OpKind, msg_bytes: u64) -> CollectiveCase {
    let machine = profiles::cori(4); // 128 ranks
    CollectiveCase {
        nranks: machine.cpu_job_size(),
        machine,
        op,
        library,
        msg_bytes,
    }
}

/// Figure 7 (reduced): noise impact on a 4 MB broadcast.
fn fig7_noise_impact(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_noise_bcast_4MB");
    g.sample_size(10);
    for lib in [Library::OmpiAdapt, Library::OmpiDefault, Library::Mvapich] {
        for noise in [0.0, 10.0] {
            g.bench_with_input(
                BenchmarkId::new(lib.label(), format!("{noise}%")),
                &(lib, noise),
                |b, &(lib, noise)| {
                    let case = cpu_case(lib, OpKind::Bcast, 4 << 20);
                    let mut seed = 0u64;
                    b.iter(|| {
                        seed += 1;
                        execute(&RunSpec {
                            noise: Noise {
                                percent: noise,
                                scope: NoiseScope::PerNode,
                                seed,
                            },
                            ..case.spec()
                        })
                    });
                },
            );
        }
    }
    g.finish();
}

/// Figure 8 (reduced): topology-aware algorithms at 4 MB.
fn fig8_topology_aware(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_topo_bcast_4MB");
    g.sample_size(10);
    for lib in [
        Library::IntelTopo(IntelAlg::Binomial),
        Library::IntelTopo(IntelAlg::Ring),
        Library::IntelTopo(IntelAlg::ShmKnomial),
        Library::OmpiDefaultTopo,
        Library::OmpiAdapt,
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(lib.label()), &lib, |b, &lib| {
            let case = cpu_case(lib, OpKind::Bcast, 4 << 20);
            b.iter(|| execute(&case.spec()));
        });
    }
    g.finish();
}

/// Figure 9 (reduced): end-to-end sweep over message sizes.
fn fig9_message_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_bcast_sweep");
    g.sample_size(10);
    for msg_kb in [64u64, 512, 4096] {
        for lib in [Library::OmpiAdapt, Library::OmpiDefault] {
            g.bench_with_input(
                BenchmarkId::new(lib.label(), format!("{msg_kb}K")),
                &(lib, msg_kb),
                |b, &(lib, kb)| {
                    let case = cpu_case(lib, OpKind::Bcast, kb << 10);
                    b.iter(|| execute(&case.spec()));
                },
            );
        }
    }
    g.finish();
}

/// Figure 10 (reduced): strong scaling of the ADAPT broadcast.
fn fig10_strong_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_adapt_scaling");
    g.sample_size(10);
    for nodes in [2u32, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(nodes * 32), &nodes, |b, &n| {
            let machine = profiles::cori(n);
            let case = CollectiveCase {
                nranks: machine.cpu_job_size(),
                machine,
                op: OpKind::Bcast,
                library: Library::OmpiAdapt,
                msg_bytes: 4 << 20,
            };
            b.iter(|| execute(&case.spec()));
        });
    }
    g.finish();
}

/// Figure 11 (reduced): GPU broadcast and reduce at 8 MB on 2 nodes.
fn fig11_gpu(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_gpu_8MB");
    g.sample_size(10);
    for op in [OpKind::Bcast, OpKind::Reduce] {
        for lib in [GpuLibrary::OmpiAdapt, GpuLibrary::Mvapich] {
            g.bench_with_input(
                BenchmarkId::new(format!("{op:?}"), lib.label()),
                &(op, lib),
                |b, &(op, lib)| {
                    let machine = profiles::psg(2);
                    let case = GpuCase {
                        nranks: machine.gpu_job_size(),
                        machine,
                        op,
                        library: lib,
                        msg_bytes: 8 << 20,
                    };
                    b.iter(|| execute(&case.spec()));
                },
            );
        }
    }
    g.finish();
}

/// Table 1 (reduced): ASP under two libraries.
fn table1_asp(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_asp");
    g.sample_size(10);
    for lib in [Library::OmpiAdapt, Library::OmpiDefault] {
        g.bench_with_input(BenchmarkId::from_parameter(lib.label()), &lib, |b, &lib| {
            let machine = profiles::cori(2);
            b.iter(|| {
                run_asp(&AspConfig {
                    machine: machine.clone(),
                    nranks: machine.cpu_job_size(),
                    library: lib,
                    row_bytes: 1 << 20,
                    iterations: 8,
                    compute_per_iter: SimDuration::from_micros(200),
                })
                .expect("the benchmarked ASP run completes")
            });
        });
    }
    g.finish();
}

/// Extension collectives (§7 coverage): ring allreduce vs reduce+bcast.
fn e16_extensions(c: &mut Criterion) {
    use adapt_apps::{run_training, GradStrategy, TrainConfig};
    let mut g = c.benchmark_group("e16_gradient_exchange");
    g.sample_size(10);
    for (label, strategy) in [
        ("ring_allreduce", GradStrategy::RingAllreduce),
        ("reduce_bcast", GradStrategy::ReduceBcast),
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(label),
            &strategy,
            |b, &strategy| {
                let machine = profiles::cori(2);
                b.iter(|| {
                    run_training(&TrainConfig {
                        nranks: machine.cpu_job_size(),
                        machine: machine.clone(),
                        grad_bytes: 8 << 20,
                        steps: 2,
                        compute_per_step: SimDuration::from_micros(500),
                        strategy,
                    })
                    .expect("the benchmarked training run completes")
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    figures,
    fig7_noise_impact,
    fig8_topology_aware,
    fig9_message_sizes,
    fig10_strong_scaling,
    fig11_gpu,
    table1_asp,
    e16_extensions
);
criterion_main!(figures);
