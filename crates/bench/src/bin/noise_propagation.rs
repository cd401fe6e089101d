//! Noise-propagation microstudy (§2.1 / Figure 2, quantified).
//!
//! Injects noise on a *single* rank and measures how far the delay
//! propagates under the three dependency regimes the paper analyzes:
//! blocking P2P (data + synchronization dependencies, Figure 2c),
//! non-blocking + Waitall (Figure 3), and ADAPT (data dependencies only).
//! Reports both the victim's own slowdown and the collective-wide
//! slowdown — the gap between them is the propagation the design is
//! supposed to suppress.
//!
//! ```text
//! cargo run --release -p adapt-bench --bin noise_propagation [--scale quick]
//! ```

use adapt_bench::{parse_args, pool_map, print_table, Scale};
use adapt_collectives::{run_trial, CollectiveCase, Library, NoiseScope, OpKind, Trial};
use adapt_core::{topology_aware_tree, TopoTreeConfig, Tree};
use adapt_mpi::{RunError, World};
use adapt_noise::{ClusterNoise, DurationLaw, NoiseSpec};
use adapt_sim::rng::MasterSeed;
use adapt_sim::time::Duration;
use adapt_topology::{profiles, Placement};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = parse_args();
    let scale = Scale::from_args(&args);
    let (machine, nranks) = match scale {
        Scale::Full => (profiles::cori(8), 256u32),
        Scale::Quick => (profiles::cori(2), 64u32),
    };
    // Noise lands mid-tree: an intermediate rank with both a parent and
    // children in every engine's topology.
    let victim = nranks / 2 + 1;
    let iterations = 12;

    let libs = [
        (Library::OmpiBlocking, "blocking P2P (Alg 1)"),
        (Library::OmpiDefault, "nonblocking+Waitall (Alg 2)"),
        (Library::OmpiAdapt, "ADAPT event-driven (Alg 3)"),
    ];

    let trial_machine = machine.clone();
    let rows: Vec<(String, Vec<String>)> = pool_map(libs.to_vec(), move |(library, label)| {
        let mk = |noise: f64| {
            run_trial(&Trial {
                case: CollectiveCase {
                    machine: trial_machine.clone(),
                    nranks,
                    op: OpKind::Bcast,
                    library,
                    msg_bytes: 4 << 20,
                },
                noise_percent: noise,
                scope: NoiseScope::SingleRank(victim),
                iterations,
                repeats: 3,
                seed: 99,
            })
            .mean_us
        };
        let clean = mk(0.0);
        let noisy = mk(10.0);
        (
            label.to_string(),
            vec![
                format!("{:.2}ms", clean / 1000.0),
                format!("{:.2}ms", noisy / 1000.0),
                format!("{:.0}%", (noisy / clean - 1.0) * 100.0),
            ],
        )
    });

    print_table(
        &format!("Noise propagation: 10% noise on single rank {victim} of {nranks}, 4MB broadcast"),
        &[
            "clean".to_string(),
            "noisy".to_string(),
            "slowdown".to_string(),
        ],
        &rows,
    );
    println!(
        "\nBlocking designs forward the victim's delay to parent and \n\
         siblings (synchronization dependencies); ADAPT only pays the \n\
         unavoidable data dependency through the victim's subtree."
    );

    match figure2_relations(&machine, nranks, victim) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("noise_propagation: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The paper's Figure 2, quantified: average per-rank completion delay
/// under single-victim noise, grouped by the rank's tree relation to the
/// victim. Data dependencies make descendants' delay unavoidable;
/// synchronization dependencies leak it to siblings, the parent, and
/// beyond (Figure 2c) — which is exactly what separates the engines.
fn figure2_relations(
    machine: &adapt_topology::MachineSpec,
    nranks: u32,
    victim: u32,
) -> Result<(), Box<RunError>> {
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Relation {
        Victim,
        Descendant,
        Sibling,
        Ancestor,
        Other,
    }

    let placement = Placement::block_cpu(machine.shape, nranks);
    let tree = topology_aware_tree(&placement, TopoTreeConfig::default());
    let relation = |r: u32| -> Relation {
        if r == victim {
            return Relation::Victim;
        }
        // Descendant: victim on r's root path.
        let mut cur = r;
        while let Some(p) = tree.parent(cur) {
            if p == victim {
                return Relation::Descendant;
            }
            cur = p;
        }
        // Ancestor: r on victim's root path.
        let mut cur = victim;
        while let Some(p) = tree.parent(cur) {
            if p == r {
                return Relation::Ancestor;
            }
            cur = p;
        }
        if tree.parent(r).is_some() && tree.parent(r) == tree.parent(victim) {
            return Relation::Sibling;
        }
        Relation::Other
    };

    // Dense windows (1 ms period, up to 0.5 ms long) so every run meets
    // several — this study isolates the propagation *shape*, not the
    // 10 Hz duty of Figure 7.
    let finishes =
        |library: Library, noisy: bool, tree: &Tree| -> Result<Vec<f64>, Box<RunError>> {
            let case = CollectiveCase {
                machine: machine.clone(),
                nranks,
                op: OpKind::Bcast,
                library,
                msg_bytes: 4 << 20,
            };
            // Average per-rank finish times over seeds.
            let mut acc = vec![0.0f64; nranks as usize];
            let seeds = 8u64;
            for s in 0..seeds {
                let noise_model = if noisy {
                    ClusterNoise::single_rank(
                        nranks,
                        victim,
                        NoiseSpec {
                            period: Duration::from_millis(1),
                            max_duration: Duration::from_micros(500),
                            law: DurationLaw::Uniform,
                        },
                        MasterSeed(s),
                    )
                } else {
                    ClusterNoise::silent(nranks)
                };
                let world = World::cpu(machine.clone(), nranks, noise_model);
                let res = world.try_run(case.programs())?;
                for (r, t) in res.per_rank_finish.iter().enumerate() {
                    acc[r] += t.as_micros_f64() / seeds as f64;
                }
            }
            let _ = tree;
            Ok(acc)
        };

    let relations = [
        Relation::Victim,
        Relation::Descendant,
        Relation::Sibling,
        Relation::Ancestor,
        Relation::Other,
    ];
    let rows: Vec<(String, Vec<String>)> = [
        (Library::OmpiBlocking, "blocking (Fig 2c)"),
        (Library::OmpiAdapt, "ADAPT (data deps only)"),
    ]
    .iter()
    .map(|&(library, label)| {
        let clean = finishes(library, false, &tree)?;
        let noisy = finishes(library, true, &tree)?;
        let cells: Vec<String> = relations
            .iter()
            .map(|&rel| {
                let delays: Vec<f64> = (0..nranks)
                    .filter(|&r| {
                        // Group by the blocking tree's relations for the
                        // blocking engine and the topo tree's for ADAPT —
                        // both runs here use their library's own tree, so
                        // classify with the topo tree uniformly for
                        // comparability.
                        relation(r) == rel
                    })
                    .map(|r| (noisy[r as usize] - clean[r as usize]).max(0.0))
                    .collect();
                if delays.is_empty() {
                    "-".to_string()
                } else {
                    format!("{:.0}us", delays.iter().sum::<f64>() / delays.len() as f64)
                }
            })
            .collect();
        Ok((label.to_string(), cells))
    })
    .collect::<Result<_, Box<RunError>>>()?;

    print_table(
        "Figure 2 quantified: mean completion delay by tree relation to the noisy rank",
        &[
            "victim".to_string(),
            "descendants".to_string(),
            "siblings".to_string(),
            "ancestors".to_string(),
            "others".to_string(),
        ],
        &rows,
    );
    println!(
        "Data dependencies delay the victim's subtree in both engines; the\n\
         blocking engine leaks the delay to siblings/ancestors/everyone\n\
         (synchronization dependencies, paper Figure 2c), ADAPT does not."
    );
    Ok(())
}
