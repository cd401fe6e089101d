//! # adapt-bench — figure and table regeneration harness
//!
//! One binary per figure/table of the paper's evaluation (see DESIGN.md's
//! per-experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig7`  | noise-impact bars (broadcast + reduce, 4 MB) |
//! | `fig8`  | topology-aware algorithm sweep over message sizes |
//! | `fig9`  | end-to-end library sweep over message sizes |
//! | `fig10` | CPU strong scaling, 4 MB |
//! | `fig11` | GPU sweep + strong scaling |
//! | `table1` | ASP communication vs total runtime |
//! | `noise_propagation` | §2.1's dependency analysis, quantified |
//! | `ablation` | M>N windows, GPU staging, GPU-offloaded reduce |
//!
//! All binaries take `--machine cori|stampede2` (where applicable) and
//! `--scale full|quick`; `quick` shrinks rank counts and iteration counts
//! so the whole suite runs in minutes on a laptop.

pub mod barometer;
pub mod perf;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Logical cores of this host (1 when the OS cannot say).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Apply `f` to every item on scoped threads spanning the host's cores,
/// returning the results in item order. Every item of the figure grids
/// builds its own world, so the map is embarrassingly parallel and its
/// output is identical to the sequential loop at any width.
pub fn par_map<I: Sync, T: Send>(items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    par_map_on(host_cores(), items, f)
}

/// [`par_map`] on `width` threads: each thread claims the next unclaimed
/// item index until none are left, keeping `(index, result)` pairs that
/// are put back in item order once every thread has joined. A panicking
/// item re-raises its panic on the caller's thread.
fn par_map_on<I: Sync, T: Send>(width: usize, items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..width.min(items.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices; the
                        // results travel back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return out;
                        };
                        out.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Evaluate a `rows × cols` grid with [`par_map`], returning cells in
/// row-major order.
pub fn par_grid<R: Sync, C: Sync, T: Send>(
    rows: &[R],
    cols: &[C],
    f: impl Fn(&R, &C) -> T + Sync,
) -> Vec<Vec<T>> {
    let cells: Vec<(&R, &C)> = rows
        .iter()
        .flat_map(|r| cols.iter().map(move |c| (r, c)))
        .collect();
    let mut flat = par_map(&cells, |&(r, c)| f(r, c)).into_iter();
    rows.iter()
        .map(|_| flat.by_ref().take(cols.len()).collect())
        .collect()
}

/// [`par_grid`] over fallible cells: every cell's value, or the first
/// error in row-major order.
pub fn try_par_grid<R: Sync, C: Sync, T: Send, E: Send>(
    rows: &[R],
    cols: &[C],
    f: impl Fn(&R, &C) -> Result<T, E> + Sync,
) -> Result<Vec<Vec<T>>, E> {
    par_grid(rows, cols, f)
        .into_iter()
        .map(|row| row.into_iter().collect())
        .collect()
}

/// Crude `--key value` argument parser (no external deps).
pub fn parse_args() -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(key) = a.strip_prefix("--") {
            let val = args.next().unwrap_or_else(|| "true".into());
            out.insert(key.to_string(), val);
        }
    }
    out
}

/// Measurement scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale rank counts and iteration counts.
    Full,
    /// Shrunk for fast sanity runs.
    Quick,
}

impl Scale {
    /// Read from parsed args (default full).
    pub fn from_args(args: &HashMap<String, String>) -> Scale {
        match args.get("scale").map(String::as_str) {
            Some("quick") => Scale::Quick,
            _ => Scale::Full,
        }
    }
}

/// The CPU machines of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuMachine {
    /// Cori-like (Aries), 1024 ranks at full scale.
    Cori,
    /// Stampede2-like (Omni-Path), 1536 ranks at full scale.
    Stampede2,
}

impl CpuMachine {
    /// Read from parsed args (default cori).
    pub fn from_args(args: &HashMap<String, String>) -> CpuMachine {
        match args.get("machine").map(String::as_str) {
            Some("stampede2") => CpuMachine::Stampede2,
            _ => CpuMachine::Cori,
        }
    }

    /// Profile + rank count at the given scale.
    pub fn instantiate(self, scale: Scale) -> (adapt_topology::MachineSpec, u32) {
        match (self, scale) {
            (CpuMachine::Cori, Scale::Full) => (adapt_topology::profiles::cori(32), 1024),
            (CpuMachine::Cori, Scale::Quick) => (adapt_topology::profiles::cori(4), 128),
            (CpuMachine::Stampede2, Scale::Full) => (adapt_topology::profiles::stampede2(32), 1536),
            (CpuMachine::Stampede2, Scale::Quick) => (adapt_topology::profiles::stampede2(4), 192),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CpuMachine::Cori => "Cori",
            CpuMachine::Stampede2 => "Stampede2",
        }
    }
}

/// Message sizes of Figures 8 and 9 (64 KB – 4 MB).
pub const FIG89_SIZES: [u64; 7] = [
    64 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
    1 << 20,
    2 << 20,
    4 << 20,
];

/// Pretty size label ("64K", "4M").
pub fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else {
        format!("{}K", bytes >> 10)
    }
}

/// Render an aligned text table: header row, then rows of (label, cells).
pub fn print_table(title: &str, header: &[String], rows: &[(String, Vec<String>)]) {
    println!("\n=== {title} ===");
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once(10))
        .max()
        .unwrap();
    let cell_w = header
        .iter()
        .map(String::len)
        .chain(
            rows.iter()
                .flat_map(|(_, cells)| cells.iter().map(String::len)),
        )
        .max()
        .unwrap_or(8)
        .max(8);
    print!("{:<label_w$}", "");
    for h in header {
        print!("  {h:>cell_w$}");
    }
    println!();
    for (label, cells) in rows {
        print!("{label:<label_w$}");
        for c in cells {
            print!("  {c:>cell_w$}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_item_order_when_wider_than_the_input() {
        // The barrier holds every item until all five run at once, so
        // each of the five threads computes exactly one item.
        let items: Vec<u64> = (0..5).collect();
        let all_running = std::sync::Barrier::new(items.len());
        let out = par_map_on(8, &items, |&i| {
            all_running.wait();
            i * i
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
        let grid = par_grid(&[1u64, 2], &[10u64, 20, 30], |r, c| r * c);
        assert_eq!(grid, vec![vec![10, 20, 30], vec![20, 40, 60]]);
    }

    #[test]
    fn par_map_of_nothing_is_empty() {
        let out: Vec<u8> = par_map_on(4, &[] as &[u8], |&b| b);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            par_map_on(3, &[1u32, 2, 3, 4], |&i| {
                if i == 3 {
                    panic!("item {i} exploded");
                }
                i
            })
        });
        let payload = caught.expect_err("a panicking item must re-raise on the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "item 3 exploded");
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(64 << 10), "64K");
        assert_eq!(size_label(4 << 20), "4M");
    }

    #[test]
    fn machines_instantiate_at_both_scales() {
        let (m, n) = CpuMachine::Cori.instantiate(Scale::Full);
        assert_eq!(n, 1024);
        assert_eq!(m.cpu_job_size(), 1024);
        let (m, n) = CpuMachine::Stampede2.instantiate(Scale::Quick);
        assert_eq!(n, 192);
        assert!(m.cpu_job_size() >= 192);
    }
}
