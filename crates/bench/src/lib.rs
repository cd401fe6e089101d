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

use adapt_sim::WorkerPool;
use std::collections::HashMap;

/// Evaluate a `rows × cols` grid of independent simulations on a
/// [`WorkerPool`] spanning the host's cores, returning cells in row-major
/// order. Every cell builds its own world inside the job, so the grid is
/// embarrassingly parallel and the results are identical to the
/// sequential nest at any pool width (the pool preserves submission
/// order).
pub fn pool_grid<R, C, T, F>(rows: &[R], cols: &[C], f: F) -> Vec<Vec<T>>
where
    R: Clone + Send + 'static,
    C: Clone + Send + 'static,
    T: Send + 'static,
    F: Fn(R, C) -> T + Send + Sync + 'static,
{
    let pool = WorkerPool::new(WorkerPool::host_threads());
    let items: Vec<(R, C)> = rows
        .iter()
        .flat_map(|r| cols.iter().map(|c| (r.clone(), c.clone())))
        .collect();
    let mut flat = pool.map(items, move |(r, c)| f(r, c)).into_iter();
    rows.iter()
        .map(|_| {
            (0..cols.len())
                .map(|_| flat.next().expect("grid"))
                .collect()
        })
        .collect()
}

/// One pooled map over `items` across the host's cores, order-preserving.
pub fn pool_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(I) -> T + Send + Sync + 'static,
{
    WorkerPool::new(WorkerPool::host_threads()).map(items, f)
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
