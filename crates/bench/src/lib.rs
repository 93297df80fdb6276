//! # lbm-bench
//!
//! The experiment harness that regenerates **every table and figure** of the
//! paper's evaluation (see DESIGN.md §4 for the per-experiment index):
//!
//! | Binary | Artifact |
//! |--------|----------|
//! | `table1_lattices`     | Table I — discrete velocity model parameters |
//! | `table2_roofline`     | Table II + §III-C torus bounds (+ measured host row) |
//! | `fig8_opt_ladder`     | Fig. 8a/b — optimization ladder MFlup/s vs model peak |
//! | `fig9_comm_balance`   | Fig. 9 — min/median/max communication time |
//! | `fig10_ghost_depth`   | Fig. 10a/b — runtime vs ghost-cell depth |
//! | `table3_optimal_depth`| Tables III/IV — optimal depth vs points/rank |
//! | `fig11_hybrid`        | Fig. 11a/b — rank × thread sweeps |
//! | `fig1_aorta`          | Fig. 1 — density field illustration |
//! | `bench_mflups`        | Machine-readable per-lattice/per-rung MFLUPS (`BENCH_kernels.json`) |
//!
//! Criterion microbenchmarks (`benches/`) complement the binaries with
//! kernel-level measurements: per-rung stream/collide, equilibrium order
//! cost, halo pack/unpack, and fabric latency.

pub mod paper;

/// Simple fixed-width table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for i in 0..ncol {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            s
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float with fixed precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Halo payload a rank sent per step, in KiB (mean over ranks), from the
/// report's exact byte count: the volume side of the ghost-depth trade-off.
pub fn halo_kib_per_step(rep: &lbm_sim::RunReport) -> f64 {
    let bytes: u64 = rep.per_rank.iter().map(|r| r.bytes).sum();
    bytes as f64 / 1024.0 / rep.ranks as f64 / rep.steps as f64
}

/// Threads available on this host.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let s = t.render();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a') && lines[0].contains("bbbb"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn float_format() {
        assert_eq!(f(12.3456, 2), "12.35");
    }
}
