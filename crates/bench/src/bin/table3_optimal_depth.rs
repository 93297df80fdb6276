//! Regenerates **Tables III and IV** — the optimal ghost-cell depth as a
//! function of the lattice-points-per-rank ratio R, for D3Q19 (Table III)
//! and D3Q39 (Table IV).
//!
//! For each R the harness times depths 1–4 (where they fit) in both the
//! compute-bound and latency-bound regimes (see `fig10_ghost_depth`) and
//! reports the argmin, alongside the paper's printed bands. The paper's
//! headline — the optimal depth is not 1 and not monotone in R — appears in
//! the latency regime; the compute regime shows why depth 1 wins when the
//! network is cheap relative to the halo surface work. The KiB/step column
//! is the halo payload per rank and step at each depth (`RankReport.bytes`):
//! crossing-only messages make deeper halos ship more bytes, in fewer
//! messages.
//!
//! ```sh
//! cargo run --release -p lbm-bench --bin table3_optimal_depth -- [q19|q39]
//! ```

use std::time::Duration;

use lbm_bench::{f, halo_kib_per_step, paper, Table};
use lbm_comm::CostModel;
use lbm_core::index::Dim3;
use lbm_core::kernels::OptLevel;
use lbm_core::lattice::{Lattice, LatticeKind};
use lbm_sim::{CommStrategy, Simulation};

fn best_depth(
    kind: LatticeKind,
    ranks: usize,
    r: usize,
    steps: usize,
    cost: &CostModel,
) -> (Vec<Option<(f64, f64)>>, usize) {
    let global = Dim3::new(ranks * r, 16, 16);
    let mut times = Vec::new();
    for depth in 1..=4usize {
        let result = Simulation::builder(kind, global)
            .ranks(ranks)
            .warmup(4)
            .ghost_depth(depth)
            .level(OptLevel::Simd)
            .strategy(CommStrategy::NonBlockingGhost)
            .cost(cost.clone())
            .jitter(0.05)
            .build()
            .ok()
            .and_then(|mut sim| sim.run(steps).ok());
        times.push(result.map(|rep| (rep.wall_secs, halo_kib_per_step(&rep))));
    }
    let best = times
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|(t, _)| (i + 1, t)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(d, _)| d)
        .unwrap_or(1);
    (times, best)
}

fn main() {
    let kind = std::env::args()
        .nth(1)
        .and_then(|s| LatticeKind::parse(&s))
        .unwrap_or(LatticeKind::D3Q19);
    let lat = Lattice::new(kind);
    let ranks = 8usize;
    let steps = 50usize;
    let rs: &[usize] = match kind {
        LatticeKind::D3Q39 => &[8, 12, 16, 24, 32, 48, 64],
        _ => &[4, 6, 8, 12, 16, 24, 32, 48, 64],
    };

    println!(
        "== Table {}: optimal ghost-cell depth vs points/rank ratio ({}) ==\n",
        if kind == LatticeKind::D3Q19 {
            "III"
        } else {
            "IV"
        },
        lat.name()
    );

    let compute_cost = CostModel::uniform(Duration::from_micros(2), 4e9);
    let latency_cost = CostModel::torus_ramp(Duration::from_micros(500), 1.5e9, ranks, 2.0);

    let mut t = Table::new(vec![
        "R (planes/rank)",
        "t(GC1) ms",
        "GC2/GC1",
        "GC3/GC1",
        "GC4/GC1",
        "halo KiB/step GC1..4",
        "opt (compute)",
        "opt (latency)",
    ]);
    for &r in rs {
        let (ct, cbest) = best_depth(kind, ranks, r, steps, &compute_cost);
        let (_, lbest) = best_depth(kind, ranks, r, steps, &latency_cost);
        let (t1, _) = ct[0].expect("GC=1 must run");
        let mut cells = vec![format!("{r}"), f(t1 * 1e3, 1)];
        for d in 1..4 {
            cells.push(match ct[d] {
                Some((td, _)) => format!("{:.3}x", td / t1),
                None => "OOM*".into(),
            });
        }
        let kib: Vec<String> = ct.iter().flatten().map(|&(_, kib)| f(kib, 1)).collect();
        cells.push(kib.join(" / "));
        cells.push(format!("{cbest}"));
        cells.push(format!("{lbest}"));
        t.row(cells);
    }
    t.print();
    println!("  (ratio columns show the compute-bound regime)");

    println!("\npaper's printed bands:");
    match kind {
        LatticeKind::D3Q19 => {
            for (band, d) in paper::TABLE3_BANDS {
                println!("  {band:>14} -> depth {d}");
            }
        }
        _ => {
            for (band, d) in paper::TABLE4_BANDS {
                println!("  {band:>16} -> depth {d}");
            }
        }
    }
    println!("\n  (*) halo would exceed the per-rank subdomain (paper: OOM).");
    println!("  Reproduced headline: the optimal depth is set by the latency-amortisation");
    println!("  vs halo-compute trade — depth 1 when the network is cheap (compute column),");
    println!("  depths 2-4 when latency dominates (latency column). The paper's bands mix");
    println!("  both regimes through its nodes' memory pressure; see EXPERIMENTS.md.");
}
