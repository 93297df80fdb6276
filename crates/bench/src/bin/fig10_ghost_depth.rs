//! Regenerates **Fig. 10** — runtime (normalized to ghost depth 1) for
//! ghost-cell depths 1–4 across a sweep of fluid-system sizes.
//!
//! The paper sweeps the partitioned dimension at fixed rank count (2048 on
//! BG/P for D3Q19; 256 tasks on BG/Q for D3Q39), i.e. a sweep of the
//! points-per-rank ratio R. The trade it measures has two first-order
//! ingredients — extra halo computation `k·(d−1)` planes/step versus one
//! latency payment per `d` steps — whose *balance* depends on where the
//! machine sits. We therefore print the sweep in both regimes:
//!
//! * **compute-bound** (cheap network, the small-size side of the paper's
//!   plot): deep halos only add surface computation → ratios > 1, worst at
//!   small R and for D3Q39's k = 3 — the paper's left-side shape;
//! * **latency-bound** (expensive network, the scaled-out side): the
//!   message-count reduction dominates → depths ≥ 2 win — the paper's
//!   large-size behaviour.
//!
//! The paper's single sweep crosses between these regimes with size because
//! its 2 GB nodes add memory pressure at deep halos; see EXPERIMENTS.md.
//! The GC=4 "OOM" wall at the smallest sizes is reproduced structurally
//! (halo wider than the subdomain is rejected).
//!
//! The last column is the halo payload per rank and step at each depth, from
//! `RankReport.bytes`: a message carries only the populations that cross the
//! cut, so deeper halos ship *more* bytes per step, in fewer messages.
//!
//! ```sh
//! cargo run --release -p lbm-bench --bin fig10_ghost_depth -- [q19|q39]
//! ```

use std::time::Duration;

use lbm_bench::{f, halo_kib_per_step, paper, Table};
use lbm_comm::CostModel;
use lbm_core::index::Dim3;
use lbm_core::kernels::OptLevel;
use lbm_core::lattice::{Lattice, LatticeKind};
use lbm_sim::{CommStrategy, Simulation};

fn sweep(kind: LatticeKind, ranks: usize, steps: usize, rs: &[usize], cost: &CostModel) -> Table {
    let mut t = Table::new(vec![
        "size (global x)",
        "R/rank",
        "GC=1",
        "GC=2",
        "GC=3",
        "GC=4",
        "halo KiB/step GC=1..4",
    ]);
    for &r in rs {
        let global = Dim3::new(ranks * r, 16, 16);
        let mut cells: Vec<String> = vec![format!("{}", global.nx), format!("{r}")];
        let mut base = None;
        let mut kib = Vec::new();
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
                .map_err(lbm_core::Error::from)
                .and_then(|mut sim| sim.run(steps));
            match result {
                Ok(rep) => {
                    let b = *base.get_or_insert(rep.wall_secs);
                    cells.push(f(rep.wall_secs / b, 3));
                    kib.push(f(halo_kib_per_step(&rep), 1));
                }
                Err(_) => cells.push("OOM*".to_string()),
            }
        }
        cells.push(kib.join(" / "));
        t.row(cells);
    }
    t
}

fn main() {
    let kind = std::env::args()
        .nth(1)
        .and_then(|s| LatticeKind::parse(&s))
        .unwrap_or(LatticeKind::D3Q19);
    let lat = Lattice::new(kind);
    let ranks = 8usize;
    let steps = 60usize; // paper: 300; scaled with the cost model
    let rs: &[usize] = match kind {
        LatticeKind::D3Q39 => &[8, 16, 32, 64, 96],
        _ => &[4, 8, 16, 32, 64],
    };

    println!(
        "== Fig. 10{}: runtime vs ghost-cell depth, normalized to GC=1 ==",
        if kind == LatticeKind::D3Q19 { "a" } else { "b" }
    );
    println!(
        "   {} (k = {}), {ranks} ranks, {steps} steps\n",
        lat.name(),
        lat.reach()
    );

    println!("-- compute-bound regime (α = 2 µs): the paper's small-size behaviour --");
    sweep(
        kind,
        ranks,
        steps,
        rs,
        &CostModel::uniform(Duration::from_micros(2), 4e9),
    )
    .print();

    println!("\n-- latency-bound regime (α = 500 µs, β = 1.5 GB/s): the scaled-out behaviour --");
    sweep(
        kind,
        ranks,
        steps,
        rs,
        &CostModel::torus_ramp(Duration::from_micros(500), 1.5e9, ranks, 2.0),
    )
    .print();

    println!("\n  (*) halo exceeds the per-rank subdomain — the reproduction's analogue of");
    println!("      the paper's out-of-memory failure at GC=4 on the 133k case.");
    println!("\n{}", paper::FIG10_NOTE);
}
