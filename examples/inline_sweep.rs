//! Inline-limit sweep (Figure 2 in miniature): how the inline budget
//! gates what the analyses can prove, per workload.
//!
//! Each workload's constructors carry different amounts of padding, so
//! their initializing stores become provable at different limits —
//! mtrt's tiny ctor at 25, jbb's big one only at 100.
//!
//! Run with: `cargo run --example inline_sweep`

use wbe_repro::harness::site::{observe, RunSpec};
use wbe_repro::opt::OptMode;
use wbe_repro::workloads::standard_suite;

fn main() {
    let limits = [0usize, 25, 50, 100, 200];
    println!(
        "{:<9} {:>6} {:>6} {:>6} {:>6} {:>6}   (dynamic % barriers eliminated, mode A)",
        "workload", 0, 25, 50, 100, 200
    );
    for w in standard_suite() {
        let mut cells = Vec::new();
        for &limit in &limits {
            let spec = RunSpec {
                scale: 0.1,
                min_iters: 32,
                ..RunSpec::paper(OptMode::Full, limit)
            };
            let run = observe(&w, &spec).completed().unwrap();
            cells.push(run.summary().pct_eliminated());
        }
        println!(
            "{:<9} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
            w.name, cells[0], cells[1], cells[2], cells[3], cells[4]
        );
        // Elision never regresses as the limit grows.
        for pair in cells.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9);
        }
    }
    println!("\nNote how each workload saturates at the limit that first fits its constructors.");
}
