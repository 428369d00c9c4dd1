//! Barrier profiling: run a workload under the full pipeline and print
//! its dynamic barrier profile plus the most-frequently-executed store
//! sites whose barriers were *not* eliminated — the §4.3 methodology
//! the paper used to find the null-or-same and array-rearrangement
//! opportunities.
//!
//! Run with: `cargo run --example barrier_profile -- [workload] [iters]`

use std::collections::HashMap;

use wbe_repro::harness::site::{observe, RunSpec};
use wbe_repro::interp::StoreKind;
use wbe_repro::opt::OptMode;
use wbe_repro::workloads::by_name;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "jbb".to_string());
    let w = by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown workload '{name}' (jess|db|javac|mtrt|jack|jbb)");
        std::process::exit(2);
    });
    let iters: i64 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(w.default_iters / 10);

    // Exactly `iters` iterations: no scaled share, the count as the floor.
    let spec = RunSpec {
        scale: 0.0,
        min_iters: iters,
        ..RunSpec::paper(OptMode::Full, 100)
    };
    let run = observe(&w, &spec).completed().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let s = run.summary();
    println!("workload {name} ({iters} iterations)");
    println!(
        "barriers: {} total | {:.1}% eliminated | {:.1}% potentially pre-null",
        s.total(),
        s.pct_eliminated(),
        s.pct_potential_pre_null()
    );
    println!(
        "split: {:.0}% field ({:.1}% elim) / {:.0}% array ({:.1}% elim)",
        s.pct_field(),
        s.pct_field_eliminated(),
        100.0 - s.pct_field(),
        s.pct_array_eliminated()
    );

    // Rank the non-eliminated sites by execution count (§4.3's table).
    let mut sites: Vec<_> = run
        .stats
        .barrier
        .iter()
        .filter(|((m, a, _), _)| !run.elided.contains(*m, *a))
        .collect();
    // (`BarrierStats` iterates in hash order: equally hot sites rank by
    // method and address, so two runs print the same table.)
    sites.sort_by_key(|((m, a, _), st)| (std::cmp::Reverse(st.executions), *m, *a));
    let names: HashMap<_, _> = run
        .compiled
        .program
        .iter_methods()
        .map(|(mid, m)| (mid, m.name.clone()))
        .collect();
    println!("\ntop non-eliminated store sites:");
    println!(
        "{:<28} {:>10} {:>10} {:>9} diagnosis",
        "site", "executions", "pre-null", "kind"
    );
    for ((mid, addr, kind), st) in sites.into_iter().take(8) {
        let diagnosis = if st.executions == st.pre_null {
            "pre-null but unprovable (escaped)"
        } else if st.pre_null == 0 {
            "never pre-null (overwrite/swap idiom)"
        } else {
            "mixed"
        };
        println!(
            "{:<28} {:>10} {:>10} {:>9} {}",
            format!("{}@{}", names[mid], addr),
            st.executions,
            st.pre_null,
            match kind {
                StoreKind::Field => "field",
                StoreKind::Array => "array",
            },
            diagnosis
        );
    }
}
