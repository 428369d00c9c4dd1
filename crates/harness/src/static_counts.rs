//! Static elimination counts (§4.2 / the technical report).
//!
//! §4.2: "In our technical report we also show static counts of
//! eliminated barriers... static results are also important, since they
//! determine the effect of the analysis on compiled code space." This
//! experiment reports per-workload static store-site counts and
//! elimination rates, and checks the paper's observation that dynamic
//! array-store shares exceed static ones (array stores sit in loops).

use std::fmt;

use wbe_opt::OptMode;
use wbe_workloads::standard_suite;

use crate::site::{observe, RunSpec};

/// One workload's static/dynamic comparison.
#[derive(Clone, Debug)]
pub struct StaticRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Static barrier sites after inlining.
    pub sites: usize,
    /// Static sites whose barrier is removed.
    pub elided_sites: usize,
    /// Static share of sites that are array stores (%).
    pub static_array_pct: f64,
    /// Dynamic share of executions that are array stores (%).
    pub dynamic_array_pct: f64,
    /// Static elimination rate (%).
    pub static_elim_pct: f64,
    /// Dynamic elimination rate (%).
    pub dynamic_elim_pct: f64,
}

/// The experiment result.
#[derive(Clone, Debug, Default)]
pub struct StaticReport {
    /// Rows in suite order.
    pub rows: Vec<StaticRow>,
}

/// Runs the experiment.
pub fn run(scale: f64) -> StaticReport {
    let spec = RunSpec {
        scale,
        min_iters: 32,
        ..RunSpec::paper(OptMode::Full, 100)
    };
    let mut rows = Vec::new();
    for w in standard_suite() {
        let run = observe(&w, &spec)
            .completed()
            .expect("a sound elision never traps");
        let analysis = run.compiled.analysis.as_ref().expect("mode A analyzes");
        let sites: usize = analysis.methods.values().map(|m| m.barrier_sites).sum();
        let array_sites: usize = analysis.methods.values().map(|m| m.array_sites).sum();
        let elided: usize = analysis.methods.values().map(|m| m.elided.len()).sum();
        let s = run.summary();
        rows.push(StaticRow {
            name: w.name,
            sites,
            elided_sites: elided,
            static_array_pct: crate::pct(array_sites as u64, sites as u64),
            dynamic_array_pct: 100.0 - s.pct_field(),
            static_elim_pct: crate::pct(elided as u64, sites as u64),
            dynamic_elim_pct: s.pct_eliminated(),
        });
    }
    StaticReport { rows }
}

impl fmt::Display for StaticReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<9} {:>6} {:>7} {:>12} {:>12} {:>11} {:>11}",
            "benchmark", "sites", "elided", "stat arr %", "dyn arr %", "stat elim %", "dyn elim %"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<9} {:>6} {:>7} {:>12.1} {:>12.1} {:>11.1} {:>11.1}",
                r.name,
                r.sites,
                r.elided_sites,
                r.static_array_pct,
                r.dynamic_array_pct,
                r.static_elim_pct,
                r.dynamic_elim_pct
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_array_share_exceeds_static_for_loop_heavy_workloads() {
        let rep = run(0.1);
        let by: std::collections::HashMap<_, _> =
            rep.rows.iter().map(|r| (r.name, r.clone())).collect();
        // The paper: "the percentage of stores executed dynamically that
        // are array stores is usually higher, sometimes considerably,
        // than the corresponding static percentage" — db's sort swaps
        // and jess's per-iteration array stores dominate dynamically.
        assert!(
            by["db"].dynamic_array_pct > by["db"].static_array_pct,
            "{:?}",
            by["db"]
        );
        assert!(
            by["jess"].dynamic_array_pct > by["jess"].static_array_pct,
            "{:?}",
            by["jess"]
        );
        for r in &rep.rows {
            assert!(r.elided_sites <= r.sites, "{r:?}");
            assert!(r.sites > 0, "{r:?}");
        }
    }
}
