//! §4.3 extension experiment: additional barriers eliminated by the
//! null-or-same analysis on top of the pre-null analyses.
//!
//! The paper measured (by inspection) that null-or-same stores account
//! for 15% of executed barriers in javac, 14% in jack, and 4% in jbb.
//! This experiment runs the automated analysis and reports the dynamic
//! elimination rate with and without it.

use std::fmt;

use wbe_opt::{OptMode, PipelineConfig};
use wbe_workloads::standard_suite;

use crate::site::{observe, RunSpec};

/// One row: elimination with pre-null only vs with null-or-same added.
#[derive(Clone, Debug)]
pub struct ExtRow {
    /// Benchmark name.
    pub name: &'static str,
    /// % of dynamic barriers eliminated by the pre-null analyses.
    pub pct_pre_null: f64,
    /// % eliminated with the §4.3 null-or-same analysis added.
    pub pct_with_nos: f64,
}

impl ExtRow {
    /// The §4.3 gain in percentage points.
    pub fn gain(&self) -> f64 {
        self.pct_with_nos - self.pct_pre_null
    }
}

/// The experiment result.
#[derive(Clone, Debug, Default)]
pub struct ExtReport {
    /// Rows in the paper's benchmark order.
    pub rows: Vec<ExtRow>,
}

/// Runs the experiment at `scale`.
pub fn run(scale: f64) -> ExtReport {
    let spec = RunSpec {
        pipeline: PipelineConfig::new(OptMode::Full, 100).with_null_or_same(),
        scale,
        min_iters: 16,
        ..RunSpec::paper(OptMode::Full, 100)
    };
    let rows = standard_suite()
        .iter()
        .map(|w| {
            let obs = observe(w, &spec)
                .completed()
                .expect("a sound elision never traps");
            // The run's executions against the pre-null-only set too.
            let pre_null_only = obs.compiled.elided_sites().into_iter().collect();
            ExtRow {
                name: w.name,
                pct_pre_null: obs.stats.barrier.summarize(&pre_null_only).pct_eliminated(),
                pct_with_nos: obs.summary().pct_eliminated(),
            }
        })
        .collect();
    ExtReport { rows }
}

impl fmt::Display for ExtReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<9} {:>12} {:>14} {:>9}",
            "benchmark", "pre-null %", "+null-or-same", "gain (pp)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<9} {:>12.1} {:>14.1} {:>9.1}",
                r.name,
                r.pct_pre_null,
                r.pct_with_nos,
                r.gain()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_or_same_gains_match_the_papers_observations() {
        let rep = run(0.1);
        let by: std::collections::HashMap<_, _> =
            rep.rows.iter().map(|r| (r.name, r.clone())).collect();
        // The §4.3 stores live in javac, jack, and jbb; the gains are
        // roughly one store per iteration of each mix.
        assert!(by["javac"].gain() > 8.0, "{}", by["javac"].gain());
        assert!(by["jack"].gain() > 8.0, "{}", by["jack"].gain());
        assert!(by["jbb"].gain() > 3.0, "{}", by["jbb"].gain());
        // jess/db/mtrt have no such idiom: no change.
        for name in ["jess", "db", "mtrt"] {
            assert!(by[name].gain().abs() < 1e-9, "{name}: {}", by[name].gain());
        }
        // Adding an analysis never reduces elimination.
        for r in &rep.rows {
            assert!(r.pct_with_nos >= r.pct_pre_null - 1e-9);
        }
    }
}
