//! Combined-techniques experiment: how much of the SATB logging traffic
//! disappears when everything in the paper (implemented and proposed)
//! is applied together — pre-null elision (§2+§3), null-or-same (§4.3),
//! and the array-rearrangement protocol (§4.3).
//!
//! The metric is the fraction of barrier executions that perform no
//! logging work: statically elided executions plus protocol member
//! stores. This is the paper's trajectory — each §4.3 technique was
//! motivated by the largest remaining store sites after the previous
//! one.

use std::fmt;

use wbe_interp::{ElidedBarriers, GcPolicy};
use wbe_opt::{OptMode, PipelineConfig};
use wbe_workloads::standard_suite;

use crate::site::{compile_workload_with, observe_compiled, RunSpec};

/// One workload's stacked results.
#[derive(Clone, Debug)]
pub struct CombinedRow {
    /// Benchmark name.
    pub name: &'static str,
    /// % removed by pre-null elision alone.
    pub pre_null: f64,
    /// % removed with null-or-same added.
    pub with_nos: f64,
    /// % of barrier executions doing no logging with the rearrangement
    /// protocol also active.
    pub with_rearrange: f64,
}

/// The experiment result.
#[derive(Clone, Debug, Default)]
pub struct CombinedReport {
    /// Rows in suite order.
    pub rows: Vec<CombinedRow>,
}

/// Runs the stacked experiment at `scale`. Each workload compiles once,
/// with null-or-same on: that changes neither inlining nor the pre-null
/// verdicts, so the pre-null run takes the build's pre-null sites alone.
pub fn run(scale: f64) -> CombinedReport {
    let spec = RunSpec {
        scale,
        min_iters: 64,
        gc: Some(GcPolicy {
            alloc_trigger: 500,
            step_interval: 32,
            step_budget: 8,
        }),
        ..RunSpec::paper(OptMode::Full, 100)
    };
    let with_rearrange = RunSpec {
        rearrange: true,
        ..spec.clone()
    };
    let config = PipelineConfig::new(OptMode::Full, 100).with_null_or_same();
    let rows = standard_suite()
        .iter()
        .map(|w| {
            let (compiled, with_nos) = compile_workload_with(w, &config);
            let pre_null: ElidedBarriers = compiled.elided_sites().into_iter().collect();
            let quiet_pct = |elided: &ElidedBarriers, spec: &RunSpec| {
                let obs = observe_compiled(w, compiled.clone(), elided.clone(), spec)
                    .completed()
                    .expect("a sound elision never traps");
                let quiet = obs.stats.elided_executions + obs.stats.rearrange_skipped;
                crate::pct(quiet, obs.summary().total())
            };
            CombinedRow {
                name: w.name,
                pre_null: quiet_pct(&pre_null, &spec),
                with_nos: quiet_pct(&with_nos, &spec),
                with_rearrange: quiet_pct(&with_nos, &with_rearrange),
            }
        })
        .collect();
    CombinedReport { rows }
}

impl fmt::Display for CombinedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<9} {:>10} {:>14} {:>18}",
            "benchmark", "pre-null%", "+null-or-same%", "+rearrange proto%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<9} {:>10.1} {:>14.1} {:>18.1}",
                r.name, r.pre_null, r.with_nos, r.with_rearrange
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn techniques_stack_monotonically() {
        let rep = run(0.1);
        let by: std::collections::HashMap<_, _> =
            rep.rows.iter().map(|r| (r.name, r.clone())).collect();
        for r in &rep.rows {
            assert!(r.with_nos >= r.pre_null - 1e-9, "{r:?}");
            assert!(r.with_rearrange >= r.with_nos - 1e-9, "{r:?}");
        }
        // db is transformed by the swap protocol (§4.3: >70% of its
        // stores), far beyond what pre-null could do.
        assert!(by["db"].with_rearrange > 60.0, "{:?}", by["db"]);
        assert!(by["db"].pre_null < 20.0);
        // jbb gains from all three.
        assert!(by["jbb"].with_rearrange > by["jbb"].with_nos + 5.0);
    }
}
