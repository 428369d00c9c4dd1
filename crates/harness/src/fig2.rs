//! Figure 2: inline limit vs analysis effectiveness and compile time.
//!
//! For inline limits {0, 25, 50, 100, 200} and modes B/F/A, reports the
//! percentage of dynamic barriers eliminated and the compilation time
//! (inlining + analysis). The paper's findings to reproduce: elision
//! grows with the inline limit and saturates at 100, while compile time
//! keeps growing (the 200 level costs much more and gains almost
//! nothing).

use std::fmt;
use std::time::Duration;

use wbe_opt::OptMode;
use wbe_workloads::standard_suite;

use crate::site::{observe, RunSpec};

/// The swept inline limits, as in the paper.
pub const LIMITS: [usize; 5] = [0, 25, 50, 100, 200];

/// One (limit, mode) cell aggregated over the whole suite.
#[derive(Clone, Debug)]
pub struct Fig2Cell {
    /// Inline limit.
    pub limit: usize,
    /// Optimization mode.
    pub mode: OptMode,
    /// Dynamic barrier executions eliminated, % of total.
    pub pct_elim: f64,
    /// Total compile time (inlining + analysis) across the suite.
    pub compile_time: Duration,
}

/// The whole figure.
#[derive(Clone, Debug, Default)]
pub struct Fig2 {
    /// Cells in (limit, mode) order.
    pub cells: Vec<Fig2Cell>,
}

impl Fig2 {
    /// Finds a cell.
    pub fn cell(&self, limit: usize, mode: OptMode) -> &Fig2Cell {
        self.cells
            .iter()
            .find(|c| c.limit == limit && c.mode == mode)
            .expect("cell exists")
    }
}

/// Runs the sweep; `scale` shrinks the workloads' iteration counts.
pub fn run(scale: f64) -> Fig2 {
    let suite = standard_suite();
    let mut cells = Vec::new();
    for &limit in &LIMITS {
        for mode in OptMode::ALL {
            let mut total: u64 = 0;
            let mut elim: u64 = 0;
            let mut compile_time = Duration::ZERO;
            let spec = RunSpec {
                scale,
                ..RunSpec::paper(mode, limit)
            };
            for w in &suite {
                let run = observe(w, &spec)
                    .completed()
                    .expect("a sound elision never traps");
                let summary = run.summary();
                total += summary.total();
                elim += summary.eliminated();
                compile_time += run.compiled.inline_time + run.compiled.analysis_time();
            }
            cells.push(Fig2Cell {
                limit,
                mode,
                pct_elim: crate::pct(elim, total),
                compile_time,
            });
        }
    }
    Fig2 { cells }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "(a) dynamic barriers eliminated (% of suite total)")?;
        writeln!(f, "{:>6} {:>8} {:>8} {:>8}", "limit", "B", "F", "A")?;
        for &limit in &LIMITS {
            writeln!(
                f,
                "{:>6} {:>8.1} {:>8.1} {:>8.1}",
                limit,
                self.cell(limit, OptMode::Baseline).pct_elim,
                self.cell(limit, OptMode::FieldOnly).pct_elim,
                self.cell(limit, OptMode::Full).pct_elim,
            )?;
        }
        writeln!(
            f,
            "(b) compile time (inline + analysis, ms; log-scaled in the paper)"
        )?;
        writeln!(f, "{:>6} {:>8} {:>8} {:>8}", "limit", "B", "F", "A")?;
        for &limit in &LIMITS {
            writeln!(
                f,
                "{:>6} {:>8.2} {:>8.2} {:>8.2}",
                limit,
                self.cell(limit, OptMode::Baseline)
                    .compile_time
                    .as_secs_f64()
                    * 1e3,
                self.cell(limit, OptMode::FieldOnly)
                    .compile_time
                    .as_secs_f64()
                    * 1e3,
                self.cell(limit, OptMode::Full).compile_time.as_secs_f64() * 1e3,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elision_grows_with_inline_limit_and_saturates() {
        let fig = run(0.05);
        // Baseline never eliminates anything.
        for &l in &LIMITS {
            assert_eq!(fig.cell(l, OptMode::Baseline).pct_elim, 0.0);
        }
        // A-mode elision is monotone in the limit and saturates at 100.
        let a: Vec<f64> = LIMITS
            .iter()
            .map(|&l| fig.cell(l, OptMode::Full).pct_elim)
            .collect();
        for w in a.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{a:?}");
        }
        assert!(a[3] > a[0], "inlining must matter: {a:?}");
        assert!(
            (a[4] - a[3]).abs() < 2.0,
            "limit 200 gains almost nothing over 100: {a:?}"
        );
        // A ≥ F everywhere (the array analysis only adds elisions).
        for &l in &LIMITS {
            assert!(
                fig.cell(l, OptMode::Full).pct_elim
                    >= fig.cell(l, OptMode::FieldOnly).pct_elim - 1e-9
            );
        }
    }
}
