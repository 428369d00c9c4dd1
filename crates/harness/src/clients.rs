//! §6 framework clients: the paper closes by arguing these analyses
//! belong in "an integrated static analysis framework that provides a
//! variety of information to inform subsequent compilation steps".
//! This experiment runs two such clients over the compiled (inlined)
//! workloads:
//!
//! * **bounds-check removal** — array accesses with provably in-range
//!   indices;
//! * **stack allocation** — allocation sites whose objects cannot
//!   outlive their frame.
//!
//! Both read one solve of each method: adding a client costs a replay,
//! not another fixed point.

use std::fmt;

use wbe_analysis::{bounds, stackalloc, AnalysisConfig, MethodSolution};
use wbe_opt::{compile, OptMode, PipelineConfig};
use wbe_workloads::standard_suite;

/// Per-workload client results.
#[derive(Clone, Debug)]
pub struct ClientsRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Array-access sites with removable bounds checks.
    pub bounds_safe: usize,
    /// Total array-access sites.
    pub bounds_total: usize,
    /// Stack-allocatable allocation sites.
    pub stack_ok: usize,
    /// Total allocation sites.
    pub stack_total: usize,
}

/// The experiment result.
#[derive(Clone, Debug, Default)]
pub struct ClientsReport {
    /// Rows in suite order.
    pub rows: Vec<ClientsRow>,
}

/// Runs both clients over the inlined programs.
pub fn run() -> ClientsReport {
    let mut rows = Vec::new();
    for w in standard_suite() {
        let compiled = compile(&w.program, &PipelineConfig::new(OptMode::Full, 100));
        let mut row = ClientsRow {
            name: w.name,
            bounds_safe: 0,
            bounds_total: 0,
            stack_ok: 0,
            stack_total: 0,
        };
        for (_, m) in compiled.program.iter_methods() {
            let solution = MethodSolution::solve(&compiled.program, m, &AnalysisConfig::full());
            let b = bounds::analyze_solved(&solution);
            row.bounds_safe += b.safe.len();
            row.bounds_total += b.total_sites;
            let s = stackalloc::analyze_solved(&solution);
            row.stack_ok += s.stack_allocatable.len();
            row.stack_total += s.total_sites;
        }
        rows.push(row);
    }
    ClientsReport { rows }
}

impl fmt::Display for ClientsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<9} {:>22} {:>22}",
            "benchmark", "bounds checks removed", "stack-allocatable"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<9} {:>15}/{:<6} {:>15}/{:<6}",
                r.name, r.bounds_safe, r.bounds_total, r.stack_ok, r.stack_total
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_find_work_on_the_suite() {
        let rep = run();
        assert_eq!(rep.rows.len(), 6);
        let total_bounds: usize = rep.rows.iter().map(|r| r.bounds_safe).sum();
        let total_stack: usize = rep.rows.iter().map(|r| r.stack_ok).sum();
        // javac's fresh children array and mtrt's triangle fills have
        // literal in-range indices.
        assert!(total_bounds > 0, "{rep}");
        // Most workload allocations escape by design (they feed the
        // barrier mix), but at least the un-published scratch objects
        // qualify somewhere; this mainly guards against the analysis
        // claiming everything.
        for r in &rep.rows {
            assert!(r.stack_ok <= r.stack_total);
            assert!(r.bounds_safe <= r.bounds_total);
        }
        let _ = total_stack;
    }
}
