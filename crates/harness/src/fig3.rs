//! Figure 3: effect of the analyses on compiled code size.
//!
//! At inline limit 100, reports the modeled code size for modes B/F/A
//! per benchmark. The paper's finding to reproduce: elision shrinks
//! compiled code by roughly 2–6%, with the array analysis contributing
//! less statically than dynamically (array barriers sit in loops).

use std::fmt;

use wbe_opt::{compile, OptMode, PipelineConfig};
use wbe_workloads::standard_suite;

/// One benchmark's code sizes under the three modes.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Code size with no elision (bytes).
    pub base: usize,
    /// Code size with field analysis.
    pub field: usize,
    /// Code size with field + array analyses.
    pub full: usize,
}

impl Fig3Row {
    /// Percentage saved by the full analyses.
    pub fn pct_saved(&self) -> f64 {
        100.0 * (self.base - self.full) as f64 / self.base as f64
    }
}

/// The whole figure.
#[derive(Clone, Debug, Default)]
pub struct Fig3 {
    /// Rows in the paper's order.
    pub rows: Vec<Fig3Row>,
}

/// Runs the experiment at inline limit 100.
pub fn run() -> Fig3 {
    let rows = standard_suite()
        .iter()
        .map(|w| {
            let size = |mode| compile(&w.program, &PipelineConfig::new(mode, 100)).code_size();
            Fig3Row {
                name: w.name,
                base: size(OptMode::Baseline),
                field: size(OptMode::FieldOnly),
                full: size(OptMode::Full),
            }
        })
        .collect();
    Fig3 { rows }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<9} {:>9} {:>9} {:>9} {:>8}",
            "benchmark", "B bytes", "F bytes", "A bytes", "% saved"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<9} {:>9} {:>9} {:>9} {:>8.1}",
                r.name,
                r.base,
                r.field,
                r.full,
                r.pct_saved()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elision_shrinks_code_modestly() {
        let fig = run();
        assert_eq!(fig.rows.len(), 6);
        for r in &fig.rows {
            assert!(r.full <= r.field && r.field <= r.base, "{r:?}");
            let saved = r.pct_saved();
            assert!(
                saved > 0.5 && saved < 15.0,
                "{}: saving {saved:.1}% outside the plausible band",
                r.name
            );
        }
        // Static array impact is smaller than field impact overall:
        // the F→A step saves less than the B→F step across the suite.
        let bf: usize = fig.rows.iter().map(|r| r.base - r.field).sum();
        let fa: usize = fig.rows.iter().map(|r| r.field - r.full).sum();
        assert!(bf > fa, "B→F saved {bf}, F→A saved {fa}");
    }
}
