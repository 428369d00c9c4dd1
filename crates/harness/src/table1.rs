//! Table 1: dynamic barrier-elimination results per benchmark.
//!
//! Columns mirror the paper: total barrier executions, % eliminated,
//! % at potentially-pre-null sites, field/array split, and per-kind
//! elimination rates. Totals here are in thousands (the synthetic
//! workloads scale the paper's ×10⁶ column down ×1000 by default).

use std::fmt;

use wbe_opt::OptMode;
use wbe_workloads::standard_suite;

use crate::site::{observe, RunSpec};

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Total barrier executions.
    pub total: u64,
    /// Percentage eliminated by the analyses.
    pub pct_elim: f64,
    /// Percentage at potentially pre-null store sites (dynamic upper
    /// bound for pre-null techniques).
    pub pct_potential: f64,
    /// Field share of executions (the paper's "Field/Array" column is
    /// `field/100-field`).
    pub pct_field: f64,
    /// Percentage of field-store executions eliminated.
    pub field_elim: f64,
    /// Percentage of array-store executions eliminated.
    pub array_elim: f64,
}

/// The whole table.
#[derive(Clone, Debug, Default)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
}

/// Runs the Table 1 experiment. `scale` multiplies each workload's
/// default iteration count (1.0 reproduces the default magnitudes;
/// tests use smaller scales).
pub fn run(scale: f64) -> Table1 {
    // The paper's headline inlining level (§4.4).
    let spec = RunSpec {
        scale,
        ..RunSpec::paper(OptMode::Full, 100)
    };
    let rows = standard_suite()
        .iter()
        .map(|w| {
            let s = observe(w, &spec)
                .completed()
                .expect("a sound elision never traps")
                .summary();
            Table1Row {
                name: w.name,
                total: s.total(),
                pct_elim: s.pct_eliminated(),
                pct_potential: s.pct_potential_pre_null(),
                pct_field: s.pct_field(),
                field_elim: s.pct_field_eliminated(),
                array_elim: s.pct_array_eliminated(),
            }
        })
        .collect();
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<9} {:>10} {:>7} {:>11} {:>11} {:>7} {:>7}",
            "benchmark", "Total x10^3", "% elim", "% Pot.pre0", "Field/Array", "Fld%el", "Arr%el"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<9} {:>10.1} {:>7.1} {:>11.1} {:>8.0}/{:<2.0} {:>7.1} {:>7.1}",
                r.name,
                r.total as f64 / 1_000.0,
                r.pct_elim,
                r.pct_potential,
                r.pct_field,
                100.0 - r.pct_field,
                r.field_elim,
                r.array_elim,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let t = run(0.1);
        assert_eq!(t.rows.len(), 6);
        let by: std::collections::HashMap<_, _> =
            t.rows.iter().map(|r| (r.name, r.clone())).collect();

        // Elimination-rate ordering: mtrt > jess > jack > javac > jbb > db.
        assert!(by["mtrt"].pct_elim > by["jess"].pct_elim);
        assert!(by["jess"].pct_elim > by["jack"].pct_elim);
        assert!(by["jack"].pct_elim > by["javac"].pct_elim);
        assert!(by["javac"].pct_elim > by["jbb"].pct_elim);
        assert!(by["jbb"].pct_elim > by["db"].pct_elim);

        // Field elimination is near-total for jess and db.
        assert!(by["jess"].field_elim > 90.0, "{}", by["jess"].field_elim);
        assert!(by["db"].field_elim > 90.0, "{}", by["db"].field_elim);

        // Array elimination is zero except for javac and mtrt.
        for name in ["jess", "db", "jack", "jbb"] {
            assert_eq!(by[name].array_elim, 0.0, "{name}");
        }
        assert!(by["mtrt"].array_elim > 30.0);
        assert!(by["javac"].array_elim > 10.0);

        // db is array-dominated; javac is field-dominated.
        assert!(by["db"].pct_field < 20.0);
        assert!(by["javac"].pct_field > 84.0);

        // %elim never exceeds the potential upper bound.
        for r in &t.rows {
            assert!(
                r.pct_elim <= r.pct_potential + 1e-9,
                "{}: {} > {}",
                r.name,
                r.pct_elim,
                r.pct_potential
            );
        }
    }
}
