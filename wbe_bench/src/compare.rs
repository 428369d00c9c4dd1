//! `wbe_bench compare A.json B.json`: the noise floor.
//!
//! Per workload × end-to-end metric: both medians, the delta with its
//! base, the bound, A's own q1–q3 spread, and a verdict. A delta
//! smaller than the spread is printed as noise, not as a percentage
//! to be believed.

use std::fmt::Write as _;

use wbe_telemetry::json::{self, Value};

use crate::metrics::{Better, END_TO_END};
use crate::report::trim;

/// What a pair of medians amounts to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than either file's spread, with the quartile
    /// ranges apart (for single readings: better by more than the bound).
    Improved,
    /// Within the bound and the noise.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// A's spread is wider than the bound and the quartile ranges
    /// overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one metric in one file.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// Median (or the exact value).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

fn reading(v: &Value) -> Option<Reading> {
    if let Some(x) = v.get("value").and_then(Value::as_f64) {
        return Some(Reading {
            median: x,
            q1: x,
            q3: x,
        });
    }
    Some(Reading {
        median: v.get("median")?.as_f64()?,
        q1: v.get("q1")?.as_f64()?,
        q3: v.get("q3")?.as_f64()?,
    })
}

/// Judges `b` against `a`.
pub fn judge(a: Reading, b: Reading, better: Better, bound: f64) -> Verdict {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    if a.median == b.median {
        return Verdict::Unchanged;
    }
    // Share of A's median by which B is worse (negative: better).
    let worse = if a.median == 0.0 {
        sign * (b.median - a.median).signum() * f64::INFINITY
    } else {
        sign * (b.median - a.median) / a.median.abs()
    };
    let share = |r: Reading| {
        if r.median == 0.0 {
            0.0
        } else {
            (r.q3 - r.q1).abs() / r.median.abs()
        }
    };
    let spread = share(a);
    // What a gain has to clear: either file's spread, or the bound
    // where a single reading carries no spread of its own.
    let single = a.q1 == a.q3 && b.q1 == b.q3;
    let floor = if single { bound } else { spread.max(share(b)) };
    let overlap = a.q1.min(a.q3) <= b.q1.max(b.q3) && b.q1.min(b.q3) <= a.q1.max(a.q3);
    if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -floor && (single || !overlap) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "no `workloads` array".to_string())
}

/// Compares two result documents. Returns the table and whether any
/// row regressed or any `fail_ratio` rose.
///
/// # Errors
///
/// Either text is not a result document of this benchmark.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = json::parse(a_text).map_err(|e| format!("A: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("B: {e}"))?;
    for (label, doc) in [("A", &a), ("B", &b)] {
        if doc.get("schema_version").and_then(Value::as_u64).is_none() {
            return Err(format!("{label}: no schema_version"));
        }
    }
    if a.get("schema_version") != b.get("schema_version") {
        return Err("schema versions differ".into());
    }
    let mut out = format!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict\n",
        "workload", "metric", "A", "B", "delta", "bound", "A-spread"
    );
    if a.get("seed") != b.get("seed") {
        out.push_str("note: seeds differ; bound-0 counts are only comparable at one seed\n");
    }
    let mut bad = false;
    for wa in workloads(&a)? {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<16} missing from B");
            continue;
        };
        for def in &END_TO_END {
            let get = |w: &Value| w.get("end_to_end")?.get(def.name).and_then(reading);
            let (Some(ra), Some(rb)) = (get(wa), get(wb)) else {
                continue;
            };
            let verdict = judge(ra, rb, def.better, def.bound);
            let rose = def.name == "fail_ratio" && rb.median > ra.median;
            bad |= verdict == Verdict::Regressed || rose;
            let delta = if ra.median == 0.0 {
                if rb.median == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                100.0 * (rb.median - ra.median) / ra.median.abs()
            };
            let spread = if ra.median == 0.0 {
                0.0
            } else {
                100.0 * (ra.q3 - ra.q1).abs() / ra.median.abs()
            };
            // A delta inside A's own spread is noise whatever its sign.
            let noise = if delta.abs() <= spread && delta != 0.0 {
                " (noise)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{name:<16} {:<22} {:>14} {:>14} {:>+8.2}% {:>6.1}% {:>7.2}%  {}{noise}",
                def.name,
                trim(ra.median),
                trim(rb.median),
                delta,
                100.0 * def.bound,
                spread,
                verdict.as_str()
            );
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(median: f64, q1: f64, q3: f64) -> Reading {
        Reading { median, q1, q3 }
    }

    fn doc(wall: &str, fail_ratio: f64) -> String {
        format!(
            "{{\"schema_version\":1,\"seed\":1,\"workloads\":[{{\"name\":\"w\",\"end_to_end\":{{\
             \"wall_s\":{wall},\"fail_ratio\":{{\"unit\":\"ratio\",\"value\":{fail_ratio}}}}}}}]}}"
        )
    }

    #[test]
    fn documents() {
        let base = doc(
            "{\"unit\":\"s\",\"median\":1.0,\"q1\":0.99,\"q3\":1.01,\"min\":0.98,\"n\":7}",
            0.0,
        );
        let (table, bad) = compare(&base, &base).unwrap();
        assert!(!bad, "{table}");
        assert!(table.contains("unchanged"));
        let slow = doc(
            "{\"unit\":\"s\",\"median\":1.3,\"q1\":1.29,\"q3\":1.31,\"min\":1.28,\"n\":7}",
            0.0,
        );
        let (table, bad) = compare(&base, &slow).unwrap();
        assert!(bad && table.contains("regressed"), "{table}");
        let (table, bad) = compare(&slow, &base).unwrap();
        assert!(!bad && table.contains("improved"), "{table}");
        let failing = doc(
            "{\"unit\":\"s\",\"median\":1.0,\"q1\":0.99,\"q3\":1.01,\"min\":0.98,\"n\":7}",
            0.5,
        );
        assert!(compare(&base, &failing).unwrap().1, "a rise in fail_ratio");
        assert!(compare("{}", &base).is_err());
    }

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        // 20 % slower with tight runs: regressed.
        assert_eq!(
            judge(r(1.0, 0.99, 1.01), r(1.2, 1.19, 1.21), Lower, 0.1),
            Verdict::Regressed
        );
        // 20 % faster with tight runs: improved.
        assert_eq!(
            judge(r(1.0, 0.99, 1.01), r(0.8, 0.79, 0.81), Lower, 0.1),
            Verdict::Improved
        );
        // 2 % off inside a 4 % spread: noise.
        assert_eq!(
            judge(r(1.0, 0.98, 1.02), r(1.02, 1.0, 1.04), Lower, 0.1),
            Verdict::Unchanged
        );
        // Spread wider than the bound and overlapping: cannot tell.
        assert_eq!(
            judge(r(1.0, 0.9, 1.1), r(1.12, 1.0, 1.2), Lower, 0.1),
            Verdict::Unresolved
        );
        // Higher is better: a drop is a regression.
        assert_eq!(
            judge(r(100.0, 99.0, 101.0), r(80.0, 79.0, 81.0), Higher, 0.1),
            Verdict::Regressed
        );
        // Exact counts: any change counts, by direction.
        assert_eq!(
            judge(r(25.0, 25.0, 25.0), r(26.0, 26.0, 26.0), Higher, 0.0),
            Verdict::Improved
        );
        assert_eq!(
            judge(r(25.0, 25.0, 25.0), r(24.0, 24.0, 24.0), Higher, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(r(0.0, 0.0, 0.0), r(0.1, 0.1, 0.1), Lower, 0.0),
            Verdict::Regressed
        );
    }
}
