//! Pause comparison: SATB vs incremental-update remark work.
//!
//! Supports the paper's motivating claim (§1, §4.5): "pause times
//! necessary to complete SATB marking are sometimes more than an order
//! of magnitude smaller than corresponding incremental update pauses".
//! Objects allocated during SATB marking are allocated black and never
//! examined; the incremental-update remark must rescan every dirty
//! object, including everything allocated and linked during the cycle.
//!
//! We run the allocation-heavy `jess` workload under both marker styles
//! with the same deterministic GC policy and compare the remark pauses.
//! Each row's distribution is summarized through a telemetry log₂
//! histogram ([`HistogramSnapshot::from_samples`]), so the p50/p99
//! columns here use the same quantile estimator as every exported
//! pause histogram.

use std::fmt;

use wbe_heap::gc::MarkStyle;
use wbe_opt::OptMode;
use wbe_telemetry::registry::HistogramSnapshot;
use wbe_workloads::by_name;

use crate::site::{observe, RunSpec, BASELINE_GC};

/// Pause statistics for one marker style.
#[derive(Clone, Debug)]
pub struct PauseRow {
    /// Style label.
    pub style: &'static str,
    /// Completed GC cycles.
    pub cycles: u64,
    /// Mean remark pause (work units).
    pub mean_pause: f64,
    /// Median remark pause (work units, histogram estimate).
    pub p50_pause: u64,
    /// 99th-percentile remark pause (work units, histogram estimate).
    pub p99_pause: u64,
    /// 99.9th-percentile remark pause (work units, histogram estimate).
    pub p999_pause: u64,
    /// Pause samples behind the percentile estimates (one per remark).
    pub samples: u64,
    /// Max remark pause (work units).
    pub max_pause: usize,
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct PauseReport {
    /// SATB then incremental update.
    pub rows: Vec<PauseRow>,
}

impl PauseReport {
    /// Ratio of incremental-update to SATB mean pause.
    pub fn ratio(&self) -> f64 {
        let satb = self.rows[0].mean_pause.max(1e-9);
        self.rows[1].mean_pause / satb
    }
}

/// Runs the experiment; `scale` shrinks the workload.
pub fn run(scale: f64) -> PauseReport {
    let w = by_name("jess").expect("jess exists");
    let mut rows = Vec::new();
    for (label, style) in [
        ("satb", MarkStyle::Satb),
        ("incremental-update", MarkStyle::IncrementalUpdate),
    ] {
        let spec = RunSpec {
            scale,
            min_iters: 512,
            style,
            gc: Some(BASELINE_GC),
            ..RunSpec::paper(OptMode::Baseline, 100)
        };
        let r = observe(&w, &spec)
            .completed()
            .expect("a sound elision never traps");
        let pauses = &r.stats.pauses;
        let hist = HistogramSnapshot::from_samples(pauses.iter().map(|p| p.work_units() as u64));
        rows.push(PauseRow {
            style: label,
            cycles: r.stats.gc_cycles,
            mean_pause: if hist.count == 0 {
                0.0
            } else {
                hist.sum as f64 / hist.count as f64
            },
            p50_pause: hist.quantile(0.50),
            p99_pause: hist.quantile(0.99),
            p999_pause: hist.quantile(0.999),
            samples: hist.count,
            max_pause: hist.max as usize,
        });
    }
    PauseReport { rows }
}

impl fmt::Display for PauseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<20} {:>7} {:>7} {:>12} {:>7} {:>7} {:>7} {:>11}",
            "marker style", "cycles", "samples", "mean pause", "p50", "p99", "p99.9", "max pause"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<20} {:>7} {:>7} {:>12.1} {:>7} {:>7} {:>7} {:>11}",
                r.style,
                r.cycles,
                r.samples,
                r.mean_pause,
                r.p50_pause,
                r.p99_pause,
                r.p999_pause,
                r.max_pause
            )?;
        }
        writeln!(f, "incremental/satb mean-pause ratio: {:.1}x", self.ratio())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satb_pauses_are_an_order_of_magnitude_smaller() {
        let report = run(0.5);
        assert!(report.rows[0].cycles > 0, "SATB cycles completed");
        assert!(report.rows[1].cycles > 0, "IU cycles completed");
        assert!(
            report.ratio() >= 10.0,
            "expected ≥10x pause gap, got {:.1}x ({report})",
            report.ratio()
        );
    }

    #[test]
    fn percentile_columns_are_ordered_and_bounded() {
        let report = run(0.5);
        for r in &report.rows {
            assert!(r.p50_pause <= r.p99_pause, "{r:?}");
            assert!(r.p99_pause <= r.max_pause as u64, "{r:?}");
            assert!(r.max_pause > 0, "{r:?}");
        }
        // The IU percentile gap mirrors the mean gap: its remark rescans
        // dirty objects, so even its median dwarfs SATB's max.
        assert!(
            report.rows[1].p50_pause > report.rows[0].max_pause as u64,
            "{report}"
        );
    }
}
