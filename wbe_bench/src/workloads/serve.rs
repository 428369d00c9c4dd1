//! `serve-open-loop`: `wbe_heap::run_serve`, an open loop whose
//! arrivals are timed from the step they were due.
//!
//! Two segments per rep:
//!
//! * **rate ladder** — 20 000 requests, 4 tenants / 4 connections,
//!   2 arrivals per window at `arrival_interval` {48, 32, 24, 20, 16}
//!   (41.7–125 requests per 1 000 steps), heap budget 1 000 000, each of
//!   the three request mixes. The latency limit is p99 ≤ 64 steps with
//!   the second half's p50 at most 1.5 × the first half's (no growing
//!   backlog), and nothing shed.
//! * **overload** — the repository's stock overloaded configuration
//!   (2 000 requests, 6 arrivals per window, 8 ops per request, heap
//!   budget 220) × three mixes × 16 seeds.
//!
//! One op is one completed request. Percentiles come from
//! `ServeOutcome::latencies` (exact, not the registry's log₂
//! histogram). This is the only workload where `sched`, `safepoint` and
//! `pressure` do work, and the one ROADMAP item 4 names for tail
//! latency.

use std::time::Instant;

use wbe_heap::gc::{PHASE_REMARK, PHASE_SWEEP};
use wbe_heap::overload::ServeWorld;
use wbe_heap::{run_serve, PressureConfig, ServeOutcome, ServeScenario, ServeWorldConfig};

use super::{
    fnv1a, with_telemetry, Check, Facts, LayerCtx, Layers, Rep, Rng, Row, Scale, Workload,
};
use crate::stats::percentile;
use crate::trace::{Recorder, BENCH_LAYER};

const INTERVALS: [u32; 5] = [48, 32, 24, 20, 16];
/// The ladder rung `latency_p50_steps` / `latency_p99_steps` report.
const REPORT_INTERVAL: u32 = 24;
const LADDER_REQUESTS: u64 = 8_000;
const OVERLOAD_SEEDS: u64 = 8;
const P99_LIMIT_STEPS: u64 = 64;
const ARRIVALS_PER_WINDOW: u32 = 2;
const SERVE: &str = "wbe-heap::overload";

/// One `run_serve` configuration and where it belongs.
struct Run {
    cfg: ServeWorldConfig,
    /// `Some(interval)` on the ladder, `None` for overload.
    rung: Option<u32>,
}

/// The workload.
pub struct ServeOpenLoop {
    runs: Vec<Run>,
}

fn rate_pm(interval: u32) -> f64 {
    f64::from(ARRIVALS_PER_WINDOW) * 1000.0 / f64::from(interval)
}

/// Whether a ladder run's completed requests met the latency limit.
fn meets_limit(out: &ServeOutcome) -> bool {
    let l = &out.latencies;
    if l.is_empty() {
        return false;
    }
    let (first, second) = l.split_at(l.len() / 2);
    percentile(l, 99.0) <= P99_LIMIT_STEPS
        && percentile(second, 50.0) as f64 <= 1.5 * percentile(first, 50.0) as f64
}

/// A rate is sustained when the limit is met and nothing was refused:
/// a refused request misses any limit.
fn sustained(out: &ServeOutcome) -> bool {
    meets_limit(out) && out.counters.shed == 0 && out.violations.is_empty()
}

impl ServeOpenLoop {
    /// Derives every serve seed from `seed`.
    pub fn setup(seed: u64, scale: Scale) -> ServeOpenLoop {
        let mut rng = Rng::new(seed, 3);
        let mut runs = Vec::new();
        for &interval in &INTERVALS {
            for scenario in ServeScenario::ALL {
                runs.push(Run {
                    cfg: ServeWorldConfig {
                        scenario,
                        requests: scale.of(LADDER_REQUESTS).max(400) as usize,
                        arrival_interval: interval,
                        arrivals_per_window: ARRIVALS_PER_WINDOW,
                        seed: rng.next_u64(),
                        pressure: PressureConfig::with_budget(1_000_000),
                        ..ServeWorldConfig::default()
                    },
                    rung: Some(interval),
                });
            }
        }
        for _ in 0..scale.of(OVERLOAD_SEEDS).max(2) {
            for scenario in ServeScenario::ALL {
                runs.push(Run {
                    cfg: ServeWorldConfig {
                        scenario,
                        requests: 2000,
                        arrivals_per_window: 6,
                        request_ops: 8,
                        seed: rng.next_u64(),
                        pressure: PressureConfig::with_budget(220),
                        ..ServeWorldConfig::default()
                    },
                    rung: None,
                });
            }
        }
        // The world of every run is constructible: tenant tables, LRU
        // slots and connection entries allocate without error.
        for run in &runs {
            std::hint::black_box(ServeWorld::new(&run.cfg).expect("stock serve worlds build"));
        }
        ServeOpenLoop { runs }
    }

    fn run_all(&self, rec: &mut Recorder) -> (f64, Vec<ServeOutcome>) {
        let start = Instant::now();
        let pass = rec.enter(BENCH_LAYER, "serve.rep");
        let outs = self
            .runs
            .iter()
            .map(|r| rec.call(SERVE, "run_serve", || run_serve(&r.cfg)))
            .collect();
        rec.exit(pass);
        (start.elapsed().as_secs_f64(), outs)
    }

    /// Interval of the highest ladder rate at which every mix meets the
    /// limit, with every lower rate meeting it too; 0 if the lowest
    /// already fails.
    fn max_sustained(&self, outs: &[ServeOutcome]) -> u32 {
        let mut best = 0;
        for &interval in &INTERVALS {
            let ok = self
                .runs
                .iter()
                .zip(outs)
                .filter(|(r, _)| r.rung == Some(interval))
                .all(|(_, o)| sustained(o));
            if !ok {
                break;
            }
            best = interval;
        }
        best
    }

    fn facts(&self, outs: &[ServeOutcome]) -> Facts {
        let mut facts = Facts::new();
        let mut digest = 0u64;
        let mut report: Vec<u64> = Vec::new();
        let (mut shed, mut offered) = (0u64, 0u64);
        for (run, out) in self.runs.iter().zip(outs) {
            digest = fnv1a(digest, &out.digest().to_le_bytes());
            match run.rung {
                Some(REPORT_INTERVAL) => report.extend(&out.latencies),
                Some(_) => {}
                None => {
                    shed += out.counters.shed;
                    offered += out.counters.offered;
                }
            }
        }
        for &interval in &INTERVALS {
            let met = self
                .runs
                .iter()
                .zip(outs)
                .filter(|(r, _)| r.rung == Some(interval))
                .all(|(_, o)| meets_limit(o));
            facts.insert(format!("ladder/{interval}/met"), u64::from(met));
        }
        facts.insert("digest".into(), digest);
        facts.insert("latency_p50".into(), percentile(&report, 50.0));
        facts.insert("latency_p99".into(), percentile(&report, 99.0));
        facts.insert("latency_samples".into(), report.len() as u64);
        facts.insert("overload/shed".into(), shed);
        facts.insert("overload/offered".into(), offered);
        facts.insert(
            "max_sustained_interval".into(),
            u64::from(self.max_sustained(outs)),
        );
        facts
    }
}

impl Workload for ServeOpenLoop {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let (wall_s, outs) = self.run_all(rec);
        let mut rep = Rep {
            wall_s,
            facts: self.facts(&outs),
            ..Rep::default()
        };
        for (run, out) in self.runs.iter().zip(&outs) {
            rep.ops += out.counters.completed;
            rep.attempted += out.counters.offered;
            for v in &out.violations {
                rep.failures
                    .push(format!("{}/{:?}: {v}", out_name(run), run.cfg.scenario));
            }
            // On a rung that meets the limit nothing may be refused.
            if run.rung.is_some() && meets_limit(out) && out.counters.shed > 0 {
                rep.failures.push(format!(
                    "{}: {} requests shed",
                    out_name(run),
                    out.counters.shed
                ));
            }
        }
        rep
    }

    fn check(&mut self, facts: &Facts) -> Check {
        // `run_serve` audits the snapshot and the heap invariants at
        // every cycle boundary itself; what the check pass adds is the
        // pause and heap-size maxima, which only the registry exposes.
        let mut rec = Recorder::off();
        let ((_, outs), snap) = with_telemetry(|| self.run_all(&mut rec));
        let mut check = Check {
            attempted: outs.iter().map(|o| o.counters.offered).sum(),
            ..Check::default()
        };
        if &self.facts(&outs) != facts {
            check
                .failures
                .push("the check pass and the timed reps diverged".into());
        }
        let max = |name: &str| snap.histogram(name).map_or(0, |h| h.max) as f64;
        let f = |k: &str| facts.get(k).copied().unwrap_or(0) as f64;
        check.counts = vec![
            ("latency_p50_steps", f("latency_p50")),
            ("latency_p99_steps", f("latency_p99")),
            (
                "max_sustained_rate_pm",
                match f("max_sustained_interval") as u32 {
                    0 => 0.0,
                    interval => rate_pm(interval),
                },
            ),
            (
                "shed_ratio",
                f("overload/shed") / f("overload/offered").max(1.0),
            ),
            ("stw_pause_max_wu", max(PHASE_REMARK)),
            ("peak_heap_objects", max(PHASE_SWEEP)),
        ];
        check
            .digests
            .insert("outcomes".into(), facts.get("digest").copied().unwrap_or(0));
        for &interval in &INTERVALS {
            let mut pooled: Vec<u64> = Vec::new();
            let (mut shed, mut first, mut second) = (0u64, Vec::new(), Vec::new());
            for (run, out) in self.runs.iter().zip(&outs) {
                if run.rung == Some(interval) {
                    pooled.extend(&out.latencies);
                    let (a, b) = out.latencies.split_at(out.latencies.len() / 2);
                    first.extend(a);
                    second.extend(b);
                    shed += out.counters.shed;
                }
            }
            check.rows.push(Row {
                name: format!("ladder/interval-{interval}"),
                values: vec![
                    ("rate_pm", rate_pm(interval)),
                    ("p50_steps", percentile(&pooled, 50.0) as f64),
                    ("p99_steps", percentile(&pooled, 99.0) as f64),
                    ("first_half_p50", percentile(&first, 50.0) as f64),
                    ("second_half_p50", percentile(&second, 50.0) as f64),
                    ("samples", pooled.len() as f64),
                    ("shed", shed as f64),
                    ("limit_met", f(&format!("ladder/{interval}/met"))),
                ],
            });
        }
        check
    }

    fn layers(&mut self, rec: &mut Recorder, ctx: &LayerCtx) -> Layers {
        let ((wall_s, outs), snap) = with_telemetry(|| self.run_all(rec));
        let mut out = Layers {
            traced_wall_s: wall_s,
            ..Layers::default()
        };
        let sum = |f: fn(&ServeOutcome) -> u64| outs.iter().map(f).sum::<u64>() as f64;
        let steps = sum(|o| o.counters.steps);
        out.exact("sched.steps", steps);
        // From the untraced reps: tracing slows the steps it counts.
        out.exact("sched.step_ns", ctx.untraced_wall_s * 1e9 / steps.max(1.0));
        out.exact("safepoint.acks", sum(|o| o.counters.safepoint_acks));
        out.exact("safepoint.parks", sum(|o| o.counters.parks));
        out.exact("satb.flushes", sum(|o| o.counters.flushes));
        out.exact("satb.logged", sum(|o| o.counters.satb_logged));
        out.exact("pressure.transitions", sum(|o| o.transitions.len() as u64));
        out.exact(
            "pressure.high_water",
            outs.iter().map(|o| o.high_water as u64).max().unwrap_or(0) as f64,
        );
        out.exact("pressure.emergency_stw", sum(|o| o.counters.emergency_stw));
        out.exact(
            "pressure.throttle_stalls",
            sum(|o| o.counters.throttle_stalls),
        );
        out.exact("pressure.shed", sum(|o| o.counters.shed));
        out.exact("heap.allocations", sum(|o| o.counters.allocs));
        out.exact("heap.frees", sum(|o| o.counters.swept));
        out.exact("gc.cycles", sum(|o| o.counters.cycles));
        out.exact("gc.swept", sum(|o| o.counters.swept));
        out.exact("gc.concurrent_scans", sum(|o| o.counters.mark_work));
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        out.exact("gc.satb_logs", counter("heap.gc.satb_logs"));
        out.exact("gc.allocated_black", counter("heap.gc.allocated_black"));
        if let Some(h) = snap.histogram(PHASE_REMARK) {
            // Log2-bucket estimates except the max, which is exact.
            out.exact("gc.remark_wu_p50", h.quantile(0.5) as f64);
            out.exact("gc.remark_wu_p99", h.quantile(0.99) as f64);
            out.exact("gc.remark_wu_max", h.max as f64);
        }
        if let Some(h) = snap.histogram(PHASE_SWEEP) {
            out.exact("gc.sweep_wu_p50", h.quantile(0.5) as f64);
            out.exact("gc.sweep_wu_max", h.max as f64);
            out.exact("heap.peak_capacity", h.max as f64);
        }
        out.exact(
            "telemetry.overhead_pct",
            100.0 * (out.traced_wall_s / ctx.untraced_wall_s - 1.0),
        );
        out
    }
}

fn out_name(run: &Run) -> String {
    match run.rung {
        Some(i) => format!("ladder/interval-{i}"),
        None => "overload".into(),
    }
}
