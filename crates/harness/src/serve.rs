//! `wbe_tool serve`: the GC-aware overload-protection driver.
//!
//! Runs one deterministic server world ([`wbe_heap::overload`]) — an
//! open-loop load generator driving N connection machines over the
//! stepped scheduler while the [`wbe_heap::pressure`] ladder defends
//! the heap — and reports per-request latency percentiles, shed rate,
//! and every ladder transition with its machine-readable reason.
//!
//! The process exit contract (enforced by `wbe_tool serve`):
//!
//! * **0** — the run stayed at [`PressureLevel::Nominal`] and any SLOs
//!   given were met;
//! * **1** — the ladder engaged (pacing / throttling / shedding /
//!   emergency) but every SLO given was still met: the server degraded
//!   *within* the ladder, which is the ladder working;
//! * **2** — an SLO was violated (`--slo-p99` latency or
//!   `--slo-shed-pct` shed budget), or the run recorded a soundness
//!   violation.
//!
//! Output is byte-identical for equal options: every decision in the
//! world derives from the seed, latencies are logical scheduler steps,
//! and the report carries no wall-clock fields. NDJSON mode emits one
//! line per ladder transition followed by a closing summary line, so a
//! CI diff of two runs is the determinism check.

use std::fmt;

use wbe_heap::{
    run_serve, FaultConfig, PressureConfig, PressureLevel, ServeOutcome, ServeScenario,
    ServeWorldConfig,
};
use wbe_telemetry::config::{configure, TelemetryConfig};
use wbe_telemetry::export::chrome_trace_json;
use wbe_telemetry::json::ObjWriter;
use wbe_telemetry::registry::HistogramSnapshot;
use wbe_telemetry::trace::{self, TraceEvent};

/// Options for one serve run.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Tenant count (session-chain slots).
    pub tenants: usize,
    /// Connection (logical mutator thread) count.
    pub connections: usize,
    /// Request mix.
    pub mix: ServeScenario,
    /// Total requests the open-loop generator offers.
    pub requests: usize,
    /// Requests arriving per window (open-loop intensity).
    pub arrivals_per_window: u32,
    /// Work units (≈ allocations) per request.
    pub request_ops: u32,
    /// Seed for arrivals, mixes, and scheduling.
    pub seed: u64,
    /// Heap-occupancy budget the pressure ladder defends.
    pub heap_budget: usize,
    /// Compose the full seeded fault schedule into the run.
    pub chaos: bool,
    /// ‰ chance per arrival window of an overload burst (extra
    /// arrivals); composes into the fault plan with or without
    /// `chaos`.
    pub overload_pm: u16,
    /// p99 latency SLO in scheduler steps (violation ⇒ exit 2).
    pub slo_p99: Option<u64>,
    /// Shed-rate SLO in percent of offered requests (violation ⇒
    /// exit 2).
    pub slo_shed_pct: Option<f64>,
    /// Emit the report as NDJSON instead of text.
    pub ndjson: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            tenants: 4,
            connections: 4,
            mix: ServeScenario::Session,
            requests: 512,
            arrivals_per_window: 2,
            request_ops: 6,
            seed: 0x5e12_7e00,
            heap_budget: 4096,
            chaos: false,
            overload_pm: 0,
            slo_p99: None,
            slo_shed_pct: None,
            ndjson: false,
        }
    }
}

impl ServeOptions {
    fn fault_config(&self) -> Option<FaultConfig> {
        if !self.chaos && self.overload_pm == 0 {
            return None;
        }
        let mut cfg = FaultConfig::from_seed(self.seed);
        if !self.chaos {
            // Overload-only: zero the other knobs so bursts are the
            // only perturbation composed into the run.
            cfg.defer_start_pm = 0;
            cfg.early_start_pm = 0;
            cfg.skip_step_pm = 0;
            cfg.drain_boost_pm = 0;
            cfg.alloc_fail_pm = 0;
        }
        cfg.overload_burst_pm = self.overload_pm;
        Some(cfg)
    }

    fn world_config(&self) -> ServeWorldConfig {
        ServeWorldConfig {
            tenants: self.tenants.max(1),
            connections: self.connections.max(1),
            scenario: self.mix,
            requests: self.requests,
            arrivals_per_window: self.arrivals_per_window.max(1),
            request_ops: self.request_ops.max(1),
            seed: self.seed,
            pressure: PressureConfig::with_budget(self.heap_budget.max(16)),
            fault: self.fault_config(),
            ..ServeWorldConfig::default()
        }
    }
}

/// Latency percentiles over the per-request samples, computed with the
/// same log₂ bucketing the live telemetry histograms use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyProfile {
    /// Completed-request count the profile is over.
    pub count: u64,
    /// Median latency (scheduler steps).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile (equals max below 1000 completed requests).
    pub p999: u64,
    /// Worst request.
    pub max: u64,
}

impl LatencyProfile {
    fn from_samples(samples: &[u64]) -> LatencyProfile {
        let snap = HistogramSnapshot::from_samples(samples.iter().copied());
        LatencyProfile {
            count: snap.count,
            p50: snap.quantile(0.50),
            p90: snap.quantile(0.90),
            p99: snap.quantile(0.99),
            p999: snap.quantile(0.999),
            max: snap.max,
        }
    }
}

/// The whole serve run's report.
#[derive(Debug)]
pub struct ServeReport {
    /// The options the run used.
    pub opts: ServeOptions,
    /// The world's outcome (counters, transitions, violations).
    pub outcome: ServeOutcome,
    /// Latency percentiles over completed requests.
    pub latency: LatencyProfile,
    /// Shed requests as a percentage of offered requests.
    pub shed_pct: f64,
    /// True when `--slo-p99` was given and violated.
    pub slo_p99_violated: bool,
    /// True when `--slo-shed-pct` was given and violated.
    pub slo_shed_violated: bool,
    /// Process exit code per the serve contract (0 / 1 / 2).
    pub exit_code: i32,
    /// Trace events captured during the run (pressure transitions,
    /// GC phases) for the Chrome-trace artifact.
    pub trace: Vec<TraceEvent>,
}

impl ServeReport {
    /// Renders the report in the format `opts` asked for.
    pub fn render(&self) -> String {
        if self.opts.ndjson {
            self.render_ndjson()
        } else {
            self.render_text()
        }
    }

    /// One NDJSON line per ladder transition, then a closing summary
    /// line. Byte-identical across runs with equal options.
    pub fn render_ndjson(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for t in &self.outcome.transitions {
            let mut line = String::new();
            let mut w = ObjWriter::new(&mut line);
            w.field_str("event", "pressure.transition")
                .field_str("from", t.from.name())
                .field_str("to", t.to.name())
                .field_str("reason", t.reason)
                .field_u64("at_observation", t.at_observation)
                .field_u64("occupancy", t.occupancy as u64);
            w.finish();
            let _ = writeln!(out, "{line}");
        }
        let c = &self.outcome.counters;
        let mut line = String::new();
        let mut w = ObjWriter::new(&mut line);
        w.field_str("summary", "serve")
            .field_str("mix", self.opts.mix.name())
            .field_str("seed", &format!("{:#018x}", self.opts.seed))
            .field_u64("tenants", self.opts.tenants as u64)
            .field_u64("connections", self.opts.connections as u64)
            .field_u64("heap_budget", self.opts.heap_budget as u64)
            .field_u64("offered", c.offered)
            .field_u64("admitted", c.admitted)
            .field_u64("shed", c.shed)
            .field_u64("completed", c.completed)
            .field_f64("shed_pct", self.shed_pct)
            .field_u64("stw_overlapped", c.stw_overlapped)
            .field_u64("latency_p50", self.latency.p50)
            .field_u64("latency_p90", self.latency.p90)
            .field_u64("latency_p99", self.latency.p99)
            .field_u64("latency_p999", self.latency.p999)
            .field_u64("latency_max", self.latency.max)
            .field_u64("latency_samples", self.latency.count)
            .field_u64("gc_cycles", c.cycles)
            .field_u64("emergency_stw", c.emergency_stw)
            .field_u64("throttle_stalls", c.throttle_stalls)
            .field_u64("overload_bursts", c.overload_bursts)
            .field_u64("pace_entries", self.outcome.pressure.pace_entries)
            .field_u64("throttle_entries", self.outcome.pressure.throttle_entries)
            .field_u64("shed_entries", self.outcome.pressure.shed_entries)
            .field_u64("emergency_entries", self.outcome.pressure.emergency_entries)
            .field_u64("step_downs", self.outcome.pressure.step_downs)
            .field_str("high_water", self.outcome.high_water.name())
            .field_bool("slo_p99_violated", self.slo_p99_violated)
            .field_bool("slo_shed_violated", self.slo_shed_violated)
            .field_u64("violations", self.outcome.violations.len() as u64)
            .field_str("digest", &format!("{:#018x}", self.outcome.digest()))
            .field_u64("exit_code", self.exit_code as u64);
        w.finish();
        let _ = writeln!(out, "{line}");
        out
    }

    fn render_text(&self) -> String {
        use fmt::Write as _;
        let c = &self.outcome.counters;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve: mix={} seed={:#018x} tenants={} connections={} budget={}",
            self.opts.mix,
            self.opts.seed,
            self.opts.tenants,
            self.opts.connections,
            self.opts.heap_budget
        );
        let _ = writeln!(
            out,
            "  requests: {} offered, {} admitted, {} shed ({:.2}%), {} completed",
            c.offered, c.admitted, c.shed, self.shed_pct, c.completed
        );
        let _ = writeln!(
            out,
            "  latency (steps): p50={} p90={} p99={} p999={} max={} over {} requests \
             ({} overlapped a pause)",
            self.latency.p50,
            self.latency.p90,
            self.latency.p99,
            self.latency.p999,
            self.latency.max,
            self.latency.count,
            c.stw_overlapped
        );
        let _ = writeln!(
            out,
            "  gc: {} cycles, {} emergency STW, {} pause work units, {} swept",
            c.cycles, c.emergency_stw, c.pause_work, c.swept
        );
        let p = &self.outcome.pressure;
        let _ = writeln!(
            out,
            "  ladder: high-water {} (pace {}, throttle {}, shed {}, emergency {} \
             entries; {} step-downs)",
            self.outcome.high_water.name(),
            p.pace_entries,
            p.throttle_entries,
            p.shed_entries,
            p.emergency_entries,
            p.step_downs
        );
        for t in &self.outcome.transitions {
            let _ = writeln!(
                out,
                "    obs {:>5} occ {:>6}: {} -> {} ({})",
                t.at_observation,
                t.occupancy,
                t.from.name(),
                t.to.name(),
                t.reason
            );
        }
        if let Some(slo) = self.opts.slo_p99 {
            let _ = writeln!(
                out,
                "  slo p99 <= {slo}: {}",
                if self.slo_p99_violated {
                    "VIOLATED"
                } else {
                    "met"
                }
            );
        }
        if let Some(slo) = self.opts.slo_shed_pct {
            let _ = writeln!(
                out,
                "  slo shed <= {slo}%: {}",
                if self.slo_shed_violated {
                    "VIOLATED"
                } else {
                    "met"
                }
            );
        }
        for v in &self.outcome.violations {
            let _ = writeln!(out, "  SOUNDNESS VIOLATION: {v}");
        }
        let _ = writeln!(out, "  exit {}", self.exit_code);
        out
    }

    /// The run's trace events as Chrome trace JSON (the CI artifact).
    pub fn trace_chrome_json(&self) -> String {
        chrome_trace_json(&self.trace)
    }
}

/// Runs one serve world and evaluates the exit contract. Deterministic
/// for given options: the report's NDJSON form is byte-identical across
/// runs.
pub fn run_serve_cmd(opts: &ServeOptions) -> ServeReport {
    // Serialize against anything else touching the global telemetry
    // state; tracing must be on so ladder transitions reach the
    // Chrome-trace artifact. Restore the previous configuration on the
    // way out.
    let _guard = crate::registry_lock();
    let prev = configure(TelemetryConfig::all());
    let _ = trace::drain();

    let outcome = run_serve(&opts.world_config());
    let events = trace::drain();
    configure(prev);

    let latency = LatencyProfile::from_samples(&outcome.latencies);
    let shed_pct = if outcome.counters.offered == 0 {
        0.0
    } else {
        outcome.counters.shed as f64 * 100.0 / outcome.counters.offered as f64
    };
    let slo_p99_violated = opts.slo_p99.is_some_and(|slo| latency.p99 > slo);
    let slo_shed_violated = opts.slo_shed_pct.is_some_and(|slo| shed_pct > slo);
    let exit_code = if slo_p99_violated || slo_shed_violated || !outcome.violations.is_empty() {
        2
    } else if outcome.high_water > PressureLevel::Nominal {
        1
    } else {
        0
    };

    ServeReport {
        opts: opts.clone(),
        outcome,
        latency,
        shed_pct,
        slo_p99_violated,
        slo_shed_violated,
        exit_code,
        trace: events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light() -> ServeOptions {
        ServeOptions {
            heap_budget: 1_000_000,
            ..ServeOptions::default()
        }
    }

    fn overloaded() -> ServeOptions {
        ServeOptions {
            requests: 2000,
            arrivals_per_window: 6,
            request_ops: 8,
            heap_budget: 220,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn light_run_meets_contract_and_exits_zero() {
        let r = run_serve_cmd(&light());
        assert_eq!(r.exit_code, 0, "{}", r.render());
        assert_eq!(r.outcome.high_water, PressureLevel::Nominal);
        assert_eq!(r.outcome.counters.shed, 0);
        assert_eq!(r.latency.count, r.outcome.counters.completed);
        assert!(r.latency.p50 <= r.latency.p99);
        assert!(r.latency.p99 <= r.latency.max || r.latency.count == 0);
        assert!(r.outcome.violations.is_empty());
    }

    #[test]
    fn overloaded_run_degrades_within_ladder_and_exits_one() {
        let r = run_serve_cmd(&overloaded());
        assert_eq!(r.exit_code, 1, "{}", r.render());
        assert!(r.outcome.high_water > PressureLevel::Nominal);
        assert!(r.outcome.counters.shed > 0, "{}", r.render());
        assert!(r.shed_pct > 0.0);
        // Every ladder rung is visible in the NDJSON transition log.
        let ndjson = r.render_ndjson();
        for reason in [
            "occupancy-above-pace",
            "occupancy-above-throttle",
            "occupancy-above-shed",
            "occupancy-above-emergency",
        ] {
            assert!(ndjson.contains(reason), "missing {reason} in:\n{ndjson}");
        }
        assert!(ndjson.ends_with("}\n"));
    }

    #[test]
    fn violated_slo_exits_two() {
        let opts = ServeOptions {
            slo_p99: Some(1),
            ..overloaded()
        };
        let r = run_serve_cmd(&opts);
        assert_eq!(r.exit_code, 2, "{}", r.render());
        assert!(r.slo_p99_violated);
        // The shed-budget SLO trips independently.
        let opts = ServeOptions {
            slo_p99: None,
            slo_shed_pct: Some(0.0),
            ..overloaded()
        };
        let r = run_serve_cmd(&opts);
        assert_eq!(r.exit_code, 2, "{}", r.render());
        assert!(r.slo_shed_violated);
    }

    #[test]
    fn generous_slos_keep_degraded_exit_one() {
        let opts = ServeOptions {
            slo_p99: Some(u64::MAX),
            slo_shed_pct: Some(100.0),
            ..overloaded()
        };
        let r = run_serve_cmd(&opts);
        assert_eq!(r.exit_code, 1, "{}", r.render());
        assert!(!r.slo_p99_violated && !r.slo_shed_violated);
    }

    #[test]
    fn ndjson_is_byte_identical_for_equal_options() {
        let opts = ServeOptions {
            ndjson: true,
            ..overloaded()
        };
        let a = run_serve_cmd(&opts);
        let b = run_serve_cmd(&opts);
        assert_eq!(a.render_ndjson(), b.render_ndjson());
        assert_eq!(a.outcome.digest(), b.outcome.digest());
        let other = run_serve_cmd(&ServeOptions {
            seed: opts.seed + 1,
            ..opts.clone()
        });
        assert_ne!(a.outcome.digest(), other.outcome.digest());
    }

    #[test]
    fn chaos_composes_overload_bursts() {
        let opts = ServeOptions {
            overload_pm: 400,
            ..overloaded()
        };
        let r = run_serve_cmd(&opts);
        assert!(r.outcome.counters.overload_bursts > 0, "{}", r.render());
        // Bursts only add offered load; accounting still balances.
        let c = &r.outcome.counters;
        assert_eq!(c.offered, c.admitted + c.shed);
    }

    #[test]
    fn trace_artifact_holds_ladder_transitions() {
        let r = run_serve_cmd(&overloaded());
        assert!(
            r.trace.iter().any(|e| e.name == "gc.pressure.transition"),
            "transitions traced"
        );
        let chrome = r.trace_chrome_json();
        assert!(chrome.contains("traceEvents"));
        assert!(chrome.contains("gc.pressure.transition"));
    }
}
