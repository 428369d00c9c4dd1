//! Multi-mutator throughput bench: `wbe_tool throughput`.
//!
//! Measures mutator throughput (interpreted instructions per second)
//! at 1 to [`MAX_MUTATORS`] mutators, plus the paper's
//! Table 2 barrier-overhead deltas re-measured in *wall-clock* terms:
//! the same workload run barrier-free (`BarrierMode::None`), with the
//! always-log barrier at every site (kept), and with always-log plus
//! the analysis' elisions applied.
//!
//! Two kinds of output:
//!
//! * the **text report** carries the timing facts (ops/sec, allocation
//!   rate, overhead percentages) — inherently machine-dependent;
//! * the **NDJSON report** carries only deterministic facts
//!   (instruction counts, allocation counts, barrier cycles, world
//!   digests), byte-identical across runs with equal options.
//!
//! Every mutator is an independent interpreter over an independent heap
//! executing the identical deterministic instruction stream (the
//! workload entry, run in fixed chunks until the per-mutator
//! instruction budget is met), so per-mutator digests must agree and
//! aggregate counts are `mutators ×` the single-mutator counts.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use wbe_heap::gc::MarkStyle;
use wbe_interp::{BarrierConfig, BarrierMode, Interp, Value};
use wbe_opt::{OptMode, PipelineConfig};
use wbe_workloads::Workload;

use crate::site::compile_workload_with;

/// The most mutator threads one measurement starts: each is an OS
/// thread with its own interpreter and heap.
pub const MAX_MUTATORS: usize = 16;

/// Options for the throughput bench.
#[derive(Clone, Debug)]
pub struct ThroughputOptions {
    /// Concurrent mutator threads (each with its own interpreter +
    /// heap), at most [`MAX_MUTATORS`].
    pub mutators: usize,
    /// Per-mutator instruction budget: each mutator re-runs the
    /// workload entry in fixed chunks until it has executed at least
    /// this many instructions.
    pub duration_ops: u64,
    /// Workload names (empty = `jess` and `jbb`; `all` = the suite).
    pub workloads: Vec<String>,
    /// Emit the deterministic NDJSON report instead of text.
    pub ndjson: bool,
}

impl Default for ThroughputOptions {
    fn default() -> Self {
        ThroughputOptions {
            mutators: 1,
            duration_ops: 200_000,
            workloads: Vec::new(),
            ndjson: false,
        }
    }
}

/// Deterministic per-run facts for one mutator (every mutator of a row
/// reproduces these exactly).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutatorFacts {
    /// Instructions executed.
    pub insns: u64,
    /// Abstract cycles charged.
    pub cycles: u64,
    /// Cycles charged to barriers.
    pub barrier_cycles: u64,
    /// Executions of elided stores.
    pub elided: u64,
    /// Objects allocated.
    pub allocs: u64,
    /// Completed GC cycles.
    pub gc_cycles: u64,
    /// FNV-1a digest of the final heap.
    pub digest: u64,
}

/// One workload × mutator-count measurement.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Workload name.
    pub workload: String,
    /// Mutator thread count.
    pub mutators: usize,
    /// Per-mutator deterministic facts (identical for every mutator).
    pub per_mutator: MutatorFacts,
    /// Wall-clock for the whole multi-mutator phase.
    pub wall: Duration,
    /// Wall-clock of the barrier-free (`BarrierMode::None`) build.
    pub wall_none: Duration,
    /// Wall-clock of the kept (always-log, no elision) build.
    pub wall_kept: Duration,
    /// Wall-clock of the always-log + elision build.
    pub wall_elided: Duration,
}

impl ThroughputRow {
    /// Aggregate instructions per second across all mutators.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        let total = self.per_mutator.insns * self.mutators as u64;
        total as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Aggregate allocations per second across all mutators.
    #[must_use]
    pub fn allocs_per_sec(&self) -> f64 {
        let total = self.per_mutator.allocs * self.mutators as u64;
        total as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Wall-clock overhead of the kept (always-log everywhere) build
    /// over the barrier-free build, in percent.
    #[must_use]
    pub fn overhead_kept_pct(&self) -> f64 {
        overhead_pct(self.wall_none, self.wall_kept)
    }

    /// Wall-clock overhead of the always-log + elision build over the
    /// barrier-free build, in percent.
    #[must_use]
    pub fn overhead_elided_pct(&self) -> f64 {
        overhead_pct(self.wall_none, self.wall_elided)
    }
}

fn overhead_pct(base: Duration, cfg: Duration) -> f64 {
    let b = base.as_secs_f64().max(1e-9);
    (cfg.as_secs_f64() - b) / b * 100.0
}

/// Runs one mutator to its instruction budget and returns its
/// deterministic facts. The workload entry is re-run in fixed chunks
/// (a pure function of the workload) until `duration_ops` instructions
/// have executed, so equal options execute identical streams.
pub(crate) fn run_mutator(
    engine: &mut Interp,
    w: &Workload,
    duration_ops: u64,
) -> Result<MutatorFacts, wbe_interp::Trap> {
    let chunk = (w.default_iters / 10).max(8);
    while engine.stats().insns < duration_ops {
        engine.run(w.entry, &[Value::Int(chunk)], w.fuel_for(chunk))?;
    }
    let s = engine.stats();
    Ok(MutatorFacts {
        insns: s.insns,
        cycles: s.cycles,
        barrier_cycles: s.barrier_cycles,
        elided: s.elided_executions,
        allocs: engine.heap().stats.allocations,
        gc_cycles: engine.heap().gc.stats.cycles,
        digest: wbe_heap::debug::world_digest(engine.heap()),
    })
}

/// Measures one workload under `opts`: the multi-mutator throughput
/// phase (checked barriers + elision + GC policy — the realistic
/// configuration) and the single-mutator barrier-overhead trio
/// (GC policy off; the paper's Table 2 configurations).
///
/// # Panics
///
/// Panics if the workload traps or two mutators disagree on the final
/// heap digest — both indicate interpreter bugs.
pub fn measure_workload(w: &Workload, opts: &ThroughputOptions) -> ThroughputRow {
    let (compiled, elided) = compile_workload_with(w, &PipelineConfig::new(OptMode::Full, 100));
    let program = &compiled.program;
    let realistic = BarrierConfig::with_elision(BarrierMode::Checked, elided.clone());

    // Multi-mutator phase: N independent interpreters over independent
    // heaps, identical instruction streams.
    let start = Instant::now();
    let facts: Vec<MutatorFacts> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.mutators)
            .map(|_| {
                let config = realistic.clone();
                s.spawn(move || {
                    let mut engine = Interp::with_style(program, config, MarkStyle::Satb);
                    engine.set_gc_policy(crate::site::BASELINE_GC);
                    run_mutator(&mut engine, w, opts.duration_ops)
                        .unwrap_or_else(|t| panic!("workload {} trapped: {t}", w.name))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();
    for f in &facts[1..] {
        assert_eq!(f, &facts[0], "{}: mutators diverged", w.name);
    }

    // Barrier-overhead trio: single mutator, GC policy off (the
    // always-log barrier still pays its cost; with the collector idle
    // the log entries are dropped, mirroring the paper's throughput
    // configuration where marking is not concurrently active).
    let trio = |config: BarrierConfig| -> Duration {
        let start = Instant::now();
        let mut engine = Interp::with_style(program, config, MarkStyle::Satb);
        run_mutator(&mut engine, w, opts.duration_ops)
            .unwrap_or_else(|t| panic!("workload {} trapped: {t}", w.name));
        start.elapsed()
    };
    let wall_none = trio(BarrierConfig::new(BarrierMode::None));
    let wall_kept = trio(BarrierConfig::new(BarrierMode::AlwaysLog));
    let wall_elided = trio(BarrierConfig::with_elision(
        BarrierMode::AlwaysLog,
        elided.clone(),
    ));

    ThroughputRow {
        workload: w.name.to_string(),
        mutators: opts.mutators,
        per_mutator: facts[0],
        wall,
        wall_none,
        wall_kept,
        wall_elided,
    }
}

/// Resolves `opts.workloads` into workload structs (empty = jess +
/// jbb; the literal `all` = the standard suite).
///
/// # Errors
///
/// Returns the first unknown workload name.
pub fn resolve_workloads(names: &[String]) -> Result<Vec<Workload>, String> {
    if names.is_empty() {
        return Ok(vec![
            wbe_workloads::by_name("jess").expect("jess exists"),
            wbe_workloads::by_name("jbb").expect("jbb exists"),
        ]);
    }
    if names.len() == 1 && names[0] == "all" {
        return Ok(wbe_workloads::standard_suite());
    }
    names
        .iter()
        .map(|n| wbe_workloads::by_name(n).ok_or_else(|| format!("unknown workload '{n}'")))
        .collect()
}

/// Runs the bench over the resolved workloads.
///
/// # Errors
///
/// Returns the first unknown workload name.
pub fn run_throughput(opts: &ThroughputOptions) -> Result<Vec<ThroughputRow>, String> {
    Ok(resolve_workloads(&opts.workloads)?
        .iter()
        .map(|w| measure_workload(w, opts))
        .collect())
}

/// Renders the machine-dependent text report (timings included).
#[must_use]
pub fn render_text(rows: &[ThroughputRow], opts: &ThroughputOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "throughput: {} mutator(s) / {} ops per mutator",
        opts.mutators, opts.duration_ops
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>12.0} ops/s  {:>10.0} allocs/s  ({} insns, {} allocs, {} gc cycles per mutator)",
            r.workload,
            r.ops_per_sec(),
            r.allocs_per_sec(),
            r.per_mutator.insns,
            r.per_mutator.allocs,
            r.per_mutator.gc_cycles,
        );
        let _ = writeln!(
            out,
            "{:<8} barrier overhead vs barrier-free: kept {:+.1}%, elided {:+.1}%  \
             (elided barriers skipped: {})",
            "",
            r.overhead_kept_pct(),
            r.overhead_elided_pct(),
            r.per_mutator.elided,
        );
    }
    out
}

/// Renders the deterministic NDJSON report: one line per workload,
/// no wall-clock, so runs with equal options produce byte-identical
/// output.
#[must_use]
pub fn render_ndjson(rows: &[ThroughputRow], opts: &ThroughputOptions) -> String {
    let mut out = String::new();
    for r in rows {
        let mut w = wbe_telemetry::json::ObjWriter::new(&mut out);
        w.field_str("workload", &r.workload)
            .field_u64("mutators", r.mutators as u64)
            .field_u64("duration_ops", opts.duration_ops)
            .field_u64("insns", r.per_mutator.insns)
            .field_u64("cycles", r.per_mutator.cycles)
            .field_u64("barrier_cycles", r.per_mutator.barrier_cycles)
            .field_u64("elided", r.per_mutator.elided)
            .field_u64("allocs", r.per_mutator.allocs)
            .field_u64("gc_cycles", r.per_mutator.gc_cycles)
            .field_str("digest", &format!("{:#018x}", r.per_mutator.digest));
        w.finish();
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts(mutators: usize) -> ThroughputOptions {
        ThroughputOptions {
            mutators,
            duration_ops: 20_000,
            workloads: vec!["jess".into()],
            ndjson: false,
        }
    }

    #[test]
    fn mutator_counts_scale_aggregates_not_facts() {
        let one = run_throughput(&small_opts(1)).unwrap();
        let four = run_throughput(&small_opts(4)).unwrap();
        // Per-mutator facts are invariant in the mutator count; only
        // the aggregate scales.
        assert_eq!(one[0].per_mutator, four[0].per_mutator);
        assert_eq!(four[0].mutators, 4);
    }

    #[test]
    fn unknown_workload_is_reported() {
        let opts = ThroughputOptions {
            workloads: vec!["nope".into()],
            ..ThroughputOptions::default()
        };
        assert!(run_throughput(&opts).is_err());
    }
}
