//! `mutator-steady` and `mutator-churn`: IR programs on the classic
//! and the compiled engine, interleaved per rep.
//!
//! Both use `Full`/100, `BarrierMode::Checked` + elision and
//! [`GC_POLICY`], and a fixed instruction budget per program and
//! engine. One op is one IR instruction.
//!
//! * `mutator-steady` (`jbb`, `db`, `javac`, `mtrt`): live heaps stay
//!   under 3.2 k slots, so dispatch plus barrier is at least 90 % of
//!   wall and the collector at most a few percent. It exercises
//!   interpreter changes and bypasses collector changes. `mtrt` is here
//!   on purpose: highest barrier density and allocation rate, smallest
//!   heap.
//! * `mutator-churn` (`server-churn` plus two wide `server` members):
//!   the same engines over heaps where policy-driven collection costs
//!   real time, so a collector or allocator change shows here through
//!   the interpreter and, by prediction, not on `mutator-steady`.

use std::collections::BTreeMap;
use std::time::Instant;

use wbe_heap::gc::{GcStats, MarkStyle, PHASE_SWEEP};
use wbe_interp::{BarrierConfig, BarrierMode, EngineKind, Trap, Value};
use wbe_opt::{compile, Compiled, OptMode, PipelineConfig};
use wbe_workloads::server::{build_churn, build_with, ServerMix, ServerParams};

use super::{
    cells_of, eliding, fused, median, translate_all, with_telemetry, Check, Facts, LayerCtx,
    Layers, Rep, Rng, Row, Scale, Workload, GC_POLICY,
};
use crate::stats::{percentile, Summary};
use crate::trace::{Recorder, BENCH_LAYER};

/// Instructions per program and engine per rep, sized so a rep of
/// either flavour takes about a second on the reference box.
const STEADY_BUDGET: u64 = 10_000_000;
const CHURN_BUDGET: u64 = 8_000_000;
const INLINE_LIMIT: usize = 100;
const ENGINES: [EngineKind; 2] = [EngineKind::Classic, EngineKind::Compiled];

fn layer_of(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Classic => "wbe-interp::machine",
        EngineKind::Compiled => "wbe-interp::compiled",
    }
}

struct Member {
    label: &'static str,
    workload: wbe_workloads::Workload,
    compiled: Compiled,
    /// Iterations per entry call, drawn from the seed.
    chunk: i64,
}

/// Deterministic outcome of one engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RunFacts {
    insns: u64,
    cycles: u64,
    barrier_cycles: u64,
    barrier_exec: u64,
    elided_exec: u64,
    gc_cycles: u64,
    pause_max_wu: u64,
    capacity: u64,
    allocations: u64,
    words: u64,
    frees: u64,
    gc: GcStats,
    digest: u64,
}

impl RunFacts {
    fn named(&self) -> [(&'static str, u64); 18] {
        [
            ("insns", self.insns),
            ("cycles", self.cycles),
            ("barrier_cycles", self.barrier_cycles),
            ("barrier_exec", self.barrier_exec),
            ("elided_exec", self.elided_exec),
            ("gc_cycles", self.gc_cycles),
            ("pause_max_wu", self.pause_max_wu),
            ("capacity", self.capacity),
            ("allocations", self.allocations),
            ("words", self.words),
            ("frees", self.frees),
            ("gc.satb_logs", self.gc.satb_logs),
            ("gc.dirty_marks", self.gc.dirty_marks),
            ("gc.concurrent_scans", self.gc.concurrent_scans),
            ("gc.allocated_black", self.gc.allocated_black),
            ("gc.swept", self.gc.swept),
            ("gc.cycles", self.gc.cycles),
            ("digest", self.digest),
        ]
    }
}

/// One engine run of `member` to the instruction budget. The wall
/// covers engine construction and execution; the facts and the remark
/// pauses' work units are read after it.
fn run(
    member: &Member,
    program: &wbe_ir::Program,
    kind: EngineKind,
    config: BarrierConfig,
    gc: bool,
    budget: u64,
    rec: &mut Recorder,
) -> Result<(f64, RunFacts, Vec<u64>), Trap> {
    let w = &member.workload;
    let args = [Value::Int(member.chunk)];
    let fuel = w.fuel_for(member.chunk);
    let start = Instant::now();
    let mut engine = kind.build(program, config, MarkStyle::Satb);
    if gc {
        engine.set_gc_policy(GC_POLICY);
    }
    while engine.stats().insns < budget {
        let id = rec.enter(layer_of(kind), "Engine::run");
        let r = engine.run(w.entry, &args, fuel);
        rec.exit(id);
        r?;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let st = engine.stats();
    let heap = engine.heap();
    let pauses: Vec<u64> = st.pauses.iter().map(|p| p.work_units() as u64).collect();
    let facts = RunFacts {
        insns: st.insns,
        cycles: st.cycles,
        barrier_cycles: st.barrier_cycles,
        barrier_exec: st.barrier.totals().0,
        elided_exec: st.elided_executions,
        gc_cycles: st.gc_cycles,
        pause_max_wu: pauses.iter().copied().max().unwrap_or(0),
        capacity: heap.store.capacity() as u64,
        allocations: heap.stats.allocations,
        words: heap.stats.words_allocated,
        frees: heap.stats.frees,
        gc: heap.gc.stats,
        digest: wbe_heap::debug::world_digest(heap),
    };
    Ok((wall_s, facts, pauses))
}

/// The workload (either flavour).
pub struct Mutator {
    members: Vec<Member>,
    budget: u64,
    setup: Vec<(&'static str, f64)>,
}

fn wide(mix: ServerMix) -> wbe_workloads::Workload {
    build_with(ServerParams {
        tenants: 4096,
        connections: 1024,
        lru_slots: 4096,
        mix,
    })
}

impl Mutator {
    /// `mutator-steady`.
    pub fn steady(seed: u64, scale: Scale) -> Mutator {
        let named = |n: &'static str| (n, wbe_workloads::by_name(n).expect("suite program exists"));
        Mutator::setup(
            || vec![named("jbb"), named("db"), named("javac"), named("mtrt")],
            seed,
            scale.of(STEADY_BUDGET),
        )
    }

    /// `mutator-churn`.
    pub fn churn(seed: u64, scale: Scale) -> Mutator {
        Mutator::setup(
            || {
                vec![
                    ("server-churn", build_churn()),
                    ("server-wide-session", wide(ServerMix::Session)),
                    ("server-wide-cache", wide(ServerMix::Cache)),
                ]
            },
            seed,
            scale.of(CHURN_BUDGET),
        )
    }

    fn setup(
        build: impl FnOnce() -> Vec<(&'static str, wbe_workloads::Workload)>,
        seed: u64,
        budget: u64,
    ) -> Mutator {
        let t = Instant::now();
        let programs = build();
        let build_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        for (_, w) in &programs {
            w.program.validate().expect("suite program validates");
        }
        let validate_us = t.elapsed().as_secs_f64() * 1e6;
        let insns: usize = programs.iter().map(|(_, w)| w.program.total_size()).sum();

        let mut rng = Rng::new(seed, 2);
        let mut setup: BTreeMap<&'static str, f64> = BTreeMap::from([
            ("ir.build_us", build_us),
            ("ir.validate_us", validate_us),
            ("ir.insns", insns as f64),
        ]);
        let mut members: Vec<Member> = programs
            .into_iter()
            .map(|(label, workload)| {
                let compiled = compile(
                    &workload.program,
                    &PipelineConfig::new(OptMode::Full, INLINE_LIMIT),
                );
                let t = Instant::now();
                let methods = translate_all(&compiled);
                let translate_us = t.elapsed().as_secs_f64() * 1e6;
                let (fused_elided, fused_kept) = fused(&methods);
                let analysis = compiled.analysis.as_ref().expect("Full analyses");
                let blocks: usize = analysis.methods.values().map(|m| m.iterations).sum();
                for (name, v) in [
                    ("opt.inline_us", compiled.inline_time.as_secs_f64() * 1e6),
                    (
                        "opt.inlined_calls",
                        compiled.inline_stats.inlined_calls as f64,
                    ),
                    (
                        "opt.skipped_too_big",
                        compiled.inline_stats.skipped_too_big as f64,
                    ),
                    ("opt.insns_after", compiled.program.total_size() as f64),
                    (
                        "analysis.fixpoint_us",
                        compiled.analysis_time().as_secs_f64() * 1e6,
                    ),
                    ("analysis.blocks_processed", blocks as f64),
                    ("analysis.sites_total", analysis.total_sites() as f64),
                    ("analysis.sites_elided", analysis.total_elided() as f64),
                    (
                        "analysis.degraded_methods",
                        analysis.degraded_count() as f64,
                    ),
                    ("translate.us", translate_us),
                    ("translate.cells", cells_of(&methods) as f64),
                    ("translate.fused_elided", fused_elided as f64),
                    ("translate.fused_kept", fused_kept as f64),
                ] {
                    *setup.entry(name).or_default() += v;
                }
                // Iterations per entry call: the stock tenth of the
                // default run, varied ±10 % by the seed.
                let base = (workload.default_iters / 10).max(8);
                let chunk = base * rng.range(90, 110) as i64 / 100;
                Member {
                    label,
                    workload,
                    compiled,
                    chunk: chunk.max(1),
                }
            })
            .collect();
        rng.shuffle(&mut members);
        Mutator {
            members,
            budget,
            setup: setup.into_iter().collect(),
        }
    }

    fn realistic(member: &Member) -> BarrierConfig {
        eliding(BarrierMode::Checked, &member.compiled)
    }
}

impl Workload for Mutator {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        let mut walls = [0f64; 2];
        let mut insns = [0u64; 2];
        let pass = rec.enter(BENCH_LAYER, "mutator.rep");
        for member in &self.members {
            let mut seen: Option<RunFacts> = None;
            for (e, &kind) in ENGINES.iter().enumerate() {
                rep.attempted += 1;
                let config = Mutator::realistic(member);
                match run(
                    member,
                    &member.compiled.program,
                    kind,
                    config,
                    true,
                    self.budget,
                    rec,
                ) {
                    Ok((wall_s, facts, _)) => {
                        walls[e] += wall_s;
                        insns[e] += facts.insns;
                        match seen {
                            None => seen = Some(facts),
                            Some(first) if first != facts => rep.failures.push(format!(
                                "{}: engines disagree: classic {first:?}, compiled {facts:?}",
                                member.label
                            )),
                            Some(_) => {}
                        }
                    }
                    // Includes the elided-site oracle's UnsoundElision.
                    Err(trap) => rep
                        .failures
                        .push(format!("{}/{kind}: trapped: {trap}", member.label)),
                }
            }
            for (k, v) in seen.unwrap_or_default().named() {
                rep.facts.insert(format!("{}/{k}", member.label), v);
            }
        }
        rec.exit(pass);
        rep.wall_s = walls[0] + walls[1];
        rep.ops = insns[0] + insns[1];
        rep.timed = vec![
            ("classic_ops_per_s", insns[0] as f64 / walls[0]),
            ("compiled_ops_per_s", insns[1] as f64 / walls[1]),
        ];
        rep
    }

    fn check(&mut self, facts: &Facts) -> Check {
        let mut check = Check::default();
        let mut rec = Recorder::off();
        for member in &self.members {
            check.attempted += 1;
            // The reference: no analysis, no elision, the classic
            // engine. The timed configuration must leave the same
            // world behind.
            let baseline = compile(
                &member.workload.program,
                &PipelineConfig::new(OptMode::Baseline, INLINE_LIMIT),
            );
            let reference = run(
                member,
                &baseline.program,
                EngineKind::Classic,
                BarrierConfig::new(BarrierMode::Checked),
                true,
                self.budget,
                &mut rec,
            );
            let fact = |k: &str| facts.get(&format!("{}/{k}", member.label)).copied();
            match reference {
                Ok((_, r, _)) => {
                    for (k, want) in [
                        ("digest", r.digest),
                        ("insns", r.insns),
                        ("gc_cycles", r.gc_cycles),
                    ] {
                        if fact(k) != Some(want) {
                            check.failures.push(format!(
                                "{}: {k} {:?} in the timed reps, {want} at Baseline/classic",
                                member.label,
                                fact(k)
                            ));
                        }
                    }
                    check
                        .digests
                        .insert(format!("{}/world", member.label), r.digest);
                }
                Err(trap) => check.failures.push(format!(
                    "{}: Baseline/classic trapped: {trap}",
                    member.label
                )),
            }
            check.rows.push(Row {
                name: member.label.to_string(),
                values: [
                    "insns",
                    "gc_cycles",
                    "barrier_exec",
                    "elided_exec",
                    "capacity",
                    "allocations",
                    "pause_max_wu",
                ]
                .into_iter()
                .map(|k| (k, fact(k).unwrap_or(0) as f64))
                .chain([("chunk", member.chunk as f64)])
                .collect(),
            });
        }
        check.rows.sort_by(|a, b| a.name.cmp(&b.name));
        let sum = |k: &str| -> f64 {
            self.members
                .iter()
                .map(|m| facts.get(&format!("{}/{k}", m.label)).copied().unwrap_or(0) as f64)
                .sum()
        };
        let max = |k: &str| -> f64 {
            self.members
                .iter()
                .map(|m| facts.get(&format!("{}/{k}", m.label)).copied().unwrap_or(0))
                .max()
                .unwrap_or(0) as f64
        };
        check.counts = vec![
            (
                "elided_pct",
                100.0 * sum("elided_exec") / sum("barrier_exec").max(1.0),
            ),
            (
                "barrier_cycles_pct",
                100.0 * sum("barrier_cycles") / sum("cycles").max(1.0),
            ),
            ("stw_pause_max_wu", max("pause_max_wu")),
            ("peak_heap_objects", max("capacity")),
        ];
        check
    }

    fn layers(&mut self, rec: &mut Recorder, ctx: &LayerCtx) -> Layers {
        let mut out = Layers::default();
        for &(name, v) in &self.setup {
            out.exact(name, v);
        }

        // Traced pass: the rep again, spans and registry on.
        let mut pauses = Vec::new();
        let ((traced, traced_wall_s), snap) = with_telemetry(|| {
            let pass = rec.enter(BENCH_LAYER, "mutator.rep");
            let mut totals = RunFacts::default();
            let mut wall = 0.0;
            for member in &self.members {
                for &kind in &ENGINES {
                    let config = Mutator::realistic(member);
                    if let Ok((wall_s, f, run_pauses)) = run(
                        member,
                        &member.compiled.program,
                        kind,
                        config,
                        true,
                        self.budget,
                        rec,
                    ) {
                        wall += wall_s;
                        if kind == EngineKind::Classic {
                            pauses.extend(run_pauses);
                            totals.allocations += f.allocations;
                            totals.words += f.words;
                            totals.frees += f.frees;
                            totals.capacity = totals.capacity.max(f.capacity);
                            totals.gc.merge(&f.gc);
                        }
                    }
                }
            }
            rec.exit(pass);
            (totals, wall)
        });
        out.traced_wall_s = traced_wall_s;
        out.exact("heap.allocations", traced.allocations as f64);
        out.exact("heap.words_allocated", traced.words as f64);
        out.exact("heap.frees", traced.frees as f64);
        out.exact("heap.peak_capacity", traced.capacity as f64);
        out.exact("gc.cycles", traced.gc.cycles as f64);
        out.exact("gc.concurrent_scans", traced.gc.concurrent_scans as f64);
        out.exact("gc.allocated_black", traced.gc.allocated_black as f64);
        out.exact("gc.swept", traced.gc.swept as f64);
        out.exact("gc.satb_logs", traced.gc.satb_logs as f64);
        out.exact("gc.dirty_marks", traced.gc.dirty_marks as f64);
        out.exact("gc.remark_wu_p50", percentile(&pauses, 50.0) as f64);
        out.exact("gc.remark_wu_p99", percentile(&pauses, 99.0) as f64);
        out.exact("gc.remark_wu_max", percentile(&pauses, 100.0) as f64);
        if let Some(h) = snap.histogram(PHASE_SWEEP) {
            // Log2-bucket estimate for p50; the max is exact.
            out.exact("gc.sweep_wu_p50", h.quantile(0.5) as f64);
            out.exact("gc.sweep_wu_max", h.max as f64);
        }
        out.exact(
            "telemetry.overhead_pct",
            100.0 * (out.traced_wall_s / ctx.untraced_wall_s - 1.0),
        );

        // Isolated probes, telemetry off. Per probe rep and engine,
        // pooled over the members: barrier-free, kept (always-log) and
        // elided (always-log + elision) at half budget with the GC off
        // — the Table 2 trio — then the timed configuration at full
        // budget with the GC policy off and on, back to back so drift
        // hits both alike.
        const NONE: usize = 0;
        const KEPT: usize = 1;
        const ELIDED: usize = 2;
        const GC_OFF: usize = 3;
        const GC_ON: usize = 4;
        let mut off = Recorder::off();
        let half = (self.budget / 2).max(1);
        // [engine][config] -> wall per probe rep
        let mut walls: [[Vec<f64>; 5]; 2] = Default::default();
        let mut none_insns = [0u64; 2];
        let mut trio = [RunFacts::default(); 3];
        for probe in 0..ctx.probe_reps {
            for (e, &kind) in ENGINES.iter().enumerate() {
                let mut sum = [0f64; 5];
                let mut facts = [RunFacts::default(); 3];
                for member in &self.members {
                    let program = &member.compiled.program;
                    let configs = [
                        (BarrierConfig::new(BarrierMode::None), false, half),
                        (BarrierConfig::new(BarrierMode::AlwaysLog), false, half),
                        (
                            eliding(BarrierMode::AlwaysLog, &member.compiled),
                            false,
                            half,
                        ),
                        (Mutator::realistic(member), false, self.budget),
                        (Mutator::realistic(member), true, self.budget),
                    ];
                    for (c, (config, gc, budget)) in configs.into_iter().enumerate() {
                        let (wall_s, f, _) =
                            run(member, program, kind, config, gc, budget, &mut off)
                                .unwrap_or_else(|t| {
                                    panic!("{}/{kind}: probe trapped: {t}", member.label)
                                });
                        sum[c] += wall_s;
                        if c <= ELIDED {
                            facts[c].insns += f.insns;
                            facts[c].cycles += f.cycles;
                            facts[c].barrier_exec += f.barrier_exec;
                            facts[c].elided_exec += f.elided_exec;
                            facts[c].gc.satb_logs += f.gc.satb_logs;
                        }
                    }
                }
                for (c, wall) in sum.into_iter().enumerate() {
                    walls[e][c].push(wall);
                }
                if probe == 0 {
                    none_insns[e] = facts[NONE].insns;
                    if e == 0 {
                        trio = facts;
                    }
                }
            }
        }
        out.exact("barrier.cycles_none", trio[NONE].cycles as f64);
        out.exact("barrier.cycles_kept", trio[KEPT].cycles as f64);
        out.exact("barrier.cycles_elided", trio[ELIDED].cycles as f64);
        out.exact("barrier.executions", trio[KEPT].barrier_exec as f64);
        out.exact("barrier.elided_executions", trio[ELIDED].elided_exec as f64);
        out.exact("barrier.satb_logs", trio[KEPT].gc.satb_logs as f64);
        let execs = trio[KEPT].barrier_exec.max(1) as f64;
        let names = [
            (
                "dispatch.classic_ns_per_insn",
                "barrier.classic_kept_ns_per_exec",
                "barrier.classic_elided_ns_per_exec",
            ),
            (
                "dispatch.compiled_ns_per_insn",
                "barrier.compiled_kept_ns_per_exec",
                "barrier.compiled_elided_ns_per_exec",
            ),
        ];
        let share = |on: f64, off: f64| (on - off) / on;
        for (e, (dispatch, kept, elided)) in names.into_iter().enumerate() {
            let per_insn: Vec<f64> = walls[e][NONE]
                .iter()
                .map(|w| w * 1e9 / none_insns[e].max(1) as f64)
                .collect();
            out.measured(dispatch, Summary::of(&per_insn));
            for (name, c) in [(kept, KEPT), (elided, ELIDED)] {
                let deltas: Vec<f64> = walls[e][c]
                    .iter()
                    .zip(&walls[e][NONE])
                    .map(|(with, without)| (with - without) * 1e9 / execs)
                    .collect();
                let s = Summary::of(&deltas);
                // A delta smaller than its own spread is noise.
                let note = (s.median.abs() < (s.q3 - s.q1).abs() || s.n < 2)
                    .then(|| "unresolved".to_string());
                out.values.push((name, s, note));
            }
            let shares: Vec<f64> = walls[e][GC_ON]
                .iter()
                .zip(&walls[e][GC_OFF])
                .map(|(&on, &off)| share(on, off))
                .collect();
            out.rows.push(Row {
                name: format!("engine/{}", ENGINES[e]),
                values: vec![
                    ("wall_gc_on_s", median(&walls[e][GC_ON])),
                    ("wall_gc_off_s", median(&walls[e][GC_OFF])),
                    ("gc_in_mutator_share", median(&shares)),
                    ("dispatch_ns_per_insn", median(&per_insn)),
                ],
            });
        }
        // A lower bound: with the policy off the heap grows unswept and
        // allocation itself gets slower.
        let pooled: Vec<f64> = (0..ctx.probe_reps)
            .map(|p| {
                share(
                    walls[0][GC_ON][p] + walls[1][GC_ON][p],
                    walls[0][GC_OFF][p] + walls[1][GC_OFF][p],
                )
            })
            .collect();
        out.measured("gc.in_mutator_share", Summary::of(&pooled));
        out
    }
}
