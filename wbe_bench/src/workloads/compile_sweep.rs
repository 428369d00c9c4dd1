//! `compile-sweep`: Fig. 2's axis.
//!
//! The eight programs (six Table 1 mimics plus `server` and
//! `server-churn`) × inline limits {0, 25, 50, 100, 200} ×
//! {`FieldOnly`, `Full`} through
//! `compile(.. with_fold().with_null_or_same().with_ledger())`, then
//! `translate` of every method under `Checked` + elision. One op is one
//! program compiled. `wbe-opt`, `wbe-analysis` and `translate` do all
//! the work; engines, heap and scheduler do none, so a change to any of
//! those is predicted flat here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use wbe_analysis::{analyze_program, nullsame, ElisionLedger};
use wbe_interp::BarrierMode;
use wbe_ir::{type_check_program, Program};
use wbe_opt::{compile, fold_program, inline_program, Compiled, InlineConfig};
use wbe_opt::{OptMode, PipelineConfig};

use super::{
    cells_of, eliding, fnv1a, fused, translate_all, with_telemetry, Check, Facts, LayerCtx, Layers,
    Rep, Rng, Row, Scale, Workload,
};
use crate::trace::{Recorder, BENCH_LAYER};

const INLINE: &str = "wbe-opt::inline";
const FOLD: &str = "wbe-opt::fold";
const FIXPOINT: &str = "wbe-analysis::fixpoint";
const NULLSAME: &str = "wbe-analysis::nullsame";
const LEDGER: &str = "wbe-analysis::ledger";
const TRANSLATE: &str = "wbe-interp::translate";

const PROGRAMS: [&str; 8] = [
    "jess",
    "db",
    "javac",
    "mtrt",
    "jack",
    "jbb",
    "server",
    "server-churn",
];
const LIMITS: [usize; 5] = [0, 25, 50, 100, 200];
const MODES: [OptMode; 2] = [OptMode::FieldOnly, OptMode::Full];
/// Rounds of the 80-cell sweep per rep (one round is about 0.1 s).
const ROUNDS: u64 = 12;
/// The configuration Table 1 and the mutator workloads use.
const HEADLINE: (OptMode, usize) = (OptMode::Full, 100);

#[derive(Clone, Copy, Debug)]
struct Cell {
    program: usize,
    limit: usize,
    mode: OptMode,
}

/// The workload.
pub struct CompileSweep {
    programs: Vec<wbe_workloads::Workload>,
    /// The 80 cells in seeded order.
    cells: Vec<Cell>,
    rounds: u64,
    setup: Vec<(&'static str, f64)>,
}

fn pipeline(cell: Cell) -> PipelineConfig {
    PipelineConfig::new(cell.mode, cell.limit)
        .with_fold()
        .with_null_or_same()
        .with_ledger()
}

/// One slot per instruction plus one per block terminator.
fn expected_cells(program: &Program) -> u64 {
    program
        .iter_methods()
        .flat_map(|(_, m)| m.blocks.iter())
        .map(|b| b.insns.len() as u64 + 1)
        .sum()
}

impl CompileSweep {
    /// Builds and validates the programs; orders the cells from `seed`.
    pub fn setup(seed: u64, scale: Scale) -> CompileSweep {
        let t = Instant::now();
        let programs: Vec<_> = PROGRAMS
            .iter()
            .map(|n| wbe_workloads::by_name(n).expect("suite program exists"))
            .collect();
        let build_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        for w in &programs {
            w.program.validate().expect("suite program validates");
        }
        let validate_us = t.elapsed().as_secs_f64() * 1e6;
        let insns: usize = programs.iter().map(|w| w.program.total_size()).sum();
        let mut cells: Vec<Cell> = (0..programs.len())
            .flat_map(|program| {
                LIMITS.iter().flat_map(move |&limit| {
                    MODES.iter().map(move |&mode| Cell {
                        program,
                        limit,
                        mode,
                    })
                })
            })
            .collect();
        Rng::new(seed, 1).shuffle(&mut cells);
        CompileSweep {
            programs,
            cells,
            rounds: scale.of(ROUNDS),
            setup: vec![
                ("ir.build_us", build_us),
                ("ir.validate_us", validate_us),
                ("ir.insns", insns as f64),
            ],
        }
    }

    fn program(&self, cell: Cell) -> &Program {
        &self.programs[cell.program].program
    }
}

impl Workload for CompileSweep {
    fn rep(&mut self, _rec: &mut Recorder) -> Rep {
        let (mut sites, mut elided, mut cells) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        for _ in 0..self.rounds {
            for &cell in &self.cells {
                let compiled = compile(black_box(self.program(cell)), &pipeline(cell));
                let methods = translate_all(&compiled);
                let analysis = compiled.analysis.as_ref().expect("F and A modes analyse");
                sites += analysis.total_sites() as u64;
                elided += analysis.total_elided() as u64;
                cells += cells_of(black_box(&methods));
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let ops = self.rounds * self.cells.len() as u64;
        Rep {
            wall_s,
            ops,
            timed: Vec::new(),
            facts: Facts::from([
                ("sites".into(), sites),
                ("elided".into(), elided),
                ("cells".into(), cells),
            ]),
            attempted: ops,
            failures: Vec::new(),
        }
    }

    fn check(&mut self, facts: &Facts) -> Check {
        let mut check = Check::default();
        let (mut sites, mut elided, mut cells) = (0u64, 0u64, 0u64);
        let (mut head_sites, mut head_elided, mut code_bytes) = (0usize, 0usize, 0usize);
        let mut digest = 0u64;
        let mut by_key = BTreeMap::new();
        // Canonical order, so the digest does not depend on the seed.
        let mut ordered = self.cells.clone();
        ordered.sort_by_key(|c| (c.program, c.limit, c.mode == OptMode::Full));
        for cell in ordered {
            check.attempted += 1;
            let name = format!(
                "{}/{}/{}",
                self.programs[cell.program].name,
                cell.limit,
                cell.mode.label()
            );
            let mut failures = Vec::new();
            let mut fail = |why: String| failures.push(format!("{name}: {why}"));
            let compiled = compile(self.program(cell), &pipeline(cell));
            let methods = translate_all(&compiled);
            if let Err(e) = compiled.program.validate() {
                fail(format!("compiled program invalid: {e}"));
            }
            if let Err(e) = type_check_program(&compiled.program) {
                fail(format!("compiled program ill-typed: {e:?}"));
            }
            let mut sites_here: Vec<_> = compiled.elided_sites();
            sites_here.sort_unstable();
            match &compiled.ledger {
                Some(ledger) => {
                    if ledger.records.len() != compiled.barrier_sites() {
                        fail(format!(
                            "ledger has {} records for {} barrier sites",
                            ledger.records.len(),
                            compiled.barrier_sites()
                        ));
                    }
                    if ledger.elided() != sites_here.len() {
                        fail(format!(
                            "ledger elides {} sites, analysis {}",
                            ledger.elided(),
                            sites_here.len()
                        ));
                    }
                }
                None => fail("no ledger".into()),
            }
            if cells_of(&methods) != expected_cells(&compiled.program) {
                fail(format!(
                    "translate emitted {} cells for {} slots",
                    cells_of(&methods),
                    expected_cells(&compiled.program)
                ));
            }
            let config_elided = eliding(BarrierMode::Checked, &compiled).elided.len() as u64;
            if fused(&methods).0 != config_elided {
                fail(format!(
                    "{} elided superinstructions for {config_elided} elided sites",
                    fused(&methods).0
                ));
            }
            // The array analysis only adds elisions to the field one.
            let key = (cell.program, cell.limit);
            if let Some(other) = by_key.insert(key, (cell.mode, sites_here.clone())) {
                let (field, full) = if other.0 == OptMode::FieldOnly {
                    (&other.1, &sites_here)
                } else {
                    (&sites_here, &other.1)
                };
                if !field.iter().all(|s| full.binary_search(s).is_ok()) {
                    fail("FieldOnly elides a site Full keeps".into());
                }
            }
            let analysis = compiled.analysis.as_ref().expect("F and A modes analyse");
            sites += analysis.total_sites() as u64;
            elided += analysis.total_elided() as u64;
            cells += cells_of(&methods);
            check.failures.append(&mut failures);
            let code_size = compiled.code_size();
            digest = fnv1a(digest, name.as_bytes());
            digest = fnv1a(digest, format!("{sites_here:?}").as_bytes());
            digest = fnv1a(digest, &(code_size as u64).to_le_bytes());
            if (cell.mode, cell.limit) == HEADLINE {
                head_sites += analysis.total_sites();
                head_elided += analysis.total_elided();
                code_bytes += code_size;
                check.rows.push(Row {
                    name: self.programs[cell.program].name.to_string(),
                    values: vec![
                        ("sites", analysis.total_sites() as f64),
                        ("sites_elided", analysis.total_elided() as f64),
                        ("code_bytes", code_size as f64),
                        ("inlined_calls", compiled.inline_stats.inlined_calls as f64),
                    ],
                });
            }
        }
        for (k, v) in [("sites", sites), ("elided", elided), ("cells", cells)] {
            if facts.get(k) != Some(&(v * self.rounds)) {
                check.failures.push(format!(
                    "{k}: timed reps counted {:?}, check pass {} per round x {}",
                    facts.get(k),
                    v,
                    self.rounds
                ));
            }
        }
        check.rows.sort_by(|a, b| a.name.cmp(&b.name));
        check.counts = vec![
            (
                "elided_pct",
                100.0 * head_elided as f64 / head_sites.max(1) as f64,
            ),
            ("code_bytes", code_bytes as f64),
        ];
        check.digests.insert("cells".into(), digest);
        check
    }

    fn layers(&mut self, rec: &mut Recorder, ctx: &LayerCtx) -> Layers {
        // The pipeline of `compile`, one public function per layer, so
        // each gets its own span. (`compile` itself additionally copies
        // null-or-same verdicts into the ledger.)
        let mut tally: BTreeMap<&'static str, u64> = BTreeMap::new();
        let ((), _) = with_telemetry(|| {
            // Read around `analyze_program` only: the ledger replays
            // the fixed point and would count everything twice.
            let merges = wbe_telemetry::counter("analysis.state_merges");
            let widenings = wbe_telemetry::counter("analysis.widenings");
            let pass = rec.enter(BENCH_LAYER, "compile-sweep.rep");
            for _ in 0..self.rounds {
                for &cell in &self.cells {
                    let program = self.program(cell);
                    let id = rec.enter(BENCH_LAYER, "compile_cell");
                    let (mut inlined, stats) = rec.call(INLINE, "inline_program", || {
                        inline_program(program, InlineConfig::with_limit(cell.limit))
                    });
                    let fold = rec.call(FOLD, "fold_program", || fold_program(&mut inlined));
                    let config = cell.mode.analysis_config().expect("F and A modes analyse");
                    let (m0, w0) = (merges.get(), widenings.get());
                    let analysis = rec.call(FIXPOINT, "analyze_program", || {
                        analyze_program(&inlined, &config)
                    });
                    let (m1, w1) = (merges.get(), widenings.get());
                    let ns = rec.call(NULLSAME, "nullsame::analyze_program", || {
                        nullsame::analyze_program(&inlined)
                    });
                    let ledger = rec.call(LEDGER, "ElisionLedger::build", || {
                        ElisionLedger::build(&inlined, &config)
                    });
                    let blocks: usize = analysis.methods.values().map(|m| m.iterations).sum();
                    for (name, v) in [
                        ("opt.inlined_calls", stats.inlined_calls),
                        ("opt.skipped_too_big", stats.skipped_too_big),
                        (
                            "opt.fold_applied",
                            fold.folded + fold.branches_folded + fold.blocks_removed,
                        ),
                        ("opt.insns_after", inlined.total_size()),
                        ("analysis.blocks_processed", blocks),
                        ("analysis.state_merges", (m1 - m0) as usize),
                        ("analysis.widenings", (w1 - w0) as usize),
                        ("analysis.sites_total", analysis.total_sites()),
                        ("analysis.sites_elided", analysis.total_elided()),
                        ("analysis.degraded_methods", analysis.degraded_count()),
                        ("analysis.ledger_records", ledger.records.len()),
                        (
                            "analysis.nullsame_sites",
                            ns.values().map(|s| s.len()).sum(),
                        ),
                    ] {
                        *tally.entry(name).or_default() += v as u64;
                    }
                    let compiled = Compiled {
                        program: inlined,
                        inline_stats: stats,
                        inline_time: std::time::Duration::ZERO,
                        analysis: Some(analysis),
                        null_or_same: ns,
                        ledger: Some(ledger),
                    };
                    let methods = rec.call(TRANSLATE, "translate", || translate_all(&compiled));
                    let (elided, kept) = fused(black_box(&methods));
                    *tally.entry("translate.cells").or_default() += cells_of(&methods);
                    *tally.entry("translate.fused_elided").or_default() += elided;
                    *tally.entry("translate.fused_kept").or_default() += kept;
                    rec.exit(id);
                }
            }
            rec.exit(pass);
        });

        let mut out = Layers {
            traced_wall_s: rec.root_ns() as f64 / 1e9,
            ..Layers::default()
        };
        for &(name, v) in &self.setup {
            out.exact(name, v);
        }
        // Per round, so the numbers do not depend on the round count.
        let rounds = self.rounds as f64;
        for (metric, layer, call) in [
            ("opt.inline_us", INLINE, "inline_program"),
            ("opt.fold_us", FOLD, "fold_program"),
            ("analysis.fixpoint_us", FIXPOINT, "analyze_program"),
            (
                "analysis.nullsame_us",
                NULLSAME,
                "nullsame::analyze_program",
            ),
            ("analysis.ledger_us", LEDGER, "ElisionLedger::build"),
            ("translate.us", TRANSLATE, "translate"),
        ] {
            out.exact(metric, rec.total(layer, call).0 as f64 / 1e3 / rounds);
        }
        for (name, total) in tally {
            out.exact(name, total as f64 / rounds);
        }
        out.exact(
            "telemetry.overhead_pct",
            100.0 * (out.traced_wall_s / ctx.untraced_wall_s - 1.0),
        );
        out
    }
}
