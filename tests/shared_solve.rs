//! One solve, every product: `compile` derives the elision result and
//! the ledger from the same [`MethodSolution`] replay, and must get
//! exactly what the standalone entry points (`analyze_program`,
//! `ElisionLedger::build`, `dump_method`) get by solving for themselves
//! — on the whole suite and on every degraded path.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use wbe_repro::analysis::dump::dump_method;
use wbe_repro::analysis::{
    analyze_program, analyze_program_with, AnalysisConfig, ElisionLedger, Products, ProgramAnalysis,
};
use wbe_repro::ir::builder::ProgramBuilder;
use wbe_repro::ir::{CmpOp, Insn, Program, Ty};
use wbe_repro::opt::{compile, compile_with_dump, OptMode, PipelineConfig};

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

fn assert_same_analysis(shared: &ProgramAnalysis, standalone: &ProgramAnalysis, what: &str) {
    assert_eq!(shared.methods.len(), standalone.methods.len(), "{what}");
    for (mid, a) in &shared.methods {
        let b = &standalone.methods[mid];
        assert_eq!(a.elided, b.elided, "{what} {mid}: elided");
        assert_eq!(a.iterations, b.iterations, "{what} {mid}: iterations");
        assert_eq!(a.outcome, b.outcome, "{what} {mid}: outcome");
        assert_eq!(a.barrier_sites, b.barrier_sites, "{what} {mid}: sites");
        assert_eq!(a.field_sites, b.field_sites, "{what} {mid}: field sites");
        assert_eq!(a.array_sites, b.array_sites, "{what} {mid}: array sites");
    }
}

#[test]
fn compile_with_ledger_equals_the_standalone_entry_points() {
    for name in PROGRAMS {
        let w = wbe_repro::workloads::by_name(name).expect("suite program");
        for limit in [0, 25, 50, 100, 200] {
            for mode in [OptMode::FieldOnly, OptMode::Full] {
                let what = format!("{name}/{limit}/{}", mode.label());
                let compiled = compile(&w.program, &PipelineConfig::new(mode, limit).with_ledger());
                let config = mode.analysis_config().expect("F and A analyse");
                let shared = compiled.analysis.as_ref().expect("analysis ran");
                assert_same_analysis(shared, &analyze_program(&compiled.program, &config), &what);
                let ledger = compiled.ledger.as_ref().expect("ledger asked for");
                assert_eq!(
                    ledger.to_ndjson(),
                    ElisionLedger::build(&compiled.program, &config).to_ndjson(),
                    "{what}: ledger"
                );
                // The §4.3 annotation marks exactly the null-or-same sites.
                let nos = compile(
                    &w.program,
                    &PipelineConfig::new(mode, limit)
                        .with_null_or_same()
                        .with_ledger(),
                );
                let annotated: BTreeSet<_> = nos
                    .ledger
                    .iter()
                    .flat_map(|l| &l.records)
                    .filter(|r| r.null_or_same)
                    .map(|r| (&*r.method, r.block, r.index))
                    .collect();
                let expected: BTreeSet<_> = nos
                    .null_or_same_sites()
                    .into_iter()
                    .map(|(m, a)| {
                        (
                            nos.program.method(m).name.as_str(),
                            a.block.index(),
                            a.index,
                        )
                    })
                    .collect();
                assert_eq!(annotated, expected, "{what}: null-or-same");
            }
        }
    }
}

#[test]
fn compile_with_dump_equals_dump_method() {
    for name in ["jess", "jbb"] {
        let w = wbe_repro::workloads::by_name(name).expect("suite program");
        let (compiled, dump) =
            compile_with_dump(&w.program, &PipelineConfig::new(OptMode::Full, 100));
        let config = AnalysisConfig::full();
        let standalone: String = compiled
            .program
            .iter_methods()
            .map(|(_, m)| dump_method(&compiled.program, m, &config))
            .collect();
        assert_eq!(dump.as_deref(), Some(standalone.as_str()), "{name}");
        assert!(
            compiled.ledger.is_none(),
            "the dump does not switch the ledger on"
        );
    }
    let w = wbe_repro::workloads::by_name("jess").expect("suite program");
    let (_, dump) = compile_with_dump(&w.program, &PipelineConfig::new(OptMode::Baseline, 100));
    assert_eq!(dump, None, "baseline mode solves nothing");
}

/// Two sites in the entry block (one the partial state would elide, one
/// it keeps for a real reason) and one in a loop body the tighter
/// guardrails never reach.
fn deg_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    let f = pb.field(c, "f", Ty::Ref(c));
    pb.method("deg", vec![Ty::Ref(c), Ty::Int], None, 1, |mb| {
        let arg = mb.local(0);
        let n = mb.local(1);
        let o = mb.local(2);
        let head = mb.new_block();
        let body = mb.new_block();
        let exit = mb.new_block();
        mb.new_object(c).store(o);
        mb.load(o).load(arg).putfield(f);
        mb.load(arg).load(o).putfield(f);
        mb.goto_(head);
        mb.switch_to(head).load(n).if_zero(CmpOp::Gt, body, exit);
        mb.switch_to(body)
            .load(arg)
            .load(arg)
            .putfield(f)
            .iinc(n, -1)
            .goto_(head);
        mb.switch_to(exit).return_();
    });
    pb.finish()
}

/// The text `tests/degraded_products.golden` holds for one program and
/// configuration: outcome line, ledger NDJSON, then the dump.
fn render(analysis: &ProgramAnalysis, ledger: &ElisionLedger, dump: &str) -> String {
    let summary: Vec<_> = analysis
        .methods
        .values()
        .map(|m| (&m.outcome, m.iterations, m.barrier_sites, m.elided.len()))
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "{summary:?}");
    out.push_str(&ledger.to_ndjson());
    out.push_str(dump);
    out
}

/// The three degraded paths give, from one solve, the outcome, records
/// and dump that the entry points gave before they shared it. The
/// golden file was written by the parent commit's `analyze_program`,
/// `ElisionLedger::build` and `dump_method`.
#[test]
fn degraded_paths_give_the_same_products_as_before() {
    let golden = include_str!("degraded_products.golden");
    let deg = deg_program();
    let mut bad = deg_program();
    // Stack underflow: the transfer function panics on the first block.
    bad.methods[0].blocks[0].insns.insert(0, Insn::Pop);
    let full = AnalysisConfig::full();
    let cases = [
        (&deg, full.with_max_iterations(1)),
        (&deg, full.with_max_iterations(2)),
        (&bad, full),
    ];

    let (mut shared, mut standalone) = (String::new(), String::new());
    for (program, config) in &cases {
        let all = Products {
            ledger: true,
            dump: true,
            ..Default::default()
        };
        let one = analyze_program_with(program, config, all);
        assert_eq!(one.analysis.degraded_count(), 1, "{config:?}");
        let (ledger, dump) = (one.ledger.expect("asked for"), one.dump.expect("asked for"));
        assert_eq!(ledger.degraded(), 3, "every site of a degraded method");
        let apart = analyze_program(program, config);
        assert_same_analysis(&one.analysis, &apart, "degraded");
        let dump_apart = dump_method(program, &program.methods[0], config);
        // The parent's `dump_method` had no panic isolation and could
        // not render the last case; the golden file ends before it.
        let panicked = std::ptr::eq(*program, &bad);
        if panicked {
            assert!(dump.contains("DEGRADED (analysis panicked"), "{dump}");
            assert!(!dump.contains("entry state"), "no state is trusted: {dump}");
        }
        let pinned = |d: &str| {
            if panicked {
                String::new()
            } else {
                d.to_string()
            }
        };
        shared.push_str(&render(&one.analysis, &ledger, &pinned(&dump)));
        standalone.push_str(&render(
            &apart,
            &ElisionLedger::build(program, config),
            &pinned(&dump_apart),
        ));
        assert_eq!(dump, dump_apart);
    }
    assert_eq!(shared, golden, "one solve");
    assert_eq!(standalone, golden, "standalone entry points");

    // The same through the pipeline, for the path `compile` can take
    // (it validates its input, so not the malformed program).
    let mut pipeline = PipelineConfig::new(OptMode::Full, 0).with_ledger();
    pipeline.analysis_override = Some(full.with_max_iterations(1));
    let compiled = compile(&deg, &pipeline);
    let analysis = compiled.analysis.as_ref().expect("analysis ran");
    assert_eq!(analysis.degraded_count(), 1);
    assert_eq!(analysis.total_elided(), 0, "degraded elides nothing");
    assert_eq!(
        compiled.ledger.expect("asked for").to_ndjson(),
        ElisionLedger::build(&compiled.program, &full.with_max_iterations(1)).to_ndjson()
    );
}
