//! The ledger's first failing condition against the model in
//! `keep_model/`: on every barrier site with a pre-state — the eight
//! suite programs at every inline limit in both modes, the two
//! ablations, and the three `testdata/*.wbe` files — the ledger's
//! verdict, keep-code and detail are what the model derives from that
//! pre-state. `soundness_fuzz.rs` holds random programs to it too.

mod keep_model;

use std::collections::BTreeMap;

use wbe_repro::analysis::AnalysisConfig;
use wbe_repro::ir::{parse_program, Program};
use wbe_repro::opt::{compile, OptMode, PipelineConfig};

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
const TESTDATA: [&str; 3] = ["expand.wbe", "hashtable.wbe", "w1w2.wbe"];

/// Compiles `program` at `limit` under `analysis` and checks its ledger
/// against the model, adding the codes it saw to `seen`.
fn check_cell(
    label: &str,
    program: &Program,
    limit: usize,
    analysis: AnalysisConfig,
    seen: &mut BTreeMap<String, usize>,
) {
    let mut config = PipelineConfig::new(OptMode::Full, limit)
        .with_fold()
        .with_ledger();
    config.analysis_override = Some(analysis);
    let compiled = compile(program, &config);
    let ledger = compiled.ledger.as_ref().expect("ledger asked for");
    let codes = keep_model::check(&compiled.program, &analysis, &ledger.records)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    for (code, n) in codes {
        *seen.entry(code).or_insert(0) += n;
    }
}

fn classic_escape() -> AnalysisConfig {
    AnalysisConfig {
        flow_sensitive_escape: false,
        ..AnalysisConfig::full()
    }
}

fn single_ref() -> AnalysisConfig {
    AnalysisConfig {
        two_refs_per_site: false,
        ..AnalysisConfig::full()
    }
}

#[test]
fn suite_ledgers_agree_with_the_model() {
    let mut seen = BTreeMap::new();
    for name in PROGRAMS {
        let w = wbe_repro::workloads::by_name(name).expect("suite program");
        for limit in LIMITS {
            for (mode, analysis) in [
                ("F", AnalysisConfig::field_only()),
                ("A", AnalysisConfig::full()),
            ] {
                let label = format!("{name}/{limit}/{mode}");
                check_cell(&label, &w.program, limit, analysis, &mut seen);
            }
        }
    }
    let jbb = wbe_repro::workloads::by_name("jbb").expect("suite program");
    for (what, analysis) in [
        ("single-ref", single_ref()),
        ("classic-escape", classic_escape()),
    ] {
        check_cell(
            &format!("jbb/100/A/{what}"),
            &jbb.program,
            100,
            analysis,
            &mut seen,
        );
    }
    // Not vacuous: each store kind keeps a barrier somewhere.
    for code in [
        "receiver-may-escape",
        "array-may-escape",
        "array-analysis-disabled",
    ] {
        assert!(seen.contains_key(code), "{code} never seen: {seen:?}");
    }
}

#[test]
fn testdata_ledgers_agree_with_the_model() {
    let mut seen = BTreeMap::new();
    for file in TESTDATA {
        let path = format!("{}/testdata/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("testdata is shipped");
        let program = parse_program(&text).expect("testdata parses");
        for limit in [0, 100] {
            for (what, analysis) in [
                ("F", AnalysisConfig::field_only()),
                ("A", AnalysisConfig::full()),
                ("A/single-ref", single_ref()),
                ("A/classic-escape", classic_escape()),
            ] {
                let label = format!("{file}/{limit}/{what}");
                check_cell(&label, &program, limit, analysis, &mut seen);
            }
        }
    }
    // The suite never fails the second condition; the examples do.
    for code in ["field-may-be-non-null", "index-outside-null-range"] {
        assert!(seen.contains_key(code), "{code} never seen: {seen:?}");
    }
}

/// Two allocation sites joined into one local: the judgment's "several
/// receivers" codes, which neither the suite nor the fuzzer's
/// straight-line bodies reach.
#[test]
fn joined_receivers_agree_with_the_model() {
    use wbe_repro::analysis::ElisionLedger;
    use wbe_repro::ir::builder::ProgramBuilder;
    use wbe_repro::ir::{CmpOp, Ty};

    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    let f = pb.field(c, "f", Ty::Ref(c));
    pb.method("joined", vec![Ty::Int, Ty::Ref(c)], None, 2, |mb| {
        let (n, arg, o, a) = (mb.local(0), mb.local(1), mb.local(2), mb.local(3));
        let left = mb.new_block();
        let right = mb.new_block();
        let join = mb.new_block();
        mb.load(n).if_zero(CmpOp::Gt, left, right);
        mb.switch_to(left);
        mb.new_object(c).store(o);
        mb.iconst(4).new_ref_array(c).store(a);
        mb.goto_(join);
        mb.switch_to(right);
        mb.new_object(c).store(o);
        mb.iconst(4).new_ref_array(c).store(a);
        mb.goto_(join);
        mb.switch_to(join);
        mb.load(o).load(arg).putfield(f); // elided: both receivers fresh
        mb.load(o).load(arg).putfield(f); // kept: non-null on some receiver
        mb.load(a).load(n).load(arg).aastore(); // kept: two arrays
        mb.return_();
    });
    let program = pb.finish();
    let mut seen = BTreeMap::new();
    for config in [AnalysisConfig::full(), single_ref()] {
        let ledger = ElisionLedger::build(&program, &config);
        let codes = keep_model::check(&program, &config, &ledger.records)
            .unwrap_or_else(|e| panic!("{config:?}: {e}"));
        seen.extend(codes);
    }
    for code in ["field-may-be-non-null-multi", "multiple-arrays"] {
        assert!(seen.contains_key(code), "{code} never seen: {seen:?}");
    }
}
