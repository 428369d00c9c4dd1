//! Golden `.wbe` fixtures: the paper's own examples as checked-in text
//! programs, parsed, verified, analyzed, and executed.

use wbe_repro::analysis::{analyze_method, nullsame, AnalysisConfig};
use wbe_repro::interp::{BarrierConfig, BarrierMode, Interp, Value};
use wbe_repro::ir::display::program_display;
use wbe_repro::ir::parse_program;

fn load(name: &str) -> wbe_repro::ir::Program {
    let path = format!("{}/testdata/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let p = parse_program(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    p.validate().unwrap();
    p
}

#[test]
fn expand_fixture_elides_its_copy_loop() {
    let p = load("expand.wbe");
    let m = p.method_by_name("expand").unwrap();
    let res = analyze_method(&p, m, &AnalysisConfig::full());
    assert_eq!(res.array_sites, 1);
    assert_eq!(res.elided.len(), 1, "{res:?}");
    // Field-only mode loses it.
    let res_f = analyze_method(&p, m, &AnalysisConfig::field_only());
    assert!(res_f.elided.is_empty());
    // Round trip through the printer.
    let again = parse_program(&program_display(&p).to_string()).unwrap();
    assert_eq!(again, p);
}

#[test]
fn w1w2_fixture_elides_exactly_w1() {
    let p = load("w1w2.wbe");
    let m = p.method_by_name("w1w2").unwrap();
    let res = analyze_method(&p, m, &AnalysisConfig::full());
    assert_eq!(res.field_sites, 2);
    assert_eq!(res.elided.len(), 1, "{res:?}");
    // Single-summary ablation loses W1 too.
    let res_s = analyze_method(
        &p,
        m,
        &AnalysisConfig {
            two_refs_per_site: false,
            ..AnalysisConfig::full()
        },
    );
    assert!(res_s.elided.is_empty());
}

#[test]
fn hashtable_fixture_is_null_or_same() {
    let p = load("hashtable.wbe");
    let m = p.method_by_name("advance").unwrap();
    // Not pre-null...
    let res = analyze_method(&p, m, &AnalysisConfig::full());
    assert!(res.elided.is_empty());
    // ...but null-or-same.
    let nos = nullsame::analyze_method(&p, m);
    assert_eq!(nos.len(), 1, "{nos:?}");
}

#[test]
fn expand_fixture_runs() {
    // Build a driver around the parsed method by invoking it directly
    // with a heap-constructed array.
    let p = load("expand.wbe");
    let m = p.method_by_name("expand").unwrap().id;
    let mut interp = Interp::new(&p, BarrierConfig::new(BarrierMode::Checked));
    // Manually allocate the argument array (class tag 0, len 5).
    let arr = interp.heap.alloc_ref_array(0, 5).unwrap();
    let out = interp
        .run(m, &[Value::Ref(Some(arr))], 10_000)
        .unwrap()
        .unwrap();
    let Value::Ref(Some(out)) = out else { panic!() };
    assert_eq!(interp.heap.array_len(out).unwrap(), 10);
}
