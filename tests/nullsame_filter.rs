//! The null-or-same analysis skips methods that cannot hold a fact
//! (no `getfield`, or no reference-typed `putfield`) and solves the
//! rest on a bit-set worklist without building a set per query. The
//! solver it was before any of that is the model: on every method of
//! every suite program at every inline limit the two name the same
//! sites. (`soundness_fuzz.rs` holds the same comparison over its
//! generated programs.)

mod nullsame_model;

use wbe_repro::analysis::nullsame;
use wbe_repro::ir::Insn;
use wbe_repro::opt::{fold_program, inline_program, InlineConfig};

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

#[test]
fn filtered_solver_agrees_with_the_unfiltered_one_on_the_suite() {
    let (mut methods, mut holding, mut sites) = (0, 0, 0);
    for name in PROGRAMS {
        let w = wbe_repro::workloads::by_name(name).expect("suite program");
        for limit in [0, 25, 50, 100, 200] {
            let (mut program, _) = inline_program(&w.program, InlineConfig::with_limit(limit));
            fold_program(&mut program);
            for (mid, method) in program.iter_methods() {
                let model = nullsame_model::analyze_method(&program, method);
                let filtered = nullsame::analyze_method(&program, method);
                assert_eq!(filtered, model, "{name}/{limit} {mid} {}", method.name);
                // The property the filter reads off the method.
                let loads = method
                    .iter_insns()
                    .any(|(_, _, i)| matches!(i, Insn::GetField(_)));
                let stores = method.iter_insns().any(
                    |(_, _, i)| matches!(i, Insn::PutField(f) if program.field(*f).ty.is_ref_like()),
                );
                methods += 1;
                holding += usize::from(loads && stores);
                sites += model.len();
                assert!(
                    model.is_empty() || (loads && stores),
                    "{name}/{limit} {mid}"
                );
            }
        }
    }
    // Both sides of the filter are exercised, and the comparison is
    // not one of empty sets only.
    assert!(holding > 0 && holding < methods, "{holding} of {methods}");
    assert!(sites > 0);
}
