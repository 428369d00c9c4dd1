//! Human-readable dumps of the analysis fixed point — the debugging
//! view a compiler engineer wants when a barrier unexpectedly stays.
//!
//! For each reachable block the dump shows the abstract entry state
//! (locals, escaped set, non-default σ/Len/NR entries) and, for every
//! barrier-relevant store, the judgment with a *reason* when the
//! barrier must stay. The per-site lines are rendered from the
//! [`ledger`](crate::ledger)'s records, so the dump and `wbe_tool
//! explain` agree.
//!
//! Degraded methods no longer collapse to one line: blocks the driver
//! reached before the guardrail fired are rendered from the partial
//! (pre-convergence) states, each barrier site annotated with its
//! best-effort keep reason; unreached blocks are labeled as such.

use std::fmt::Write as _;

use wbe_ir::{Method, Program};

use crate::config::AnalysisConfig;
use crate::fixpoint::{AnalysisOutcome, MethodSolution};
use crate::ledger::{SiteRecord, Verdict};
use crate::state::{AbsState, AbsValue, FieldKey};
use crate::transfer::KeepCode;

/// Renders the fixed point of `method` as text. Standalone entry point:
/// it solves the method itself;
/// [`analyze_program_with`](crate::fixpoint::analyze_program_with)
/// renders the same text next to the elision result from one solve.
pub fn dump_method(program: &Program, method: &Method, config: &AnalysisConfig) -> String {
    let solution = MethodSolution::solve(program, method, config);
    render(&solution, &solution.replay(true).records)
}

/// Renders `solution` as text; `records` are its replay's records, the
/// source of the per-site lines.
pub(crate) fn render(solution: &MethodSolution<'_>, records: &[SiteRecord]) -> String {
    let (program, method) = (solution.ctx().program, solution.ctx().method);
    let degraded = solution.outcome().is_degraded();
    let mut out = String::new();
    match solution.outcome() {
        AnalysisOutcome::Complete => {
            let _ = writeln!(
                out,
                "=== analysis of {} ({} blocks, {} fixpoint iterations) ===",
                method.name,
                method.blocks.len(),
                solution.iterations()
            );
        }
        AnalysisOutcome::Degraded(reason) => {
            let _ = writeln!(
                out,
                "=== analysis of {} DEGRADED ({reason}): no elisions ===",
                method.name
            );
            let _ = writeln!(
                out,
                "(states below are partial, pre-convergence; reasons are best-effort)"
            );
        }
    }
    let mut records = records.iter().peekable();
    for (bid, block) in method.iter_blocks() {
        let sites = std::iter::from_fn(|| records.next_if(|r| r.block == bid.index()));
        let Some(entry) = &solution.entry_states()[bid.index()] else {
            if degraded {
                let _ = writeln!(out, "{bid}: (not reached before degradation)");
            } else {
                let _ = writeln!(out, "{bid}: (unreachable)");
            }
            sites.for_each(drop);
            continue;
        };
        render_entry_state(&mut out, program, bid, entry);
        for rec in sites {
            let verdict = match rec.verdict {
                Verdict::Elide => "ELIDED (pre-null)".to_string(),
                Verdict::Degraded if rec.keep_code == Some(KeepCode::DegradedWouldElide) => {
                    "barrier KEPT — analysis degraded (partial state had no failing condition)"
                        .to_string()
                }
                _ => format!("barrier KEPT — {}", rec.keep_detail()),
            };
            let (idx, insn) = (rec.index, &block.insns[rec.index]);
            let _ = writeln!(out, "  {bid}[{idx}] {insn:?}: {verdict}");
        }
    }
    out
}

fn render_entry_state(out: &mut String, program: &Program, bid: wbe_ir::BlockId, entry: &AbsState) {
    let _ = writeln!(out, "{bid}: entry state");
    for (i, v) in entry.locals.iter().enumerate() {
        if !matches!(v, AbsValue::Bottom) {
            let _ = writeln!(out, "    l{i} = {v:?}");
        }
    }
    if !entry.stack.is_empty() {
        let _ = writeln!(out, "    stack = {:?}", entry.stack);
    }
    let nl: Vec<String> = entry.nl.iter().map(|r| r.to_string()).collect();
    let _ = writeln!(out, "    NL = {{{}}}", nl.join(", "));
    for (r, key, v) in entry.sigma() {
        let keyname = match key {
            FieldKey::Field(f) => program.field(f).name.clone(),
            FieldKey::Elems => "[*]".to_string(),
        };
        let _ = writeln!(out, "    σ({r}, {keyname}) = {v:?}");
    }
    for (r, l) in entry.len() {
        let _ = writeln!(out, "    Len({r}) = {l:?}");
    }
    for (r, nr) in entry.nr() {
        let _ = writeln!(out, "    NR({r}) = {nr:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::{CmpOp, Ty};

    #[test]
    fn dump_names_the_blocking_reason() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let g = pb.static_field("g", Ty::Ref(c));
        let m = pb.method("mixed", vec![Ty::Ref(c)], None, 1, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).store(o);
            mb.load(o).load(arg).putfield(f); // elided
            mb.load(o).putstatic(g); // escape
            mb.load(o).load(arg).putfield(f); // kept: escaped
            mb.return_();
        });
        let p = pb.finish();
        let dump = dump_method(&p, p.method(m), &AnalysisConfig::full());
        assert!(dump.contains("ELIDED (pre-null)"), "{dump}");
        assert!(dump.contains("non-thread-local"), "{dump}");
        assert!(dump.contains("NL = {G"), "{dump}");
    }

    #[test]
    fn dump_shows_null_ranges() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let m = pb.method("arr", vec![], None, 1, |mb| {
            let a = mb.local(0);
            mb.iconst(8).new_ref_array(c).store(a);
            mb.load(a).iconst(0).const_null().aastore();
            mb.load(a).iconst(5).const_null().aastore(); // out of order
            mb.load(a).iconst(6).const_null().aastore(); // NR is empty now
            mb.return_();
        });
        let p = pb.finish();
        let dump = dump_method(&p, p.method(m), &AnalysisConfig::full());
        assert!(dump.contains("ELIDED"), "{dump}");
        assert!(dump.contains("null range"), "{dump}");
    }

    #[test]
    fn unreachable_blocks_are_labeled() {
        let mut pb = ProgramBuilder::new();
        pb.method("u", vec![], None, 0, |mb| {
            let dead = mb.new_block();
            mb.return_();
            mb.switch_to(dead).return_();
        });
        let p = pb.finish();
        let dump = dump_method(&p, &p.methods[0], &AnalysisConfig::full());
        assert!(dump.contains("(unreachable)"), "{dump}");
    }

    #[test]
    fn degraded_dump_keeps_per_site_reasons_for_reached_sites() {
        // Entry block has a kept putfield; a loop after it trips a
        // 1-iteration cap. The degraded dump must still explain the
        // entry-block site and label the unreached loop block.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("deg", vec![Ty::Ref(c), Ty::Int], None, 0, |mb| {
            let arg = mb.local(0);
            let n = mb.local(1);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.load(arg).load(arg).putfield(f);
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
        let p = pb.finish();
        let cfg = AnalysisConfig::full().with_max_iterations(1);
        let dump = dump_method(&p, p.method(m), &cfg);
        assert!(dump.contains("DEGRADED"), "{dump}");
        assert!(dump.contains("no elisions"), "{dump}");
        // The reached entry-block site still names its real reason.
        assert!(dump.contains("non-thread-local"), "{dump}");
        // Unreached blocks are labeled distinctly from unreachable ones.
        assert!(dump.contains("(not reached before degradation)"), "{dump}");
        // Nothing may claim ELIDED in a degraded method.
        assert!(!dump.contains("ELIDED"), "{dump}");
    }
}
