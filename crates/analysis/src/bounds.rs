//! Bounds-check elimination — one of the §6 "further uses" of the
//! framework.
//!
//! The paper closes by arguing the analyses "should be part of an
//! integrated static analysis framework", listing "discovery of array
//! indexing properties for bounds check removal" among the clients.
//! This module is that client: an array access needs no bounds check
//! when the symbolic index is provably `≥ 0` and provably `< Len(arr)`
//! for every possible receiver.
//!
//! Upper bounds are provable when the index and the array's symbolic
//! length share structure — e.g. `a = new T[n]; a[n-1] = …` — or when
//! both are literals. Loop-carried indices merge to stride variables
//! with no relation to the length (the analysis is path-insensitive),
//! so loop accesses generally keep their checks; the interesting wins
//! are the straight-line initialization patterns, exactly where barrier
//! elision wins too.

use std::collections::BTreeSet;

use wbe_ir::{Insn, InsnAddr, Method, Program};

use crate::config::AnalysisConfig;
use crate::fixpoint::{every_point, MethodSolution};
use crate::intval::IntLat;
use crate::state::{AbsState, AbsValue};

/// Result of the bounds analysis for one method.
#[derive(Clone, Debug, Default)]
pub struct BoundsAnalysis {
    /// Array access sites (loads and stores, ref and int arrays) whose
    /// bounds check may be removed.
    pub safe: BTreeSet<InsnAddr>,
    /// Total array access sites examined.
    pub total_sites: usize,
}

impl BoundsAnalysis {
    /// Fraction of sites proven safe.
    pub fn safe_rate(&self) -> f64 {
        if self.total_sites == 0 {
            0.0
        } else {
            self.safe.len() as f64 / self.total_sites as f64
        }
    }
}

fn is_array_access(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::AaLoad | Insn::AaStore | Insn::IaLoad | Insn::IaStore
    )
}

/// Checks one access given the pre-state: index provably in
/// `[0, len)` for every receiver.
fn access_is_safe(st: &AbsState, insn: &Insn) -> bool {
    // Stack layout before the access:
    //   AaLoad/IaLoad:  [.., arr, idx]
    //   AaStore/IaStore: [.., arr, idx, val]
    let depth = match insn {
        Insn::AaLoad | Insn::IaLoad => 2,
        Insn::AaStore | Insn::IaStore => 3,
        _ => return false,
    };
    if st.stack.len() < depth {
        return false;
    }
    let arr_v = &st.stack[st.stack.len() - depth];
    let idx_v = &st.stack[st.stack.len() - depth + 1];
    let AbsValue::Int(IntLat::Val(idx)) = idx_v else {
        return false;
    };
    // Lower bound: idx ≥ 0 must be a literal fact.
    if !matches!(idx.as_literal(), Some(i) if i >= 0) {
        // Allow symbolic indices too when idx - 0 has a provably
        // non-negative literal value — which for pure symbols we cannot
        // show, so only literal lower bounds pass. (A From-range proof
        // would also do, but NR already drives elision; keep this
        // client independent.)
        return false;
    }
    let AbsValue::Refs(arrs) = arr_v else {
        return false;
    };
    if arrs.is_empty() {
        return false; // definite null: traps anyway, keep the check
    }
    arrs.iter().all(|&at| {
        let IntLat::Val(len) = st.len_lookup(at) else {
            return false;
        };
        // Upper bound: len - idx ≥ 1 as a literal fact.
        matches!(
            len.sub(idx).and_then(|d| d.as_literal()),
            Some(d) if d >= 1
        )
    })
}

/// Runs the bounds analysis on one method, solving it under
/// [`AnalysisConfig::full`] (the client needs the array analysis's
/// `Len`).
pub fn analyze_method(program: &Program, method: &Method) -> BoundsAnalysis {
    analyze_solved(&MethodSolution::solve(
        program,
        method,
        &AnalysisConfig::full(),
    ))
}

/// The bounds client over an already solved method. The answer reflects
/// the configuration `solution` was solved under: without the array
/// analysis no length is known and every check stays.
pub fn analyze_solved(solution: &MethodSolution<'_>) -> BoundsAnalysis {
    let mut out = BoundsAnalysis::default();
    // Degraded: no state, so every site keeps its bounds check.
    solution.walk(solution.fixed_point(), every_point, |step| {
        let Some(insn) = step.insn.filter(|i| is_array_access(i)) else {
            return;
        };
        out.total_sites += 1;
        if step.pre().is_some_and(|st| access_is_safe(st, insn)) {
            out.safe.insert(step.addr);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::{CmpOp, Ty};

    #[test]
    fn literal_access_into_fresh_array_is_safe() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let m = pb.method("fill4", vec![], None, 1, |mb| {
            let a = mb.local(0);
            mb.iconst(4).new_ref_array(c).store(a);
            for k in 0..4 {
                mb.load(a).iconst(k).const_null().aastore();
            }
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        assert_eq!(res.total_sites, 4);
        assert_eq!(res.safe.len(), 4, "{res:?}");
        assert_eq!(res.safe_rate(), 1.0);
    }

    #[test]
    fn out_of_range_literal_keeps_its_check() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let m = pb.method("oob", vec![], None, 1, |mb| {
            let a = mb.local(0);
            mb.iconst(4).new_ref_array(c).store(a);
            mb.load(a).iconst(4).const_null().aastore(); // one past the end
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        assert!(res.safe.is_empty(), "{res:?}");
    }

    #[test]
    fn symbolic_last_element_is_safe() {
        // a = new T[n]; a[n-1] = null — provable via symbolic lengths,
        // but only when n-1 ≥ 0 is also provable; with an unknown n it
        // is not, so the lower bound keeps the check. With a literal
        // offset from a fresh array's length, it is.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        // int-array variant to cover IaStore too.
        let _ = c;
        let m = pb.method("last", vec![Ty::Int], None, 1, |mb| {
            let n = mb.local(0);
            let a = mb.local(1);
            mb.load(n).new_int_array().store(a);
            mb.load(a).load(n).iconst(1).sub().iconst(7).iastore();
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        // idx = n-1: lower bound not provable for arbitrary n.
        assert!(res.safe.is_empty(), "{res:?}");
    }

    #[test]
    fn loop_index_keeps_its_check() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let m = pb.method("loopfill", vec![Ty::Int], None, 2, |mb| {
            let n = mb.local(0);
            let a = mb.local(1);
            let i = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.load(n).new_ref_array(c).store(a);
            mb.iconst(0).store(i).goto_(head);
            mb.switch_to(head)
                .load(i)
                .load(n)
                .if_icmp(CmpOp::Lt, body, exit);
            mb.switch_to(body)
                .load(a)
                .load(i)
                .const_null()
                .aastore()
                .iinc(i, 1)
                .goto_(head);
            mb.switch_to(exit).return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        // Path-insensitive: the loop index's relation to n is unknown.
        assert!(res.safe.is_empty(), "{res:?}");
        assert_eq!(res.total_sites, 1);
    }

    #[test]
    fn loads_covered_too() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let m = pb.method("ld", vec![], Some(Ty::Ref(c)), 1, |mb| {
            let a = mb.local(0);
            mb.iconst(2).new_ref_array(c).store(a);
            mb.load(a).iconst(1).aaload().return_value();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        assert_eq!(res.safe.len(), 1);
    }
}
