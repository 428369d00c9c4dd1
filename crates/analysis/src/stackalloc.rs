//! Stack-allocation candidates — another §6 client of the framework
//! ("escape analysis for stack allocation and/or lock elision").
//!
//! An allocation site is *stack-allocatable* when no object it produces
//! can outlive the method activation: its references are never stored
//! into any heap location or static, never passed to a callee, and
//! never returned. (This is stricter than non-escaping-to-other-threads:
//! an object handed to the caller or parked in a thread-local heap
//! structure still outlives the frame.)
//!
//! The implementation replays the field analysis's fixed point and
//! taints sites whose abstract references appear in any value that
//! leaves the frame.

use std::collections::BTreeSet;

use wbe_ir::{Insn, Method, Program, SiteId, Terminator};

use crate::config::AnalysisConfig;
use crate::fixpoint::{every_point, MethodSolution};
use crate::refs::Ref;
use crate::state::{AbsValue, MethodCtx};

/// Result of the stack-allocation analysis for one method.
#[derive(Clone, Debug, Default)]
pub struct StackAllocAnalysis {
    /// Allocation sites whose objects may live in the frame.
    pub stack_allocatable: BTreeSet<SiteId>,
    /// All allocation sites in the method.
    pub total_sites: usize,
}

impl StackAllocAnalysis {
    /// Fraction of sites that are stack-allocatable.
    pub fn rate(&self) -> f64 {
        if self.total_sites == 0 {
            0.0
        } else {
            self.stack_allocatable.len() as f64 / self.total_sites as f64
        }
    }
}

fn taint_from_value(v: &AbsValue, ctx: &MethodCtx<'_>, tainted: &mut BTreeSet<SiteId>) {
    let sites: Vec<SiteId> = match v {
        AbsValue::Refs(s) => s
            .iter()
            .filter_map(|r| match r {
                Ref::SiteA(s) | Ref::SiteB(s) => Some(*s),
                _ => None,
            })
            .collect(),
        // Unknown values may refer to anything allocated here.
        AbsValue::Any | AbsValue::Bottom => ctx.sites.clone(),
        AbsValue::Int(_) => Vec::new(),
    };
    tainted.extend(sites);
}

/// Runs the analysis on one method, solving it under
/// [`AnalysisConfig::full`].
pub fn analyze_method(program: &Program, method: &Method) -> StackAllocAnalysis {
    analyze_solved(&MethodSolution::solve(
        program,
        method,
        &AnalysisConfig::full(),
    ))
}

/// The stack-allocation client over an already solved method.
pub fn analyze_solved(solution: &MethodSolution<'_>) -> StackAllocAnalysis {
    let ctx = solution.ctx();
    let (program, method) = (ctx.program, ctx.method);
    let Some(states) = solution.fixed_point() else {
        // Degraded: conservatively, nothing is stack-allocatable.
        return StackAllocAnalysis {
            total_sites: ctx.sites.len(),
            stack_allocatable: BTreeSet::new(),
        };
    };

    let mut tainted: BTreeSet<SiteId> = BTreeSet::new();
    solution.walk(Some(states), every_point, |step| {
        let Some(st) = step.pre() else {
            return;
        };
        // The operands are what leaves the frame, so the state before
        // each point is what is read.
        let leaving = match step.insn {
            Some(Insn::PutField(_) | Insn::PutStatic(_) | Insn::AaStore) => 1,
            Some(Insn::Invoke(callee)) => program.method(*callee).sig.params.len(),
            None => usize::from(method.block(step.addr.block).term == Terminator::ReturnValue),
            Some(_) => 0,
        };
        for v in st.stack.iter().rev().take(leaving) {
            taint_from_value(v, ctx, &mut tainted);
        }
    });

    let all: BTreeSet<SiteId> = ctx.sites.iter().copied().collect();
    StackAllocAnalysis {
        total_sites: all.len(),
        stack_allocatable: all.difference(&tainted).copied().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::Ty;

    #[test]
    fn purely_local_object_is_stack_allocatable() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let fi = pb.field(c, "n", Ty::Int);
        let m = pb.method("local", vec![], Some(Ty::Int), 1, |mb| {
            let o = mb.local(0);
            mb.new_object(c).store(o);
            mb.load(o).iconst(7).putfield(fi);
            mb.load(o).getfield(fi).return_value();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        assert_eq!(res.total_sites, 1);
        assert_eq!(res.stack_allocatable.len(), 1, "{res:?}");
        assert_eq!(res.rate(), 1.0);
    }

    #[test]
    fn published_object_is_not() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let g = pb.static_field("g", Ty::Ref(c));
        let m = pb.method("pubd", vec![], None, 0, |mb| {
            mb.new_object(c).putstatic(g).return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        assert!(res.stack_allocatable.is_empty(), "{res:?}");
    }

    #[test]
    fn returned_object_is_not() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let m = pb.method("make", vec![], Some(Ty::Ref(c)), 0, |mb| {
            mb.new_object(c).return_value();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        assert!(res.stack_allocatable.is_empty(), "{res:?}");
    }

    #[test]
    fn stored_into_heap_is_not_but_receiver_may_be() {
        // o = new C; q = new C; o.f = q: q escapes the frame via the
        // heap store (conservatively — o itself may die), o does not.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let m = pb.method("link", vec![], None, 2, |mb| {
            let o = mb.local(0);
            let q = mb.local(1);
            mb.new_object(c).store(o);
            mb.new_object(c).store(q);
            mb.load(o).load(q).putfield(f);
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        assert_eq!(res.total_sites, 2);
        assert_eq!(res.stack_allocatable.len(), 1, "{res:?}");
    }

    #[test]
    fn call_argument_is_not() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let callee = pb.method("sink", vec![Ty::Ref(c)], None, 0, |mb| {
            mb.return_();
        });
        let m = pb.method("passes", vec![], None, 0, |mb| {
            mb.new_object(c).invoke(callee).return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        assert!(res.stack_allocatable.is_empty(), "{res:?}");
    }

    #[test]
    fn array_elements_escape_via_aastore() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let m = pb.method("intoarr", vec![Ty::RefArray(c)], None, 1, |mb| {
            let a = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).store(o);
            mb.load(a).iconst(0).load(o).aastore();
            mb.return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        assert!(res.stack_allocatable.is_empty(), "{res:?}");
    }

    #[test]
    fn workload_rates_are_plausible() {
        // The mtrt-like pattern: fresh Pt/tri arrays stored into logs
        // escape; a purely scratch object does not. Just check the
        // analysis runs on a multi-block loop without claiming
        // everything or nothing blindly.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let g = pb.static_field("g", Ty::Ref(c));
        let m = pb.method("mix", vec![Ty::Int], None, 2, |mb| {
            let n = mb.local(0);
            let o = mb.local(1);
            let q = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.goto_(head);
            mb.switch_to(head)
                .load(n)
                .if_zero(wbe_ir::CmpOp::Gt, body, exit);
            mb.switch_to(body);
            mb.new_object(c).store(o); // scratch: stack-allocatable
            mb.new_object(c).store(q).load(q).putstatic(g); // published
            mb.iinc(n, -1).goto_(head);
            mb.switch_to(exit).return_();
        });
        let p = pb.finish();
        let res = analyze_method(&p, p.method(m));
        assert_eq!(res.total_sites, 2);
        assert_eq!(res.stack_allocatable.len(), 1, "{res:?}");
    }
}
