//! Slot-level type checking — the rest of the "bytecode verifier".
//!
//! [`crate::validate`] checks ids and stack *heights*; this module
//! checks stack and local *types*: integers and references never mix,
//! locals are written before they are read, heap operations receive
//! reference operands, and returns match signatures. Together they give
//! the analyses the invariants the paper gets from the JVM verifier.
//!
//! The type lattice is deliberately coarse — `Int` vs `Ref` — because
//! the heap checks class tags dynamically and the analyses only care
//! about reference-ness. Locals (unlike stack slots) may hold different
//! types on different paths; such a local becomes `Conflict` at the
//! join and only *using* it is an error.

use std::fmt;

use crate::ids::{BlockId, LocalId, MethodId};
use crate::insn::{Cond, Insn, Terminator};
use crate::method::{CodeLoc, InsnAddr, Method};
use crate::program::{Program, Ty};

/// The verifier's slot types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VType {
    /// 64-bit integer.
    Int,
    /// Reference (object, array, or null).
    Ref,
    /// Local not yet written on some path.
    Uninit,
    /// Local holding different types on different paths.
    Conflict,
}

impl VType {
    fn merge(self, other: VType) -> VType {
        match (self, other) {
            (a, b) if a == b => a,
            (VType::Uninit, _) | (_, VType::Uninit) => VType::Conflict,
            _ => VType::Conflict,
        }
    }

    fn of(ty: Ty) -> VType {
        if ty.is_ref_like() {
            VType::Ref
        } else {
            VType::Int
        }
    }
}

/// A type-checking failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeError {
    /// Offending method.
    pub method: MethodId,
    /// Where the check failed.
    pub at: CodeLoc,
    /// Explanation.
    pub reason: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "method {} at {}: {}", self.method, self.at, self.reason)
    }
}

impl std::error::Error for TypeError {}

#[derive(Clone, PartialEq, Eq)]
struct Frame {
    locals: Vec<VType>,
    stack: Vec<VType>,
}

impl Frame {
    fn merge_from(&mut self, other: &Frame) -> bool {
        let mut changed = false;
        for (a, b) in self.locals.iter_mut().zip(&other.locals) {
            let m = a.merge(*b);
            if m != *a {
                *a = m;
                changed = true;
            }
        }
        for (a, b) in self.stack.iter_mut().zip(&other.stack) {
            let m = a.merge(*b);
            if m != *a {
                *a = m;
                changed = true;
            }
        }
        changed
    }
}

struct Checker<'p> {
    program: &'p Program,
    method: &'p Method,
}

impl Checker<'_> {
    fn err(&self, at: CodeLoc, reason: impl Into<String>) -> TypeError {
        TypeError {
            method: self.method.id,
            at,
            reason: reason.into(),
        }
    }

    fn pop(&self, f: &mut Frame, at: CodeLoc, want: VType) -> Result<(), TypeError> {
        let got = f
            .stack
            .pop()
            .ok_or_else(|| self.err(at, "stack underflow"))?;
        if got != want {
            return Err(self.err(at, format!("expected {want:?} operand, found {got:?}")));
        }
        Ok(())
    }

    fn pop_any(&self, f: &mut Frame, at: CodeLoc) -> Result<VType, TypeError> {
        f.stack.pop().ok_or_else(|| self.err(at, "stack underflow"))
    }

    fn load_local(&self, f: &Frame, at: CodeLoc, l: LocalId) -> Result<VType, TypeError> {
        match f.locals[l.index()] {
            VType::Uninit => Err(self.err(at, format!("read of uninitialized local {l}"))),
            VType::Conflict => Err(self.err(
                at,
                format!("read of type-conflicting local {l} (int on one path, ref on another)"),
            )),
            t => Ok(t),
        }
    }

    fn check_insn(&self, f: &mut Frame, at: CodeLoc, insn: &Insn) -> Result<(), TypeError> {
        use VType::{Int, Ref};
        match *insn {
            Insn::Const(_) => f.stack.push(Int),
            Insn::ConstNull => f.stack.push(Ref),
            Insn::Load(l) => {
                let t = self.load_local(f, at, l)?;
                f.stack.push(t);
            }
            Insn::Store(l) => {
                let t = self.pop_any(f, at)?;
                f.locals[l.index()] = t;
            }
            Insn::IInc(l, _) => {
                if self.load_local(f, at, l)? != Int {
                    return Err(self.err(at, format!("iinc on non-int local {l}")));
                }
            }
            Insn::Dup => {
                let t = *f
                    .stack
                    .last()
                    .ok_or_else(|| self.err(at, "stack underflow"))?;
                f.stack.push(t);
            }
            Insn::DupX1 => {
                let b = self.pop_any(f, at)?;
                let a = self.pop_any(f, at)?;
                f.stack.push(b);
                f.stack.push(a);
                f.stack.push(b);
            }
            Insn::Pop => {
                self.pop_any(f, at)?;
            }
            Insn::Swap => {
                let b = self.pop_any(f, at)?;
                let a = self.pop_any(f, at)?;
                f.stack.push(b);
                f.stack.push(a);
            }
            Insn::Add
            | Insn::Sub
            | Insn::Mul
            | Insn::Div
            | Insn::Rem
            | Insn::And
            | Insn::Or
            | Insn::Xor
            | Insn::Shl
            | Insn::Shr => {
                self.pop(f, at, Int)?;
                self.pop(f, at, Int)?;
                f.stack.push(Int);
            }
            Insn::Neg => {
                self.pop(f, at, Int)?;
                f.stack.push(Int);
            }
            Insn::GetField(fd) => {
                self.pop(f, at, Ref)?;
                f.stack.push(VType::of(self.program.field(fd).ty));
            }
            Insn::PutField(fd) => {
                let want = VType::of(self.program.field(fd).ty);
                self.pop(f, at, want)?;
                self.pop(f, at, Ref)?;
            }
            Insn::GetStatic(s) => {
                f.stack.push(VType::of(self.program.static_(s).ty));
            }
            Insn::PutStatic(s) => {
                let want = VType::of(self.program.static_(s).ty);
                self.pop(f, at, want)?;
            }
            Insn::AaLoad => {
                self.pop(f, at, Int)?;
                self.pop(f, at, Ref)?;
                f.stack.push(Ref);
            }
            Insn::AaStore => {
                self.pop(f, at, Ref)?;
                self.pop(f, at, Int)?;
                self.pop(f, at, Ref)?;
            }
            Insn::IaLoad => {
                self.pop(f, at, Int)?;
                self.pop(f, at, Ref)?;
                f.stack.push(Int);
            }
            Insn::IaStore => {
                self.pop(f, at, Int)?;
                self.pop(f, at, Int)?;
                self.pop(f, at, Ref)?;
            }
            Insn::ArrayLength => {
                self.pop(f, at, Ref)?;
                f.stack.push(Int);
            }
            Insn::New { .. } => f.stack.push(Ref),
            Insn::NewRefArray { .. } | Insn::NewIntArray { .. } => {
                self.pop(f, at, Int)?;
                f.stack.push(Ref);
            }
            Insn::Invoke(m) => {
                let sig = &self.program.method(m).sig;
                for &pty in sig.params.iter().rev() {
                    self.pop(f, at, VType::of(pty))?;
                }
                if let Some(rty) = sig.ret {
                    f.stack.push(VType::of(rty));
                }
            }
        }
        Ok(())
    }

    fn check_term(&self, f: &mut Frame, at: CodeLoc, term: &Terminator) -> Result<(), TypeError> {
        use VType::{Int, Ref};
        match term {
            Terminator::Goto(_) => Ok(()),
            Terminator::If { cond, .. } => {
                match cond {
                    Cond::ICmp(_) => {
                        self.pop(f, at, Int)?;
                        self.pop(f, at, Int)?;
                    }
                    Cond::IZero(_) => self.pop(f, at, Int)?,
                    Cond::IsNull | Cond::NonNull => self.pop(f, at, Ref)?,
                    Cond::RefEq | Cond::RefNe => {
                        self.pop(f, at, Ref)?;
                        self.pop(f, at, Ref)?;
                    }
                }
                Ok(())
            }
            Terminator::Return => Ok(()),
            Terminator::ReturnValue => {
                let want = self
                    .method
                    .sig
                    .ret
                    .map(VType::of)
                    .ok_or_else(|| self.err(at, "value return in void method"))?;
                self.pop(f, at, want)
            }
        }
    }
}

/// Type-checks one method.
///
/// # Errors
///
/// Returns the first [`TypeError`] found on any reachable path.
pub fn type_check_method(program: &Program, method: &Method) -> Result<(), TypeError> {
    let checker = Checker { program, method };
    let nblocks = method.blocks.len();
    let mut entry: Vec<Option<Frame>> = vec![None; nblocks];
    let mut locals = vec![VType::Uninit; method.num_locals as usize];
    for (i, &p) in method.sig.params.iter().enumerate() {
        locals[i] = VType::of(p);
    }
    entry[0] = Some(Frame {
        locals,
        stack: Vec::new(),
    });
    let mut worklist = vec![BlockId(0)];
    let mut iterations = 0;
    while let Some(bid) = worklist.pop() {
        iterations += 1;
        assert!(iterations < nblocks * 64 + 1024, "type checker diverged");
        let mut frame = entry[bid.index()].clone().expect("worklist ⇒ state");
        let block = method.block(bid);
        for (idx, insn) in block.insns.iter().enumerate() {
            let at = CodeLoc::Insn(InsnAddr::new(bid, idx));
            checker.check_insn(&mut frame, at, insn)?;
        }
        let at = CodeLoc::Term(bid);
        checker.check_term(&mut frame, at, &block.term)?;
        for succ in block.term.successors() {
            match &mut entry[succ.index()] {
                slot @ None => {
                    *slot = Some(frame.clone());
                    worklist.push(succ);
                }
                Some(existing) => {
                    if existing.stack.len() != frame.stack.len() {
                        return Err(checker.err(at, "stack height mismatch at join"));
                    }
                    if existing.merge_from(&frame) {
                        worklist.push(succ);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Type-checks every method of the program.
///
/// # Errors
///
/// Returns the first [`TypeError`] found.
pub fn type_check_program(program: &Program) -> Result<(), TypeError> {
    for method in &program.methods {
        type_check_method(program, method)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::insn::CmpOp;

    #[test]
    fn well_typed_program_passes() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let fr = pb.field(c, "r", Ty::Ref(c));
        let fi = pb.field(c, "i", Ty::Int);
        pb.method("ok", vec![Ty::Ref(c), Ty::Int], Some(Ty::Int), 1, |mb| {
            let o = mb.local(0);
            let n = mb.local(1);
            let t = mb.local(2);
            mb.load(o).load(o).getfield(fr).putfield(fr);
            mb.load(o).load(n).putfield(fi);
            mb.load(o).getfield(fi).store(t);
            mb.load(t).return_value();
        });
        let p = pb.finish();
        type_check_program(&p).unwrap();
    }

    #[test]
    fn int_into_ref_field_rejected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let fr = pb.field(c, "r", Ty::Ref(c));
        pb.method("bad", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            mb.load(o).iconst(1).putfield(fr).return_();
        });
        let p = pb.finish();
        let e = type_check_program(&p).unwrap_err();
        assert!(e.reason.contains("expected Ref"), "{e}");
    }

    #[test]
    fn arithmetic_on_refs_rejected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        pb.method("bad", vec![Ty::Ref(c)], Some(Ty::Int), 0, |mb| {
            let o = mb.local(0);
            mb.load(o).iconst(1).add().return_value();
        });
        let p = pb.finish();
        assert!(type_check_program(&p).is_err());
    }

    #[test]
    fn read_of_uninitialized_local_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.method("bad", vec![], Some(Ty::Int), 1, |mb| {
            let t = mb.local(0);
            mb.load(t).return_value();
        });
        let p = pb.finish();
        let e = type_check_program(&p).unwrap_err();
        assert!(e.reason.contains("uninitialized"), "{e}");
    }

    #[test]
    fn conflicting_local_use_rejected() {
        // One path stores an int, the other a ref; the join may exist,
        // but using the local afterwards is an error.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        pb.method("bad", vec![Ty::Int], Some(Ty::Int), 1, |mb| {
            let cnd = mb.local(0);
            let t = mb.local(1);
            let a = mb.new_block();
            let b = mb.new_block();
            let j = mb.new_block();
            mb.load(cnd).if_zero(CmpOp::Eq, a, b);
            mb.switch_to(a).iconst(1).store(t).goto_(j);
            mb.switch_to(b).new_object(c).store(t).goto_(j);
            mb.switch_to(j).load(t).return_value();
        });
        let p = pb.finish();
        // Depending on visit order the checker reports either the
        // conflicting-local use or the resulting return-type mismatch;
        // both reject the program.
        let e = type_check_program(&p).unwrap_err();
        assert!(
            e.reason.contains("conflicting") || e.reason.contains("expected Int"),
            "{e}"
        );
    }

    #[test]
    fn conflicting_local_without_use_is_fine() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        pb.method("ok", vec![Ty::Int], Some(Ty::Int), 1, |mb| {
            let cnd = mb.local(0);
            let t = mb.local(1);
            let a = mb.new_block();
            let b = mb.new_block();
            let j = mb.new_block();
            mb.load(cnd).if_zero(CmpOp::Eq, a, b);
            mb.switch_to(a).iconst(1).store(t).goto_(j);
            mb.switch_to(b).new_object(c).store(t).goto_(j);
            mb.switch_to(j).iconst(0).return_value();
        });
        let p = pb.finish();
        type_check_program(&p).unwrap();
    }

    #[test]
    fn return_type_mismatch_rejected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        pb.method("bad", vec![Ty::Ref(c)], Some(Ty::Int), 0, |mb| {
            let o = mb.local(0);
            mb.load(o).return_value();
        });
        let p = pb.finish();
        assert!(type_check_program(&p).is_err());
    }

    #[test]
    fn invoke_argument_types_checked() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let callee = pb.method("callee", vec![Ty::Ref(c), Ty::Int], None, 0, |mb| {
            mb.return_();
        });
        pb.method("bad", vec![Ty::Ref(c)], None, 0, |mb| {
            let o = mb.local(0);
            // Swapped argument order: (int, ref) instead of (ref, int).
            mb.iconst(1).load(o).invoke(callee).return_();
        });
        let p = pb.finish();
        assert!(type_check_program(&p).is_err());
    }

    #[test]
    fn branch_condition_types_checked() {
        let mut pb = ProgramBuilder::new();
        pb.method("bad", vec![Ty::Int], None, 0, |mb| {
            let n = mb.local(0);
            let a = mb.new_block();
            let b = mb.new_block();
            mb.load(n).if_null(a, b); // ifnull on an int
            mb.switch_to(a).return_();
            mb.switch_to(b).return_();
        });
        let p = pb.finish();
        assert!(type_check_program(&p).is_err());
    }

    #[test]
    fn workload_suite_is_well_typed() {
        // (Indirect: the workloads crate dev-depends on this check via
        // integration tests; here just re-check one hand-built loop.)
        let mut pb = ProgramBuilder::new();
        let c = pb.class("T");
        pb.method("loop", vec![Ty::Int], None, 2, |mb| {
            let n = mb.local(0);
            let i = mb.local(1);
            let o = mb.local(2);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.const_null().store(o).iconst(0).store(i).goto_(head);
            mb.switch_to(head)
                .load(i)
                .load(n)
                .if_icmp(CmpOp::Lt, body, exit);
            mb.switch_to(body)
                .new_object(c)
                .store(o)
                .iinc(i, 1)
                .goto_(head);
            mb.switch_to(exit).return_();
        });
        let p = pb.finish();
        type_check_program(&p).unwrap();
    }
}
