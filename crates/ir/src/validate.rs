//! Structural and stack-discipline validation.
//!
//! Plays the role the JVM bytecode verifier plays for the paper's
//! analysis: it guarantees that ids are in range and that the operand
//! stack has a single, consistent height at every program point — the
//! property that lets the abstract interpretation merge stacks
//! "elementwise" at join points (§2.2).

use std::fmt;

use crate::ids::{BlockId, LocalId, MethodId};
use crate::insn::{Insn, Terminator};
use crate::method::{CodeLoc, InsnAddr, Method};
use crate::program::Program;

/// A validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// A method body is empty.
    EmptyMethod {
        /// Offending method.
        method: MethodId,
    },
    /// An id referenced by an instruction is out of range.
    BadId {
        /// Offending method.
        method: MethodId,
        /// Where the check failed.
        at: CodeLoc,
        /// What was out of range.
        what: String,
    },
    /// A local slot index is out of the method's declared range.
    BadLocal {
        /// Offending method.
        method: MethodId,
        /// Where the check failed.
        at: CodeLoc,
        /// The local.
        local: LocalId,
    },
    /// The operand stack would underflow.
    StackUnderflow {
        /// Offending method.
        method: MethodId,
        /// Where the check failed.
        at: CodeLoc,
    },
    /// Two paths reach a block with different stack heights.
    InconsistentStackHeight {
        /// Offending method.
        method: MethodId,
        /// Offending block.
        block: BlockId,
        /// Height seen first.
        expected: usize,
        /// Conflicting height.
        found: usize,
    },
    /// A return terminator disagrees with the method signature, or leaves
    /// operands on the stack.
    BadReturn {
        /// Offending method.
        method: MethodId,
        /// Where the check failed.
        at: CodeLoc,
        /// Explanation.
        reason: String,
    },
    /// The number of declared locals is smaller than the parameter count.
    TooFewLocals {
        /// Offending method.
        method: MethodId,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::EmptyMethod { method } => {
                write!(f, "method {method} has no blocks")
            }
            ValidateError::BadId { method, at, what } => {
                write!(f, "method {method} at {at}: {what} out of range")
            }
            ValidateError::BadLocal { method, at, local } => {
                write!(f, "method {method} at {at}: local {local} out of range")
            }
            ValidateError::StackUnderflow { method, at } => {
                write!(f, "method {method} at {at}: operand stack underflow")
            }
            ValidateError::InconsistentStackHeight {
                method,
                block,
                expected,
                found,
            } => write!(
                f,
                "method {method}: block {block} entered with stack heights {expected} and {found}"
            ),
            ValidateError::BadReturn { method, at, reason } => {
                write!(f, "method {method} at {at}: {reason}")
            }
            ValidateError::TooFewLocals { method } => {
                write!(f, "method {method} declares fewer locals than parameters")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Validates every method of `program`; see [`validate_method`].
///
/// # Errors
///
/// Returns the first [`ValidateError`] encountered, in method order.
pub fn validate_program(program: &Program) -> Result<(), ValidateError> {
    for method in &program.methods {
        validate_method(program, method)?;
    }
    Ok(())
}

/// Validates one method: id ranges, local ranges, stack discipline, and
/// return/signature agreement.
///
/// Unreachable blocks are checked for id ranges but not for stack
/// discipline (they have no incoming height).
///
/// # Errors
///
/// Returns the first [`ValidateError`] encountered.
pub fn validate_method(program: &Program, method: &Method) -> Result<(), ValidateError> {
    let mid = method.id;
    if method.blocks.is_empty() {
        return Err(ValidateError::EmptyMethod { method: mid });
    }
    if (method.num_locals as usize) < method.sig.params.len() {
        return Err(ValidateError::TooFewLocals { method: mid });
    }

    // Range checks on every instruction, reachable or not.
    for (bid, idx, insn) in method.iter_insns() {
        let at = CodeLoc::Insn(InsnAddr::new(bid, idx));
        check_ids(program, method, insn, mid, at)?;
    }
    for (bid, block) in method.iter_blocks() {
        for succ in block.term.successors() {
            if succ.index() >= method.blocks.len() {
                return Err(ValidateError::BadId {
                    method: mid,
                    at: CodeLoc::Term(bid),
                    what: format!("branch target {succ}"),
                });
            }
        }
    }

    // Stack-height dataflow over reachable blocks.
    let mut entry_height: Vec<Option<usize>> = vec![None; method.blocks.len()];
    entry_height[0] = Some(0);
    let mut worklist = vec![BlockId(0)];
    while let Some(bid) = worklist.pop() {
        let mut height = entry_height[bid.index()].expect("worklist blocks have heights");
        let block = method.block(bid);
        for (idx, insn) in block.insns.iter().enumerate() {
            let at = CodeLoc::Insn(InsnAddr::new(bid, idx));
            let (pops, pushes) = insn.stack_effect(|m| program.method(m).sig.invoke_effect());
            if height < pops {
                return Err(ValidateError::StackUnderflow { method: mid, at });
            }
            height = height - pops + pushes;
        }
        let at = CodeLoc::Term(bid);
        let pops = block.term.pops();
        if height < pops {
            return Err(ValidateError::StackUnderflow { method: mid, at });
        }
        height -= pops;
        match block.term {
            Terminator::Return => {
                if method.sig.ret.is_some() {
                    return Err(ValidateError::BadReturn {
                        method: mid,
                        at,
                        reason: "void return in method with a return type".into(),
                    });
                }
                if height != 0 {
                    return Err(ValidateError::BadReturn {
                        method: mid,
                        at,
                        reason: format!("{height} operands left on stack at return"),
                    });
                }
            }
            Terminator::ReturnValue => {
                if method.sig.ret.is_none() {
                    return Err(ValidateError::BadReturn {
                        method: mid,
                        at,
                        reason: "value return in void method".into(),
                    });
                }
                if height != 0 {
                    return Err(ValidateError::BadReturn {
                        method: mid,
                        at,
                        reason: format!("{height} extra operands on stack at return"),
                    });
                }
            }
            _ => {
                for succ in block.term.successors() {
                    match entry_height[succ.index()] {
                        None => {
                            entry_height[succ.index()] = Some(height);
                            worklist.push(succ);
                        }
                        Some(expected) if expected != height => {
                            return Err(ValidateError::InconsistentStackHeight {
                                method: mid,
                                block: succ,
                                expected,
                                found: height,
                            });
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }
    Ok(())
}

fn check_ids(
    program: &Program,
    method: &Method,
    insn: &Insn,
    mid: MethodId,
    at: CodeLoc,
) -> Result<(), ValidateError> {
    let bad = |what: String| ValidateError::BadId {
        method: mid,
        at,
        what,
    };
    let check_local = |l: LocalId| {
        if l.0 >= method.num_locals {
            Err(ValidateError::BadLocal {
                method: mid,
                at,
                local: l,
            })
        } else {
            Ok(())
        }
    };
    match *insn {
        Insn::Load(l) | Insn::Store(l) | Insn::IInc(l, _) => check_local(l)?,
        Insn::GetField(fi) | Insn::PutField(fi) if fi.index() >= program.fields.len() => {
            return Err(bad(format!("field {fi}")));
        }
        Insn::GetStatic(s) | Insn::PutStatic(s) if s.index() >= program.statics.len() => {
            return Err(bad(format!("static {s}")));
        }
        Insn::New { class, .. } | Insn::NewRefArray { class, .. }
            if class.index() >= program.classes.len() =>
        {
            return Err(bad(format!("class {class}")));
        }
        Insn::Invoke(m) if m.index() >= program.methods.len() => {
            return Err(bad(format!("method {m}")));
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ids::{ClassId, FieldId, SiteId};
    use crate::insn::CmpOp;
    use crate::method::Block;
    use crate::program::Ty;

    fn ok_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "x", Ty::Int);
        pb.method("m", vec![Ty::Ref(c)], Some(Ty::Int), 0, |mb| {
            mb.load(mb.local(0)).getfield(f).return_value();
        });
        pb.finish()
    }

    #[test]
    fn valid_program_passes() {
        ok_program().validate().unwrap();
    }

    #[test]
    fn stack_underflow_detected() {
        let mut p = ok_program();
        p.methods[0].blocks[0].insns.insert(0, Insn::Pop);
        let err = p.validate().unwrap_err();
        assert!(matches!(err, ValidateError::StackUnderflow { .. }), "{err}");
    }

    #[test]
    fn bad_field_id_detected() {
        let mut p = ok_program();
        p.methods[0].blocks[0].insns[1] = Insn::GetField(FieldId(99));
        let err = p.validate().unwrap_err();
        assert!(matches!(err, ValidateError::BadId { .. }), "{err}");
    }

    #[test]
    fn bad_local_detected() {
        let mut p = ok_program();
        p.methods[0].blocks[0].insns[0] = Insn::Load(LocalId(9));
        let err = p.validate().unwrap_err();
        assert!(matches!(err, ValidateError::BadLocal { .. }), "{err}");
    }

    #[test]
    fn bad_branch_target_detected() {
        let mut p = ok_program();
        p.methods[0].blocks[0].term = Terminator::Goto(BlockId(7));
        let err = p.validate().unwrap_err();
        assert!(matches!(err, ValidateError::BadId { .. }), "{err}");
    }

    #[test]
    fn inconsistent_join_heights_detected() {
        // B0: if (0 == 0) goto B1 else B2; B1 pushes an extra value before
        // joining B3, B2 does not.
        let mut pb = ProgramBuilder::new();
        pb.method("join", vec![], None, 0, |mb| {
            let b1 = mb.new_block();
            let b2 = mb.new_block();
            let b3 = mb.new_block();
            mb.iconst(0).if_zero(CmpOp::Eq, b1, b2);
            mb.switch_to(b1).iconst(1).goto_(b3);
            mb.switch_to(b2).goto_(b3);
            mb.switch_to(b3).pop().return_();
        });
        let p = pb.finish();
        let err = p.validate().unwrap_err();
        // Depending on visit order the checker sees either the height
        // conflict at the join or an underflow on the short path; both
        // reject the program.
        assert!(
            matches!(
                err,
                ValidateError::InconsistentStackHeight { .. }
                    | ValidateError::StackUnderflow { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn inconsistent_join_heights_detected_without_underflow() {
        // Both paths push before joining, but one pushes twice; the join
        // block consumes one value, so no underflow masks the conflict.
        let mut pb = ProgramBuilder::new();
        pb.method("join2", vec![], Some(Ty::Int), 0, |mb| {
            let b1 = mb.new_block();
            let b2 = mb.new_block();
            let b3 = mb.new_block();
            mb.iconst(0).if_zero(CmpOp::Eq, b1, b2);
            mb.switch_to(b1).iconst(1).iconst(2).goto_(b3);
            mb.switch_to(b2).iconst(3).goto_(b3);
            mb.switch_to(b3).return_value();
        });
        let p = pb.finish();
        let err = p.validate().unwrap_err();
        assert!(
            matches!(err, ValidateError::InconsistentStackHeight { .. })
                || matches!(err, ValidateError::BadReturn { .. }),
            "{err}"
        );
    }

    #[test]
    fn void_return_with_ret_type_detected() {
        let mut p = ok_program();
        p.methods[0].blocks[0] = Block::new(vec![], Terminator::Return);
        let err = p.validate().unwrap_err();
        assert!(matches!(err, ValidateError::BadReturn { .. }), "{err}");
    }

    #[test]
    fn leftover_operands_at_return_detected() {
        let mut pb = ProgramBuilder::new();
        pb.method("leftover", vec![], None, 0, |mb| {
            mb.iconst(1).return_();
        });
        let p = pb.finish();
        let err = p.validate().unwrap_err();
        assert!(matches!(err, ValidateError::BadReturn { .. }), "{err}");
    }

    #[test]
    fn empty_method_detected() {
        let mut p = ok_program();
        p.methods[0].blocks.clear();
        let err = p.validate().unwrap_err();
        assert!(matches!(err, ValidateError::EmptyMethod { .. }), "{err}");
    }

    #[test]
    fn unreachable_blocks_skip_stack_checks_but_not_id_checks() {
        let mut p = ok_program();
        // Unreachable block popping from an empty stack: allowed.
        p.methods[0]
            .blocks
            .push(Block::new(vec![Insn::Pop], Terminator::Return));
        p.validate().unwrap();
        // But a bad class id in an unreachable block is still an error.
        p.methods[0].blocks[1].insns[0] = Insn::New {
            class: ClassId(42),
            site: SiteId(0),
        };
        assert!(p.validate().is_err());
    }
}
