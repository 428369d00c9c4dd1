//! [`crate::check`]'s tests of ids, heights and returns, at the path
//! they had when a checker of their own (`validate`) made those checks.

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::ids::{BlockId, ClassId, FieldId, LocalId, SiteId};
    use crate::insn::{CmpOp, Insn, Terminator};
    use crate::method::Block;
    use crate::program::{Program, Ty};
    use crate::ValidateError;

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
        assert!(matches!(err, ValidateError::BadId { .. }), "{err}");
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

    #[test]
    fn a_structural_fault_in_a_later_method_outranks_a_type_error() {
        // m0 reads a local it never wrote (a type error); m1 underflows.
        let mut pb = ProgramBuilder::new();
        pb.method("typed", vec![], None, 1, |mb| {
            mb.load(mb.local(0)).pop().return_();
        });
        pb.method("short", vec![], None, 0, |mb| {
            mb.pop().return_();
        });
        let err = pb.finish().validate().unwrap_err();
        assert!(matches!(err, ValidateError::StackUnderflow { .. }), "{err}");
    }
}
