//! [`crate::check`]'s tests of slot types, at the path they had when a
//! checker of their own (`type_check`) made those checks.

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::insn::CmpOp;
    use crate::program::Ty;
    use crate::ValidateError;

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
        p.validate().unwrap();
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
        let e = p.validate().unwrap_err();
        assert!(e.to_string().contains("expected Ref"), "{e}");
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
        assert!(matches!(p.validate(), Err(ValidateError::Type { .. })));
    }

    #[test]
    fn read_of_uninitialized_local_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.method("bad", vec![], Some(Ty::Int), 1, |mb| {
            let t = mb.local(0);
            mb.load(t).return_value();
        });
        let p = pb.finish();
        let e = p.validate().unwrap_err();
        assert!(e.to_string().contains("uninitialized"), "{e}");
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
        let e = p.validate().unwrap_err();
        assert!(
            e.to_string().contains("conflicting") || e.to_string().contains("expected Int"),
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
        p.validate().unwrap();
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
        assert!(matches!(p.validate(), Err(ValidateError::Type { .. })));
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
        assert!(matches!(p.validate(), Err(ValidateError::Type { .. })));
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
        assert!(matches!(p.validate(), Err(ValidateError::Type { .. })));
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
        p.validate().unwrap();
    }
}
