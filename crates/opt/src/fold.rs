//! Classic clean-up passes: constant folding, branch folding, and
//! unreachable-block removal.
//!
//! The paper's client JIT runs its own simplification before the
//! barrier analyses; these passes play that role here. Folding literal
//! arithmetic also feeds the analyses directly — a folded index becomes
//! a literal the array analysis can reason about.

use wbe_ir::{Block, BlockId, Cond, Insn, Method, Program, Terminator};

/// Statistics from one optimization run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Arithmetic/stack peepholes applied.
    pub folded: usize,
    /// Conditional branches turned into gotos.
    pub branches_folded: usize,
    /// Unreachable blocks removed.
    pub blocks_removed: usize,
}

/// Evaluates a binary op on literals; `None` when the op must not fold
/// (division by zero traps at run time and must stay).
fn eval_binop(op: &Insn, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        Insn::Add => a.wrapping_add(b),
        Insn::Sub => a.wrapping_sub(b),
        Insn::Mul => a.wrapping_mul(b),
        Insn::Div if b != 0 => a.wrapping_div(b),
        Insn::Rem if b != 0 => a.wrapping_rem(b),
        Insn::And => a & b,
        Insn::Or => a | b,
        Insn::Xor => a ^ b,
        Insn::Shl => a.wrapping_shl(b as u32 & 63),
        Insn::Shr => a.wrapping_shr(b as u32 & 63),
        _ => return None,
    })
}

fn is_binop(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Add
            | Insn::Sub
            | Insn::Mul
            | Insn::Div
            | Insn::Rem
            | Insn::And
            | Insn::Or
            | Insn::Xor
            | Insn::Shl
            | Insn::Shr
    )
}

/// One peephole sweep over a block body. Returns replacements applied.
fn peephole_block(insns: &mut Vec<Insn>) -> usize {
    let mut applied = 0;
    let mut i = 0;
    while i < insns.len() {
        // const a; const b; <binop>  →  const (a op b)
        if i + 2 < insns.len() {
            if let (Insn::Const(a), Insn::Const(b)) = (insns[i], insns[i + 1]) {
                if is_binop(&insns[i + 2]) {
                    if let Some(v) = eval_binop(&insns[i + 2], a, b) {
                        insns.splice(i..i + 3, [Insn::Const(v)]);
                        applied += 1;
                        i = i.saturating_sub(2);
                        continue;
                    }
                }
            }
        }
        if i + 1 < insns.len() {
            match (insns[i], insns[i + 1]) {
                // const a; neg → const -a
                (Insn::Const(a), Insn::Neg) => {
                    insns.splice(i..i + 2, [Insn::Const(a.wrapping_neg())]);
                    applied += 1;
                    i = i.saturating_sub(2);
                    continue;
                }
                // const/const_null; pop → (nothing)
                (Insn::Const(_), Insn::Pop) | (Insn::ConstNull, Insn::Pop) => {
                    insns.splice(i..i + 2, std::iter::empty());
                    applied += 1;
                    i = i.saturating_sub(2);
                    continue;
                }
                // dup; pop → (nothing)
                (Insn::Dup, Insn::Pop) => {
                    insns.splice(i..i + 2, std::iter::empty());
                    applied += 1;
                    i = i.saturating_sub(2);
                    continue;
                }
                // load l; pop → (nothing)  (loads are side-effect-free)
                (Insn::Load(_), Insn::Pop) => {
                    insns.splice(i..i + 2, std::iter::empty());
                    applied += 1;
                    i = i.saturating_sub(2);
                    continue;
                }
                // const a; const b; swap → const b; const a
                _ => {}
            }
        }
        if i + 2 < insns.len() {
            if let (Insn::Const(a), Insn::Const(b), Insn::Swap) =
                (insns[i], insns[i + 1], insns[i + 2])
            {
                insns.splice(i..i + 3, [Insn::Const(b), Insn::Const(a)]);
                applied += 1;
                i = i.saturating_sub(2);
                continue;
            }
        }
        i += 1;
    }
    applied
}

/// Folds a conditional whose operands are block-trailing literals.
fn fold_branch(block: &mut Block) -> bool {
    let Terminator::If { cond, then_, else_ } = block.term else {
        return false;
    };
    let n = block.insns.len();
    let taken = match cond {
        Cond::ICmp(op) => {
            if n < 2 {
                return false;
            }
            let (Insn::Const(a), Insn::Const(b)) = (block.insns[n - 2], block.insns[n - 1]) else {
                return false;
            };
            block.insns.truncate(n - 2);
            op.eval(a, b)
        }
        Cond::IZero(op) => {
            if n < 1 {
                return false;
            }
            let Insn::Const(a) = block.insns[n - 1] else {
                return false;
            };
            block.insns.truncate(n - 1);
            op.eval(a, 0)
        }
        Cond::IsNull => {
            if n < 1 || block.insns[n - 1] != Insn::ConstNull {
                return false;
            }
            block.insns.truncate(n - 1);
            true
        }
        Cond::NonNull => {
            if n < 1 || block.insns[n - 1] != Insn::ConstNull {
                return false;
            }
            block.insns.truncate(n - 1);
            false
        }
        Cond::RefEq | Cond::RefNe => return false,
    };
    block.term = Terminator::Goto(if taken { then_ } else { else_ });
    true
}

/// Removes blocks unreachable from the entry, remapping branch targets.
fn remove_unreachable(method: &mut Method) -> usize {
    let order = wbe_ir::cfg::reverse_postorder(method);
    // The common case: every block is reachable.
    if order.len() == method.blocks.len() {
        return 0;
    }
    let mut reachable = vec![false; method.blocks.len()];
    for bid in order {
        reachable[bid.index()] = true;
    }
    let mut remap = vec![None; method.blocks.len()];
    let mut kept = Vec::new();
    for (i, block) in method.blocks.drain(..).enumerate() {
        if reachable[i] {
            remap[i] = Some(BlockId::from_index(kept.len()));
            kept.push(block);
        }
    }
    let removed = remap.iter().filter(|r| r.is_none()).count();
    for block in &mut kept {
        block.term = match block.term {
            Terminator::Goto(t) => Terminator::Goto(remap[t.index()].expect("reachable target")),
            Terminator::If { cond, then_, else_ } => Terminator::If {
                cond,
                then_: remap[then_.index()].expect("reachable target"),
                else_: remap[else_.index()].expect("reachable target"),
            },
            t => t,
        };
    }
    method.blocks = kept;
    removed
}

/// Optimizes one method in place until a fixed point.
pub fn fold_method(method: &mut Method) -> FoldStats {
    let mut stats = FoldStats::default();
    loop {
        let mut progress = 0;
        for block in &mut method.blocks {
            progress += peephole_block(&mut block.insns);
        }
        stats.folded += progress;
        let mut branches = 0;
        for block in &mut method.blocks {
            if fold_branch(block) {
                branches += 1;
            }
        }
        stats.branches_folded += branches;
        if progress + branches == 0 {
            break;
        }
    }
    stats.blocks_removed += remove_unreachable(method);
    method.refresh_size();
    stats
}

/// Optimizes every method of the program in place.
pub fn fold_program(program: &mut Program) -> FoldStats {
    let mut stats = FoldStats::default();
    for m in &mut program.methods {
        let s = fold_method(m);
        stats.folded += s.folded;
        stats.branches_folded += s.branches_folded;
        stats.blocks_removed += s.blocks_removed;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::{CmpOp, Ty};

    #[test]
    fn arithmetic_chains_fold_to_one_constant() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("calc", vec![], Some(Ty::Int), 0, |mb| {
            // (3 + 4) * 2 - 6 / 3 = 12
            mb.iconst(3).iconst(4).add().iconst(2).mul();
            mb.iconst(6).iconst(3).div().sub();
            mb.return_value();
        });
        let mut p = pb.finish();
        let stats = fold_program(&mut p);
        assert!(stats.folded >= 4, "{stats:?}");
        let body = &p.method(m).blocks[0].insns;
        assert_eq!(body, &vec![Insn::Const(12)], "{body:?}");
        p.validate().unwrap();
    }

    #[test]
    fn division_by_zero_is_never_folded() {
        let mut pb = ProgramBuilder::new();
        pb.method("dz", vec![], Some(Ty::Int), 0, |mb| {
            mb.iconst(1).iconst(0).div().return_value();
        });
        let mut p = pb.finish();
        fold_program(&mut p);
        // The trap-preserving div stays.
        assert!(p.methods[0].blocks[0]
            .insns
            .iter()
            .any(|i| matches!(i, Insn::Div)));
    }

    #[test]
    fn constant_branch_folds_and_dead_block_is_removed() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("pick", vec![], Some(Ty::Int), 0, |mb| {
            let t = mb.new_block();
            let e = mb.new_block();
            mb.iconst(1).iconst(2).if_icmp(CmpOp::Lt, t, e);
            mb.switch_to(t).iconst(10).return_value();
            mb.switch_to(e).iconst(20).return_value();
        });
        let mut p = pb.finish();
        let stats = fold_program(&mut p);
        assert_eq!(stats.branches_folded, 1);
        assert_eq!(stats.blocks_removed, 1);
        assert_eq!(p.method(m).blocks.len(), 2);
        p.validate().unwrap();
        // Entry now jumps straight to the 'then' block.
        assert_eq!(p.method(m).blocks[0].term, Terminator::Goto(BlockId(1)));
    }

    #[test]
    fn null_branch_folds() {
        let mut pb = ProgramBuilder::new();
        pb.method("nb", vec![], Some(Ty::Int), 0, |mb| {
            let t = mb.new_block();
            let e = mb.new_block();
            mb.const_null().if_null(t, e);
            mb.switch_to(t).iconst(1).return_value();
            mb.switch_to(e).iconst(2).return_value();
        });
        let mut p = pb.finish();
        let stats = fold_program(&mut p);
        assert_eq!(stats.branches_folded, 1);
        assert_eq!(stats.blocks_removed, 1);
    }

    #[test]
    fn dead_pushes_are_dropped() {
        let mut pb = ProgramBuilder::new();
        pb.method("dead", vec![Ty::Int], None, 0, |mb| {
            let x = mb.local(0);
            mb.iconst(5).pop();
            mb.const_null().pop();
            mb.load(x).pop();
            mb.load(x).dup().pop().pop();
            mb.return_();
        });
        let mut p = pb.finish();
        fold_program(&mut p);
        assert!(p.methods[0].blocks[0].insns.is_empty());
    }

    #[test]
    fn folding_preserves_validation_on_workload_shapes() {
        // A loop whose bound is a foldable expression.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        pb.method("loopy", vec![], None, 2, |mb| {
            let i = mb.local(0);
            let a = mb.local(1);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.iconst(2).iconst(3).mul().new_ref_array(c).store(a);
            mb.iconst(0).store(i).goto_(head);
            mb.switch_to(head)
                .load(i)
                .iconst(6)
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
        let mut p = pb.finish();
        let before = p.total_size();
        fold_program(&mut p);
        assert!(p.total_size() < before);
        p.validate().unwrap();
    }

    #[test]
    fn folding_is_idempotent() {
        let mut pb = ProgramBuilder::new();
        pb.method("idem", vec![], Some(Ty::Int), 0, |mb| {
            mb.iconst(1).iconst(2).add().iconst(3).mul().return_value();
        });
        let mut p = pb.finish();
        fold_program(&mut p);
        let snapshot = p.clone();
        let stats = fold_program(&mut p);
        assert_eq!(stats, FoldStats::default());
        assert_eq!(p, snapshot);
    }
}
