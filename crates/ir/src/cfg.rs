//! Control-flow-graph utilities over method bodies.

use crate::ids::BlockId;
use crate::method::Method;

/// Blocks reachable from the entry, in reverse postorder.
///
/// Reverse postorder visits a block before its successors on forward
/// edges, which makes the analysis worklist converge in few passes.
pub fn reverse_postorder(method: &Method) -> Vec<BlockId> {
    let n = method.blocks.len();
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut postorder = Vec::with_capacity(n);
    // Iterative DFS storing (block, next successor index).
    let mut stack: Vec<(BlockId, Vec<BlockId>, usize)> = Vec::new();
    let entry = method.entry();
    state[entry.index()] = 1;
    stack.push((entry, method.block(entry).term.successors().collect(), 0));
    while let Some((bid, succs, idx)) = stack.last_mut() {
        if let Some(&succ) = succs.get(*idx) {
            *idx += 1;
            if state[succ.index()] == 0 {
                state[succ.index()] = 1;
                stack.push((succ, method.block(succ).term.successors().collect(), 0));
            }
        } else {
            state[bid.index()] = 2;
            postorder.push(*bid);
            stack.pop();
        }
    }
    postorder.reverse();
    postorder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::insn::CmpOp;
    use crate::program::Ty;

    fn looped() -> crate::program::Program {
        let mut pb = ProgramBuilder::new();
        pb.method("loop", vec![Ty::Int], None, 0, |mb| {
            let n = mb.local(0);
            let head = mb.new_block();
            let body = mb.new_block();
            let exit = mb.new_block();
            mb.goto_(head);
            mb.switch_to(head).load(n).if_zero(CmpOp::Gt, body, exit);
            mb.switch_to(body).iinc(n, -1).goto_(head);
            mb.switch_to(exit).return_();
        });
        pb.finish()
    }

    #[test]
    fn rpo_visits_entry_first_and_all_blocks() {
        let p = looped();
        let rpo = reverse_postorder(&p.methods[0]);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn unreachable_blocks_found() {
        // A block no branch reaches is left out of the order the
        // analyses walk.
        let mut p = looped();
        p.methods[0].blocks.push(crate::method::Block::new(
            vec![],
            crate::insn::Terminator::Return,
        ));
        let rpo = reverse_postorder(&p.methods[0]);
        assert_eq!(rpo.len(), 4);
        assert!(!rpo.contains(&BlockId(4)));
    }
}
