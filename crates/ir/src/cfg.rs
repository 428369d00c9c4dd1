//! Control-flow-graph utilities over method bodies.

use crate::ids::BlockId;
use crate::method::Method;

/// Blocks reachable from the entry, in reverse postorder.
///
/// Reverse postorder visits a block before its successors on forward
/// edges, which makes the analysis worklist converge in few passes.
pub fn reverse_postorder(method: &Method) -> Vec<BlockId> {
    let n = method.blocks.len();
    // Per block: 0 until the walk reaches it, then 1 + the index of the
    // next successor its DFS frame walks.
    let mut next = vec![0u8; n];
    // One buffer for the DFS stack, growing from the front, and the
    // finished blocks, growing from the back. A block is pushed once
    // and finished once, so the two parts never meet, and the back part
    // read forwards is the reverse postorder.
    let entry = method.entry();
    let mut order = vec![entry; n];
    let (mut depth, mut done) = (1, 0);
    next[entry.index()] = 1;
    while depth > 0 {
        let bid = order[depth - 1];
        let walked = &mut next[bid.index()];
        let succ = method
            .block(bid)
            .term
            .successors()
            .nth(*walked as usize - 1);
        match succ {
            Some(succ) => {
                *walked += 1;
                if next[succ.index()] == 0 {
                    next[succ.index()] = 1;
                    order[depth] = succ;
                    depth += 1;
                }
            }
            None => {
                depth -= 1;
                done += 1;
                order[n - done] = bid;
            }
        }
    }
    order.drain(..n - done);
    order
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

    /// The DFS that collected each frame's successors into a `Vec`:
    /// the model the index walk must agree with.
    fn model(method: &Method) -> Vec<BlockId> {
        let mut seen = vec![false; method.blocks.len()];
        let mut postorder = Vec::new();
        let mut stack: Vec<(BlockId, Vec<BlockId>, usize)> = Vec::new();
        let entry = method.entry();
        seen[entry.index()] = true;
        stack.push((entry, method.block(entry).term.successors().collect(), 0));
        while let Some((bid, succs, idx)) = stack.last_mut() {
            if let Some(&succ) = succs.get(*idx) {
                *idx += 1;
                if !seen[succ.index()] {
                    seen[succ.index()] = true;
                    stack.push((succ, method.block(succ).term.successors().collect(), 0));
                }
            } else {
                postorder.push(*bid);
                stack.pop();
            }
        }
        postorder.reverse();
        postorder
    }

    proptest::proptest! {
        /// Any control-flow graph: each block returns, jumps, or
        /// branches two ways to blocks drawn from the whole method.
        #[test]
        fn agrees_with_the_collecting_walk(
            edges in proptest::collection::vec((0u8..3, 0usize..40, 0usize..40), 1..40),
        ) {
            let n = edges.len();
            let blocks = edges.iter().map(|&(kind, a, b)| {
                let (a, b) = (BlockId::from_index(a % n), BlockId::from_index(b % n));
                let term = match kind {
                    0 => crate::insn::Terminator::Return,
                    1 => crate::insn::Terminator::Goto(a),
                    _ => crate::insn::Terminator::If {
                        cond: crate::insn::Cond::IZero(CmpOp::Eq),
                        then_: a,
                        else_: b,
                    },
                };
                crate::method::Block::new(vec![], term)
            });
            let mut p = looped();
            p.methods[0].blocks = blocks.collect();
            let m = &p.methods[0];
            proptest::prop_assert_eq!(reverse_postorder(m), model(m));
        }
    }
}
