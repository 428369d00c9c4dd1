//! Methods, signatures, and basic blocks.

use crate::ids::{BlockId, ClassId, LocalId, MethodId};
use crate::insn::{Insn, Terminator};
use crate::program::Ty;

/// A method signature: parameter types and optional return type.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct MethodSig {
    /// Parameter types; parameter `i` arrives in local slot `i`.
    pub params: Vec<Ty>,
    /// Return type, or `None` for void.
    pub ret: Option<Ty>,
}

impl MethodSig {
    /// Creates a signature.
    pub fn new(params: Vec<Ty>, ret: Option<Ty>) -> Self {
        MethodSig { params, ret }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Straight-line body.
    pub insns: Vec<Insn>,
    /// Control-flow exit.
    pub term: Terminator,
}

impl Block {
    /// Creates a block.
    pub fn new(insns: Vec<Insn>, term: Terminator) -> Self {
        Block { insns, term }
    }
}

/// A method body plus metadata.
///
/// Block 0 is always the entry block. On entry, local slots
/// `0..sig.params.len()` hold the arguments; remaining slots are
/// uninitialized and must be written before read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Method {
    /// This method's id (its index in [`Program::methods`](crate::Program)).
    pub id: MethodId,
    /// Human-readable name, used by the pretty printer and diagnostics.
    pub name: String,
    /// Signature.
    pub sig: MethodSig,
    /// Declaring class of an instance method or constructor, if any.
    pub owner: Option<ClassId>,
    /// True for constructors. Constructors take the object under
    /// construction as parameter 0 and get the paper's special initial
    /// state: `this` is unique, thread-local, and its declared fields are
    /// known null on entry.
    pub is_constructor: bool,
    /// Number of local slots, `>= sig.params.len()`.
    pub num_locals: u16,
    /// Basic blocks; [`BlockId`] indexes into this vector. Index 0 is the
    /// entry.
    pub blocks: Vec<Block>,
    /// Bytecode size used by the inliner's budget. Mirrors the paper's
    /// "inline limit parameter determines the maximum bytecode size of an
    /// inlined method". Computed as the total instruction count
    /// (including terminators).
    pub size: usize,
}

impl Method {
    /// The entry block id (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Returns a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Iterates over `(BlockId, &Block)` pairs in index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::from_index(i), b))
    }

    /// Total instruction count (bodies plus terminators); the inliner's
    /// notion of "bytecode size".
    pub fn compute_size(&self) -> usize {
        self.blocks.iter().map(|b| b.insns.len() + 1).sum()
    }

    /// Recomputes and stores [`Method::size`].
    pub fn refresh_size(&mut self) {
        self.size = self.compute_size();
    }

    /// True if `local` is a parameter slot.
    pub fn is_param(&self, local: LocalId) -> bool {
        local.index() < self.sig.params.len()
    }

    /// Iterates over every instruction as `(BlockId, index-in-block, &Insn)`.
    pub fn iter_insns(&self) -> impl Iterator<Item = (BlockId, usize, &Insn)> {
        self.iter_blocks().flat_map(|(bid, b)| {
            b.insns
                .iter()
                .enumerate()
                .map(move |(i, insn)| (bid, i, insn))
        })
    }
}

/// A stable address of one instruction inside a method: block plus index.
///
/// Used to key per-site analysis results (e.g. "the `putfield` at
/// `B3[2]` needs no barrier") and per-site dynamic statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InsnAddr {
    /// Block containing the instruction.
    pub block: BlockId,
    /// Index of the instruction within the block body.
    pub index: usize,
}

impl InsnAddr {
    /// Creates an address.
    pub fn new(block: BlockId, index: usize) -> Self {
        InsnAddr { block, index }
    }

    /// The label of the store site at `self` in the method named
    /// `method`: `method@B<block>[<index>]`, how every report, ledger
    /// and trace event names a site.
    pub fn label(self, method: &str) -> String {
        format!("{method}@{self}")
    }
}

impl std::fmt::Display for InsnAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.block, self.index)
    }
}

/// Where the IR checkers reject a method: an instruction or a block's
/// terminator. `Copy`, so an accepted program costs no location string;
/// it prints as `B3[7]` or `B3[term]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodeLoc {
    /// An instruction of a block body.
    Insn(InsnAddr),
    /// A block's terminator.
    Term(BlockId),
}

impl std::fmt::Display for CodeLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeLoc::Insn(addr) => addr.fmt(f),
            CodeLoc::Term(block) => write!(f, "{block}[term]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Terminator;

    fn sample_method() -> Method {
        Method {
            id: MethodId(0),
            name: "sample".into(),
            sig: MethodSig::new(vec![Ty::Int], Some(Ty::Int)),
            owner: None,
            is_constructor: false,
            num_locals: 2,
            blocks: vec![
                Block::new(
                    vec![Insn::Load(LocalId(0)), Insn::Store(LocalId(1))],
                    Terminator::Goto(BlockId(1)),
                ),
                Block::new(vec![Insn::Load(LocalId(1))], Terminator::ReturnValue),
            ],
            size: 0,
        }
    }

    #[test]
    fn size_counts_insns_and_terminators() {
        let mut m = sample_method();
        assert_eq!(m.compute_size(), 5);
        m.refresh_size();
        assert_eq!(m.size, 5);
    }

    #[test]
    fn entry_is_block_zero() {
        let m = sample_method();
        assert_eq!(m.entry(), BlockId(0));
        assert_eq!(m.block(BlockId(1)).insns.len(), 1);
    }

    #[test]
    fn param_detection() {
        let m = sample_method();
        assert!(m.is_param(LocalId(0)));
        assert!(!m.is_param(LocalId(1)));
    }

    #[test]
    fn iter_insns_addresses() {
        let m = sample_method();
        let addrs: Vec<_> = m
            .iter_insns()
            .map(|(b, i, _)| InsnAddr::new(b, i))
            .collect();
        assert_eq!(addrs.len(), 3);
        assert_eq!(addrs[2], InsnAddr::new(BlockId(1), 0));
        assert_eq!(addrs[2].to_string(), "B1[0]");
        assert_eq!(addrs[2].label("C::<init>"), "C::<init>@B1[0]");
    }

    #[test]
    fn code_locations_print_as_the_checkers_always_did() {
        let at = CodeLoc::Insn(InsnAddr::new(BlockId(3), 7));
        assert_eq!(at.to_string(), "B3[7]");
        assert_eq!(CodeLoc::Term(BlockId(3)).to_string(), "B3[term]");
    }
}
