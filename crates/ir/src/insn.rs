//! Instruction and terminator definitions.
//!
//! The instruction set is the subset of JVM bytecode the paper's transfer
//! functions range over, plus the arithmetic and stack-shuffling
//! operations needed to write realistic programs. Blocks contain straight
//! line [`Insn`]s and end in exactly one [`Terminator`].

use crate::ids::BlockId;
use crate::ids::{ClassId, FieldId, LocalId, MethodId, SiteId, StaticId};

/// Integer comparison operator used by conditional branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on concrete integers.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Returns the comparison with its operands swapped (`a op b` ⇔ `b (op.flip()) a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Returns the logical negation (`!(a op b)` ⇔ `a (op.negate()) b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Branch condition of an [`Terminator::If`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Pops two ints `.., a, b` and branches on `a op b` (like `if_icmp<op>`).
    ICmp(CmpOp),
    /// Pops one int `a` and branches on `a op 0` (like `if<op>`).
    IZero(CmpOp),
    /// Pops one reference and branches if it is null (`ifnull`).
    IsNull,
    /// Pops one reference and branches if it is non-null (`ifnonnull`).
    NonNull,
    /// Pops two references `.., a, b` and branches on `a == b` (`if_acmpeq`).
    RefEq,
    /// Pops two references `.., a, b` and branches on `a != b` (`if_acmpne`).
    RefNe,
}

impl Cond {
    /// Number of operand-stack slots the condition consumes.
    pub fn pops(self) -> usize {
        match self {
            Cond::ICmp(_) | Cond::RefEq | Cond::RefNe => 2,
            Cond::IZero(_) | Cond::IsNull | Cond::NonNull => 1,
        }
    }
}

/// A straight-line bytecode instruction.
///
/// Stack effects are written `.., inputs -> .., outputs` with the stack
/// top on the right.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Insn {
    /// `.. -> .., c` — push an integer constant.
    Const(i64),
    /// `.. -> .., null` — push the null reference (`aconst_null`).
    ConstNull,
    /// `.. -> .., v` — push local slot `l` (`iload`/`aload`).
    Load(LocalId),
    /// `.., v -> ..` — pop into local slot `l` (`istore`/`astore`).
    Store(LocalId),
    /// `.. -> ..` — add a constant to an integer local in place (`iinc`).
    IInc(LocalId, i64),
    /// `.., v -> .., v, v` — duplicate the top slot (`dup`).
    Dup,
    /// `.., a, b -> .., b, a, b` — duplicate top below the next slot (`dup_x1`).
    DupX1,
    /// `.., v -> ..` — discard the top slot (`pop`).
    Pop,
    /// `.., a, b -> .., b, a` — swap the top two slots (`swap`).
    Swap,
    /// `.., a, b -> .., a+b` (wrapping).
    Add,
    /// `.., a, b -> .., a-b` (wrapping).
    Sub,
    /// `.., a, b -> .., a*b` (wrapping).
    Mul,
    /// `.., a, b -> .., a/b` — traps on division by zero.
    Div,
    /// `.., a, b -> .., a%b` — traps on division by zero.
    Rem,
    /// `.., a -> .., -a` (wrapping).
    Neg,
    /// `.., a, b -> .., a&b`.
    And,
    /// `.., a, b -> .., a|b`.
    Or,
    /// `.., a, b -> .., a^b`.
    Xor,
    /// `.., a, b -> .., a<<(b&63)`.
    Shl,
    /// `.., a, b -> .., a>>(b&63)` (arithmetic).
    Shr,
    /// `.., obj -> .., value` — read an instance field (`getfield`).
    GetField(FieldId),
    /// `.., obj, value -> ..` — write an instance field (`putfield`).
    ///
    /// Reference-typed `PutField`s are the stores the SATB barrier guards;
    /// the elision analysis decides per instruction whether the barrier
    /// may be omitted.
    PutField(FieldId),
    /// `.. -> .., value` — read a static field (`getstatic`).
    GetStatic(StaticId),
    /// `.., value -> ..` — write a static field (`putstatic`).
    PutStatic(StaticId),
    /// `.., arr, idx -> .., value` — load a reference array element (`aaload`).
    AaLoad,
    /// `.., arr, idx, value -> ..` — store a reference array element (`aastore`).
    ///
    /// Like reference `PutField`, guarded by the SATB barrier.
    AaStore,
    /// `.., arr, idx -> .., value` — load an int array element (`iaload`).
    IaLoad,
    /// `.., arr, idx, value -> ..` — store an int array element (`iastore`).
    IaStore,
    /// `.., arr -> .., len` — array length (`arraylength`).
    ArrayLength,
    /// `.. -> .., ref` — allocate a new object of `class` (`new`).
    ///
    /// All fields start zeroed/null. `site` names the allocation site for
    /// the analysis's `R_site/A` / `R_site/B` abstract references.
    New {
        /// Class to instantiate.
        class: ClassId,
        /// Allocation-site identity.
        site: SiteId,
    },
    /// `.., len -> .., ref` — allocate a reference array (`anewarray`).
    ///
    /// All elements start null; traps on negative length.
    NewRefArray {
        /// Element class (metadata only).
        class: ClassId,
        /// Allocation-site identity.
        site: SiteId,
    },
    /// `.., len -> .., ref` — allocate an int array (`newarray int`).
    NewIntArray {
        /// Allocation-site identity.
        site: SiteId,
    },
    /// `.., a0, .., an -> [.., ret]` — direct call (`invokestatic`-style).
    ///
    /// Pops the callee's parameters (first parameter deepest), pushes the
    /// return value if the callee returns one. Constructors are invoked
    /// this way with the receiver as parameter 0.
    Invoke(MethodId),
}

impl Insn {
    /// Returns the allocation site, if this instruction allocates.
    pub fn allocation_site(&self) -> Option<SiteId> {
        match *self {
            Insn::New { site, .. }
            | Insn::NewRefArray { site, .. }
            | Insn::NewIntArray { site } => Some(site),
            _ => None,
        }
    }

    /// True for the two instruction kinds that require an SATB write
    /// barrier when storing a reference: reference-field `putfield` and
    /// `aastore`. (Whether a particular `PutField` is reference-typed
    /// depends on the field declaration; see
    /// [`Program::field`](crate::Program::field).)
    pub fn is_potential_barrier_site(&self) -> bool {
        matches!(self, Insn::PutField(_) | Insn::AaStore)
    }
}

/// Block terminator: every basic block ends in exactly one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Conditional branch; pops per [`Cond::pops`].
    If {
        /// Branch condition.
        cond: Cond,
        /// Successor when the condition holds.
        then_: BlockId,
        /// Successor when the condition does not hold.
        else_: BlockId,
    },
    /// Return void; the operand stack must be empty.
    Return,
    /// Return the top of stack; the rest of the stack must be empty.
    ReturnValue,
}

impl Terminator {
    /// Successor blocks in deterministic order.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (a, b) = match *self {
            Terminator::Goto(t) => (Some(t), None),
            Terminator::If { then_, else_, .. } => (Some(then_), Some(else_)),
            Terminator::Return | Terminator::ReturnValue => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Number of operand-stack slots the terminator consumes.
    pub fn pops(&self) -> usize {
        match *self {
            Terminator::Goto(_) | Terminator::Return => 0,
            Terminator::If { cond, .. } => cond.pops(),
            Terminator::ReturnValue => 1,
        }
    }

    /// True if the terminator leaves the method.
    pub fn is_return(&self) -> bool {
        matches!(self, Terminator::Return | Terminator::ReturnValue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_and_negate() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (a, b) in [(0, 0), (1, 2), (2, 1), (-3, 3)] {
                assert_eq!(op.eval(a, b), !op.negate().eval(a, b), "{op:?} {a} {b}");
                assert_eq!(op.eval(a, b), op.flip().eval(b, a), "{op:?} {a} {b}");
            }
        }
    }

    #[test]
    fn successors_of_terminators() {
        let t = Terminator::If {
            cond: Cond::IsNull,
            then_: BlockId(1),
            else_: BlockId(2),
        };
        assert_eq!(
            t.successors().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2)]
        );
        assert_eq!(Terminator::Return.successors().count(), 0);
        assert!(Terminator::ReturnValue.is_return());
        assert_eq!(t.pops(), 1);
    }

    #[test]
    fn allocation_sites_reported() {
        let i = Insn::New {
            class: ClassId(0),
            site: SiteId(5),
        };
        assert_eq!(i.allocation_site(), Some(SiteId(5)));
        assert_eq!(Insn::Pop.allocation_site(), None);
        assert!(Insn::AaStore.is_potential_barrier_site());
        assert!(Insn::PutField(FieldId(0)).is_potential_barrier_site());
        assert!(!Insn::IaStore.is_potential_barrier_site());
    }
}
