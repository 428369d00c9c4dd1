//! Fluent builders for programs and method bodies.
//!
//! [`ProgramBuilder`] declares classes, fields, statics, and methods;
//! [`MethodBuilder`] emits instructions into basic blocks with a chainable
//! API. Allocation sites are numbered automatically and are unique across
//! the program.
//!
//! See the crate-level example for a complete method.

use crate::ids::{BlockId, ClassId, FieldId, LocalId, MethodId, SiteId, StaticId};
use crate::insn::{CmpOp, Cond, Insn, Terminator};
use crate::method::{Block, Method, MethodSig};
use crate::program::{Class, FieldDecl, Program, StaticDecl, Ty};

/// Builds a [`Program`] incrementally.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Declares a class with no fields (add fields with
    /// [`ProgramBuilder::field`]).
    pub fn class(&mut self, name: impl Into<String>) -> ClassId {
        let id = ClassId::from_index(self.program.classes.len());
        self.program.classes.push(Class {
            id,
            name: name.into(),
            fields: Vec::new(),
        });
        id
    }

    /// Declares an instance field on `class`.
    pub fn field(&mut self, class: ClassId, name: impl Into<String>, ty: Ty) -> FieldId {
        let id = FieldId::from_index(self.program.fields.len());
        let offset = self.program.class(class).fields.len();
        self.program.fields.push(FieldDecl {
            id,
            class,
            name: name.into(),
            ty,
            offset,
        });
        self.program.classes[class.index()].fields.push(id);
        id
    }

    /// Declares a static field.
    pub fn static_field(&mut self, name: impl Into<String>, ty: Ty) -> StaticId {
        let id = StaticId::from_index(self.program.statics.len());
        self.program.statics.push(StaticDecl {
            id,
            name: name.into(),
            ty,
        });
        id
    }

    /// Declares a method with an empty body (define it later with
    /// [`ProgramBuilder::define_method`]). Forward declaration lets
    /// mutually recursive methods reference each other.
    pub fn declare_method(
        &mut self,
        name: impl Into<String>,
        params: Vec<Ty>,
        ret: Option<Ty>,
    ) -> MethodId {
        self.declare_method_raw(name, params, ret, None, false)
    }

    /// Declares a constructor for `class`; parameter 0 is the object under
    /// construction. Constructors return void and get the paper's special
    /// initial analysis state for `this`.
    pub fn declare_constructor(&mut self, class: ClassId, mut extra_params: Vec<Ty>) -> MethodId {
        let mut params = vec![Ty::Ref(class)];
        params.append(&mut extra_params);
        let name = format!("{}::<init>", self.program.class(class).name);
        self.declare_method_raw(name, params, None, Some(class), true)
    }

    fn declare_method_raw(
        &mut self,
        name: impl Into<String>,
        params: Vec<Ty>,
        ret: Option<Ty>,
        owner: Option<ClassId>,
        is_constructor: bool,
    ) -> MethodId {
        let id = MethodId::from_index(self.program.methods.len());
        let num_locals = u16::try_from(params.len()).expect("too many parameters");
        self.program.methods.push(Method {
            id,
            name: name.into(),
            sig: MethodSig::new(params, ret),
            owner,
            is_constructor,
            num_locals,
            blocks: Vec::new(),
            size: 0,
        });
        id
    }

    /// Defines the body of a previously declared method. `extra_locals` is
    /// the number of non-parameter local slots.
    ///
    /// # Panics
    ///
    /// Panics if the method already has a body, or if the builder closure
    /// leaves any block without a terminator.
    pub fn define_method(
        &mut self,
        id: MethodId,
        extra_locals: u16,
        f: impl FnOnce(&mut MethodBuilder<'_>),
    ) {
        assert!(
            self.program.method(id).blocks.is_empty(),
            "method {} already defined",
            self.program.method(id).name
        );
        let params = self.program.method(id).sig.params.len() as u16;
        let num_locals = params + extra_locals;
        let mut mb = MethodBuilder {
            program: &mut self.program,
            num_locals,
            blocks: vec![(Vec::new(), None)],
            current: BlockId(0),
        };
        f(&mut mb);
        let blocks: Vec<Block> = mb
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, (insns, term))| {
                let term = term.unwrap_or_else(|| {
                    panic!(
                        "block B{} of method {} has no terminator",
                        i,
                        self.program.method(id).name
                    )
                });
                Block::new(insns, term)
            })
            .collect();
        let m = self.program.method_mut(id);
        m.num_locals = num_locals;
        m.blocks = blocks;
        m.refresh_size();
    }

    /// Convenience: declare and define in one call.
    pub fn method(
        &mut self,
        name: impl Into<String>,
        params: Vec<Ty>,
        ret: Option<Ty>,
        extra_locals: u16,
        f: impl FnOnce(&mut MethodBuilder<'_>),
    ) -> MethodId {
        let id = self.declare_method(name, params, ret);
        self.define_method(id, extra_locals, f);
        id
    }

    /// Read-only access to the program under construction (e.g. to look up
    /// signatures while building).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Finishes building and returns the program.
    pub fn finish(self) -> Program {
        self.program
    }
}

/// Emits instructions into one method's blocks.
///
/// Every emission method returns `&mut Self` for chaining. The builder
/// starts in block 0 (the entry); create further blocks with
/// [`MethodBuilder::new_block`] and select them with
/// [`MethodBuilder::switch_to`].
#[derive(Debug)]
pub struct MethodBuilder<'p> {
    program: &'p mut Program,
    num_locals: u16,
    blocks: Vec<(Vec<Insn>, Option<Terminator>)>,
    current: BlockId,
}

impl<'p> MethodBuilder<'p> {
    /// Returns the local slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of the method's local range.
    pub fn local(&self, index: u16) -> LocalId {
        assert!(index < self.num_locals, "local l{index} out of range");
        LocalId(index)
    }

    /// Allocates a new, empty block and returns its id (it still needs a
    /// terminator before the method definition completes).
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push((Vec::new(), None));
        id
    }

    /// Makes `block` the target of subsequent emissions.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not created by this builder.
    pub fn switch_to(&mut self, block: BlockId) -> &mut Self {
        assert!(block.index() < self.blocks.len(), "unknown block {block}");
        self.current = block;
        self
    }

    /// Emits a raw instruction.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already terminated.
    pub fn emit(&mut self, insn: Insn) -> &mut Self {
        let (insns, term) = &mut self.blocks[self.current.index()];
        assert!(
            term.is_none(),
            "emitting {insn:?} into terminated block {}",
            self.current
        );
        insns.push(insn);
        self
    }

    fn terminate(&mut self, term: Terminator) -> &mut Self {
        let slot = &mut self.blocks[self.current.index()].1;
        assert!(
            slot.is_none(),
            "block {} already terminated with {slot:?}",
            self.current
        );
        *slot = Some(term);
        self
    }

    fn fresh_site(&mut self) -> SiteId {
        self.program.fresh_site()
    }

    // --- constants, locals, stack ---

    /// Push an integer constant.
    pub fn iconst(&mut self, v: i64) -> &mut Self {
        self.emit(Insn::Const(v))
    }

    /// Push null.
    pub fn const_null(&mut self) -> &mut Self {
        self.emit(Insn::ConstNull)
    }

    /// Push local `l`.
    pub fn load(&mut self, l: LocalId) -> &mut Self {
        self.emit(Insn::Load(l))
    }

    /// Pop into local `l`.
    pub fn store(&mut self, l: LocalId) -> &mut Self {
        self.emit(Insn::Store(l))
    }

    /// Add `delta` to integer local `l` in place.
    pub fn iinc(&mut self, l: LocalId, delta: i64) -> &mut Self {
        self.emit(Insn::IInc(l, delta))
    }

    /// Duplicate the stack top.
    pub fn dup(&mut self) -> &mut Self {
        self.emit(Insn::Dup)
    }

    /// Duplicate the stack top below the next slot.
    pub fn dup_x1(&mut self) -> &mut Self {
        self.emit(Insn::DupX1)
    }

    /// Discard the stack top.
    pub fn pop(&mut self) -> &mut Self {
        self.emit(Insn::Pop)
    }

    /// Swap the top two slots.
    pub fn swap(&mut self) -> &mut Self {
        self.emit(Insn::Swap)
    }

    // --- arithmetic ---

    /// Pop two ints, push their sum.
    pub fn add(&mut self) -> &mut Self {
        self.emit(Insn::Add)
    }

    /// Pop two ints, push their difference.
    pub fn sub(&mut self) -> &mut Self {
        self.emit(Insn::Sub)
    }

    /// Pop two ints, push their product.
    pub fn mul(&mut self) -> &mut Self {
        self.emit(Insn::Mul)
    }

    /// Pop two ints, push their quotient.
    pub fn div(&mut self) -> &mut Self {
        self.emit(Insn::Div)
    }

    /// Pop two ints, push their remainder.
    pub fn rem(&mut self) -> &mut Self {
        self.emit(Insn::Rem)
    }

    /// Negate the top int.
    pub fn neg(&mut self) -> &mut Self {
        self.emit(Insn::Neg)
    }

    /// Pop two ints, push their bitwise and.
    pub fn and(&mut self) -> &mut Self {
        self.emit(Insn::And)
    }

    /// Pop two ints, push their bitwise or.
    pub fn or(&mut self) -> &mut Self {
        self.emit(Insn::Or)
    }

    /// Pop two ints, push their bitwise xor.
    pub fn xor(&mut self) -> &mut Self {
        self.emit(Insn::Xor)
    }

    /// Pop shift amount and value, push `value << amount`.
    pub fn shl(&mut self) -> &mut Self {
        self.emit(Insn::Shl)
    }

    /// Pop shift amount and value, push `value >> amount`.
    pub fn shr(&mut self) -> &mut Self {
        self.emit(Insn::Shr)
    }

    // --- heap access ---

    /// Read instance field `f` from the object on top of the stack.
    pub fn getfield(&mut self, f: FieldId) -> &mut Self {
        self.emit(Insn::GetField(f))
    }

    /// Write `.., obj, value` into instance field `f`.
    pub fn putfield(&mut self, f: FieldId) -> &mut Self {
        self.emit(Insn::PutField(f))
    }

    /// Read static `s`.
    pub fn getstatic(&mut self, s: StaticId) -> &mut Self {
        self.emit(Insn::GetStatic(s))
    }

    /// Write the stack top into static `s`.
    pub fn putstatic(&mut self, s: StaticId) -> &mut Self {
        self.emit(Insn::PutStatic(s))
    }

    /// Load a reference array element (`.., arr, idx`).
    pub fn aaload(&mut self) -> &mut Self {
        self.emit(Insn::AaLoad)
    }

    /// Store a reference array element (`.., arr, idx, value`).
    pub fn aastore(&mut self) -> &mut Self {
        self.emit(Insn::AaStore)
    }

    /// Load an int array element (`.., arr, idx`).
    pub fn iaload(&mut self) -> &mut Self {
        self.emit(Insn::IaLoad)
    }

    /// Store an int array element (`.., arr, idx, value`).
    pub fn iastore(&mut self) -> &mut Self {
        self.emit(Insn::IaStore)
    }

    /// Push the length of the array on top of the stack.
    pub fn arraylength(&mut self) -> &mut Self {
        self.emit(Insn::ArrayLength)
    }

    // --- allocation ---

    /// Allocate a new instance of `class` (fields zeroed), pushing the
    /// reference. A fresh allocation site is assigned.
    pub fn new_object(&mut self, class: ClassId) -> &mut Self {
        let site = self.fresh_site();
        self.emit(Insn::New { class, site })
    }

    /// Allocate a reference array of `class` with the length on top of the
    /// stack (elements null). A fresh allocation site is assigned.
    pub fn new_ref_array(&mut self, class: ClassId) -> &mut Self {
        let site = self.fresh_site();
        self.emit(Insn::NewRefArray { class, site })
    }

    /// Allocate an int array with the length on top of the stack
    /// (elements zero). A fresh allocation site is assigned.
    pub fn new_int_array(&mut self) -> &mut Self {
        let site = self.fresh_site();
        self.emit(Insn::NewIntArray { site })
    }

    /// Call `m`, popping its parameters and pushing its return value (if
    /// any).
    pub fn invoke(&mut self, m: MethodId) -> &mut Self {
        self.emit(Insn::Invoke(m))
    }

    // --- terminators ---

    /// Unconditional jump to `target`.
    pub fn goto_(&mut self, target: BlockId) -> &mut Self {
        self.terminate(Terminator::Goto(target))
    }

    /// Pop two ints, branch on `a op b`.
    pub fn if_icmp(&mut self, op: CmpOp, then_: BlockId, else_: BlockId) -> &mut Self {
        self.terminate(Terminator::If {
            cond: Cond::ICmp(op),
            then_,
            else_,
        })
    }

    /// Pop one int, branch on `a op 0`.
    pub fn if_zero(&mut self, op: CmpOp, then_: BlockId, else_: BlockId) -> &mut Self {
        self.terminate(Terminator::If {
            cond: Cond::IZero(op),
            then_,
            else_,
        })
    }

    /// Pop one reference, branch to `then_` if null.
    pub fn if_null(&mut self, then_: BlockId, else_: BlockId) -> &mut Self {
        self.terminate(Terminator::If {
            cond: Cond::IsNull,
            then_,
            else_,
        })
    }

    /// Pop one reference, branch to `then_` if non-null.
    pub fn if_nonnull(&mut self, then_: BlockId, else_: BlockId) -> &mut Self {
        self.terminate(Terminator::If {
            cond: Cond::NonNull,
            then_,
            else_,
        })
    }

    /// Pop two references, branch to `then_` if identical.
    pub fn if_acmp_eq(&mut self, then_: BlockId, else_: BlockId) -> &mut Self {
        self.terminate(Terminator::If {
            cond: Cond::RefEq,
            then_,
            else_,
        })
    }

    /// Return void.
    pub fn return_(&mut self) -> &mut Self {
        self.terminate(Terminator::Return)
    }

    /// Return the stack top.
    pub fn return_value(&mut self) -> &mut Self {
        self.terminate(Terminator::ReturnValue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_simple_program() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Node");
        let next = pb.field(c, "next", Ty::Ref(c));
        let m = pb.method("link", vec![Ty::Ref(c), Ty::Ref(c)], None, 0, |mb| {
            let a = mb.local(0);
            let b = mb.local(1);
            mb.load(a).load(b).putfield(next).return_();
        });
        let p = pb.finish();
        p.validate().unwrap();
        assert_eq!(p.method(m).size, 4);
        assert_eq!(p.method(m).blocks.len(), 1);
    }

    #[test]
    fn allocation_sites_are_unique() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        pb.method("alloc2", vec![], None, 0, |mb| {
            mb.new_object(c).pop().new_object(c).pop().return_();
        });
        let p = pb.finish();
        let sites: Vec<_> = p.methods[0]
            .iter_insns()
            .filter_map(|(_, _, i)| i.allocation_site())
            .collect();
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0], sites[1]);
        assert_eq!(p.next_site, 2);
    }

    #[test]
    #[should_panic(expected = "no terminator")]
    fn unterminated_block_panics() {
        let mut pb = ProgramBuilder::new();
        pb.method("bad", vec![], None, 0, |mb| {
            mb.iconst(1).pop();
        });
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminator_panics() {
        let mut pb = ProgramBuilder::new();
        pb.method("bad", vec![], None, 0, |mb| {
            mb.return_().return_();
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn local_out_of_range_panics() {
        let mut pb = ProgramBuilder::new();
        pb.method("bad", vec![Ty::Int], None, 1, |mb| {
            let _ = mb.local(5);
            mb.return_();
        });
    }

    #[test]
    fn constructor_declaration() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Point");
        let ctor = pb.declare_constructor(c, vec![Ty::Int]);
        pb.define_method(ctor, 0, |mb| {
            mb.return_();
        });
        let p = pb.finish();
        let m = p.method(ctor);
        assert!(m.is_constructor);
        assert_eq!(m.owner, Some(c));
        assert_eq!(m.sig.params, vec![Ty::Ref(c), Ty::Int]);
        assert_eq!(m.name, "Point::<init>");
    }

    #[test]
    fn forward_declared_mutual_recursion() {
        let mut pb = ProgramBuilder::new();
        let even = pb.declare_method("even", vec![Ty::Int], Some(Ty::Int));
        let odd = pb.declare_method("odd", vec![Ty::Int], Some(Ty::Int));
        pb.define_method(even, 0, |mb| {
            let n = mb.local(0);
            let base = mb.new_block();
            let rec = mb.new_block();
            mb.load(n).if_zero(CmpOp::Eq, base, rec);
            mb.switch_to(base).iconst(1).return_value();
            mb.switch_to(rec)
                .load(n)
                .iconst(1)
                .sub()
                .invoke(odd)
                .return_value();
        });
        pb.define_method(odd, 0, |mb| {
            let n = mb.local(0);
            let base = mb.new_block();
            let rec = mb.new_block();
            mb.load(n).if_zero(CmpOp::Eq, base, rec);
            mb.switch_to(base).iconst(0).return_value();
            mb.switch_to(rec)
                .load(n)
                .iconst(1)
                .sub()
                .invoke(even)
                .return_value();
        });
        let p = pb.finish();
        p.validate().unwrap();
    }
}
