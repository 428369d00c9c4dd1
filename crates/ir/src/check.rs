//! The IR checker, this crate's stand-in for the JVM bytecode verifier.
//!
//! It gives the paper's analysis what the JVM verifier gives it: ids in
//! range, one operand-stack height at every program point (so stacks
//! merge "elementwise" at joins, §2.2), and typed slots. Integers and
//! references never mix, locals are written before they are read, heap
//! operations receive references, and returns match signatures.
//!
//! One frame walk per method checks all of it; a frame's stack length is
//! the height. The slot lattice is deliberately coarse, `Int` vs `Ref`:
//! the heap checks class tags dynamically and the analyses only care
//! about reference-ness. A local that holds different types on different
//! paths becomes `Conflict` at the join, and only *using* it is an error.
//!
//! Of several faults, the first of these is reported:
//! 1. a method's shape (no blocks, fewer locals than parameters);
//! 2. the first id or local out of range, in block order, reachable or
//!    not (instructions before branch targets);
//! 3. the first stack underflow, join-height mismatch or bad return;
//! 4. only then the first slot-type error.
//!
//! Each class is searched over every method before the next. So a type
//! error is recorded and the walk goes on, and an id error anywhere
//! outranks what the walk found.

use std::fmt;

use crate::ids::{BlockId, LocalId, MethodId};
use crate::insn::{Cond, Insn, Terminator};
use crate::method::{CodeLoc, InsnAddr, Method};
use crate::program::{Program, Ty};

/// Why [`Program::validate`] rejected a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// A method body is empty.
    EmptyMethod {
        /// Offending method.
        method: MethodId,
    },
    /// An id or local slot referenced by an instruction is out of range.
    BadId {
        /// Offending method.
        method: MethodId,
        /// Where the check failed.
        at: CodeLoc,
        /// What was out of range.
        what: String,
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
    /// A slot holds the wrong type for its use.
    Type {
        /// Offending method.
        method: MethodId,
        /// Where the check failed.
        at: CodeLoc,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::EmptyMethod { method } => write!(f, "method {method} has no blocks"),
            ValidateError::BadId { method, at, what } => {
                write!(f, "method {method} at {at}: {what} out of range")
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
            ValidateError::BadReturn { method, at, reason }
            | ValidateError::Type { method, at, reason } => {
                write!(f, "method {method} at {at}: {reason}")
            }
            ValidateError::TooFewLocals { method } => {
                write!(f, "method {method} declares fewer locals than parameters")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

type Checked<T = ()> = Result<T, ValidateError>;

/// [`Program::validate`] under the name it had when slot types were
/// checked apart.
pub fn type_check_program(program: &Program) -> Result<(), ValidateError> {
    program.validate()
}

/// Checks every method of `program`.
pub(crate) fn check_program(program: &Program) -> Result<(), ValidateError> {
    let mut type_error = None;
    for method in &program.methods {
        let found = check_method(program, method)?;
        type_error = type_error.or(found);
    }
    type_error.map_or(Ok(()), Err)
}

/// Checks one method: a structural fault is the `Err`, the first type
/// error the `Ok`.
fn check_method(program: &Program, method: &Method) -> Checked<Option<ValidateError>> {
    let mid = method.id;
    if method.blocks.is_empty() {
        return Err(ValidateError::EmptyMethod { method: mid });
    }
    if (method.num_locals as usize) < method.sig.params.len() {
        return Err(ValidateError::TooFewLocals { method: mid });
    }
    let mut checker = Checker {
        program,
        method,
        locals: method.num_locals as usize,
        type_error: None,
    };
    match checker.walk() {
        Ok(()) => Ok(checker.type_error),
        // An id out of range anywhere outranks the walk's fault.
        Err(e) => Err(check_ranges(program, method).err().unwrap_or(e)),
    }
}

/// Fails with the first id or local out of range: every instruction in
/// block order, then every branch target in block order.
fn check_ranges(program: &Program, method: &Method) -> Checked {
    for (bid, idx, insn) in method.iter_insns() {
        let at = CodeLoc::Insn(InsnAddr::new(bid, idx));
        check_ids(program, method, at, insn)?;
    }
    for (bid, block) in method.iter_blocks() {
        check_targets(method, bid, &block.term)?;
    }
    Ok(())
}

fn check_ids(program: &Program, method: &Method, at: CodeLoc, insn: &Insn) -> Checked {
    let what = match *insn {
        Insn::Load(l) | Insn::Store(l) | Insn::IInc(l, _) if l.0 >= method.num_locals => {
            format!("local {l}")
        }
        Insn::GetField(fi) | Insn::PutField(fi) if fi.index() >= program.fields.len() => {
            format!("field {fi}")
        }
        Insn::GetStatic(s) | Insn::PutStatic(s) if s.index() >= program.statics.len() => {
            format!("static {s}")
        }
        Insn::New { class, .. } | Insn::NewRefArray { class, .. }
            if class.index() >= program.classes.len() =>
        {
            format!("class {class}")
        }
        Insn::Invoke(m) if m.index() >= program.methods.len() => format!("method {m}"),
        _ => return Ok(()),
    };
    Err(ValidateError::BadId {
        method: method.id,
        at,
        what,
    })
}

fn check_targets(method: &Method, bid: BlockId, term: &Terminator) -> Checked {
    match term.successors().find(|s| s.index() >= method.blocks.len()) {
        Some(succ) => Err(ValidateError::BadId {
            method: method.id,
            at: CodeLoc::Term(bid),
            what: format!("branch target {succ}"),
        }),
        None => Ok(()),
    }
}

/// The checker's slot types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VType {
    /// 64-bit integer.
    Int,
    /// Reference (object, array, or null).
    Ref,
    /// Local not yet written on some path.
    Unset,
    /// Local holding different types on different paths.
    Conflict,
}

impl VType {
    fn merge(self, other: VType) -> VType {
        if self == other {
            self
        } else {
            VType::Conflict
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

/// A method's locals, then its operand stack, bottom first.
type Frame = Vec<VType>;

/// Merges `from` into `into` slot by slot; returns whether `into`
/// changed.
fn merge(into: &mut Frame, from: &Frame) -> bool {
    let mut changed = false;
    for (a, &b) in into.iter_mut().zip(from) {
        let m = a.merge(b);
        changed |= m != *a;
        *a = m;
    }
    changed
}

struct Checker<'p> {
    program: &'p Program,
    method: &'p Method,
    /// How many of a frame's slots are locals.
    locals: usize,
    /// The first type error, in walk order.
    type_error: Option<ValidateError>,
}

impl Checker<'_> {
    /// The frame walk: returns the first structural fault it meets, and
    /// records the first type error and goes on.
    fn walk(&mut self) -> Checked {
        let method = self.method;
        let mut entry: Vec<Option<Frame>> = vec![None; method.blocks.len()];
        let mut start = vec![VType::Unset; self.locals];
        for (slot, &p) in start.iter_mut().zip(&method.sig.params) {
            *slot = VType::of(p);
        }
        entry[0] = Some(start);
        let mut frame = Frame::new();
        let mut worklist = vec![BlockId(0)];
        while let Some(bid) = worklist.pop() {
            frame.clone_from(entry[bid.index()].as_ref().expect("worklist ⇒ state"));
            let block = method.block(bid);
            for (idx, insn) in block.insns.iter().enumerate() {
                self.check_insn(&mut frame, CodeLoc::Insn(InsnAddr::new(bid, idx)), insn)?;
            }
            check_targets(method, bid, &block.term)?;
            self.check_term(&mut frame, CodeLoc::Term(bid), &block.term)?;
            for succ in block.term.successors() {
                match &mut entry[succ.index()] {
                    slot @ None => {
                        *slot = Some(frame.clone());
                        worklist.push(succ);
                    }
                    Some(seen) if seen.len() != frame.len() => {
                        return Err(ValidateError::InconsistentStackHeight {
                            method: method.id,
                            block: succ,
                            expected: seen.len() - self.locals,
                            found: frame.len() - self.locals,
                        });
                    }
                    Some(seen) => {
                        if merge(seen, &frame) {
                            worklist.push(succ);
                        }
                    }
                }
            }
        }
        // Blocks no path reaches still get their range check.
        if entry.iter().any(Option::is_none) {
            check_ranges(self.program, method)?;
        }
        Ok(())
    }

    fn type_error(&mut self, at: CodeLoc, reason: impl FnOnce() -> String) {
        if self.type_error.is_none() {
            let method = self.method.id;
            let reason = reason();
            self.type_error = Some(ValidateError::Type { method, at, reason });
        }
    }

    fn pop_any(&self, f: &mut Frame, at: CodeLoc) -> Checked<VType> {
        let method = self.method.id;
        let underflow = || ValidateError::StackUnderflow { method, at };
        let top = if f.len() > self.locals { f.pop() } else { None };
        top.ok_or_else(underflow)
    }

    fn expect(&mut self, at: CodeLoc, want: VType, got: VType) {
        if got != want {
            self.type_error(at, || format!("expected {want:?} operand, found {got:?}"));
        }
    }

    /// Pops one operand of each type in `pops`, top of stack first, then
    /// pushes `push`.
    fn op(&mut self, f: &mut Frame, at: CodeLoc, pops: &[VType], push: Option<VType>) -> Checked {
        for &want in pops {
            let got = self.pop_any(f, at)?;
            self.expect(at, want, got);
        }
        f.extend(push);
        Ok(())
    }

    /// `table[i]`, `i` being one of `insn`'s ids: the walk's range check.
    fn lookup<'t, T>(&self, table: &'t [T], i: usize, at: CodeLoc, insn: &Insn) -> Checked<&'t T> {
        let out_of_range =
            || check_ids(self.program, self.method, at, insn).expect_err("id out of range");
        table.get(i).ok_or_else(out_of_range)
    }

    fn load_local(&mut self, f: &Frame, at: CodeLoc, insn: &Insn, l: LocalId) -> Checked<VType> {
        let t = *self.lookup(&f[..self.locals], l.index(), at, insn)?;
        match t {
            VType::Unset => self.type_error(at, || format!("read of uninitialized local {l}")),
            VType::Conflict => self.type_error(at, || {
                format!("read of type-conflicting local {l} (int on one path, ref on another)")
            }),
            VType::Int | VType::Ref => {}
        }
        Ok(t)
    }

    fn check_insn(&mut self, f: &mut Frame, at: CodeLoc, insn: &Insn) -> Checked {
        use VType::{Int, Ref};
        let program = self.program;
        match *insn {
            Insn::Const(_) => f.push(Int),
            Insn::ConstNull => f.push(Ref),
            Insn::Load(l) => {
                let t = self.load_local(f, at, insn, l)?;
                f.push(t);
            }
            Insn::Store(l) => {
                self.lookup(&f[..self.locals], l.index(), at, insn)?;
                f[l.index()] = self.pop_any(f, at)?;
            }
            Insn::IInc(l, _) => {
                if self.load_local(f, at, insn, l)? != Int {
                    self.type_error(at, || format!("iinc on non-int local {l}"));
                }
            }
            Insn::Dup => {
                let t = self.pop_any(f, at)?;
                f.extend([t, t]);
            }
            Insn::DupX1 => {
                let (b, a) = (self.pop_any(f, at)?, self.pop_any(f, at)?);
                f.extend([b, a, b]);
            }
            Insn::Pop => {
                self.pop_any(f, at)?;
            }
            Insn::Swap => {
                let (b, a) = (self.pop_any(f, at)?, self.pop_any(f, at)?);
                f.extend([b, a]);
            }
            Insn::Add | Insn::Sub | Insn::Mul | Insn::Div | Insn::Rem => {
                self.op(f, at, &[Int, Int], Some(Int))?;
            }
            Insn::And | Insn::Or | Insn::Xor | Insn::Shl | Insn::Shr => {
                self.op(f, at, &[Int, Int], Some(Int))?;
            }
            Insn::Neg => self.op(f, at, &[Int], Some(Int))?,
            Insn::GetField(fd) => {
                let ty = self.lookup(&program.fields, fd.index(), at, insn)?.ty;
                self.op(f, at, &[Ref], Some(VType::of(ty)))?;
            }
            Insn::PutField(fd) => {
                let ty = self.lookup(&program.fields, fd.index(), at, insn)?.ty;
                self.op(f, at, &[VType::of(ty), Ref], None)?;
            }
            Insn::GetStatic(s) => {
                let ty = self.lookup(&program.statics, s.index(), at, insn)?.ty;
                f.push(VType::of(ty));
            }
            Insn::PutStatic(s) => {
                let ty = self.lookup(&program.statics, s.index(), at, insn)?.ty;
                self.op(f, at, &[VType::of(ty)], None)?;
            }
            Insn::AaLoad => self.op(f, at, &[Int, Ref], Some(Ref))?,
            Insn::AaStore => self.op(f, at, &[Ref, Int, Ref], None)?,
            Insn::IaLoad => self.op(f, at, &[Int, Ref], Some(Int))?,
            Insn::IaStore => self.op(f, at, &[Int, Int, Ref], None)?,
            Insn::ArrayLength => self.op(f, at, &[Ref], Some(Int))?,
            Insn::New { class, .. } => {
                self.lookup(&program.classes, class.index(), at, insn)?;
                f.push(Ref);
            }
            Insn::NewRefArray { class, .. } => {
                self.lookup(&program.classes, class.index(), at, insn)?;
                self.op(f, at, &[Int], Some(Ref))?;
            }
            Insn::NewIntArray { .. } => self.op(f, at, &[Int], Some(Ref))?,
            Insn::Invoke(m) => {
                let sig = &self.lookup(&program.methods, m.index(), at, insn)?.sig;
                for &pty in sig.params.iter().rev() {
                    self.op(f, at, &[VType::of(pty)], None)?;
                }
                f.extend(sig.ret.map(VType::of));
            }
        }
        Ok(())
    }

    fn check_term(&mut self, f: &mut Frame, at: CodeLoc, term: &Terminator) -> Checked {
        use VType::{Int, Ref};
        let method = self.method.id;
        let bad_return = |reason: String| Err(ValidateError::BadReturn { method, at, reason });
        match term {
            Terminator::Goto(_) => Ok(()),
            Terminator::If { cond, .. } => match cond {
                Cond::ICmp(_) => self.op(f, at, &[Int, Int], None),
                Cond::IZero(_) => self.op(f, at, &[Int], None),
                Cond::IsNull | Cond::NonNull => self.op(f, at, &[Ref], None),
                Cond::RefEq | Cond::RefNe => self.op(f, at, &[Ref, Ref], None),
            },
            Terminator::Return if self.method.sig.ret.is_some() => {
                bad_return("void return in method with a return type".into())
            }
            Terminator::Return => match f.len() - self.locals {
                0 => Ok(()),
                n => bad_return(format!("{n} operands left on stack at return")),
            },
            Terminator::ReturnValue => {
                let got = self.pop_any(f, at)?;
                let Some(ret) = self.method.sig.ret else {
                    return bad_return("value return in void method".into());
                };
                self.expect(at, VType::of(ret), got);
                match f.len() - self.locals {
                    0 => Ok(()),
                    n => bad_return(format!("{n} extra operands on stack at return")),
                }
            }
        }
    }
}
