//! Every message the IR checker can reject a program with.
//!
//! `check_errors.golden` pins the `Display` of each `ValidateError`
//! variant and each type error's reason: at an instruction, at a
//! terminator, and in a block no path reaches (where only ids are
//! checked). Each case is its name, then what `Program::validate` said.
//! The cases with two faults pin which one is reported.

use wbe_ir::builder::ProgramBuilder;
use wbe_ir::{
    Block, BlockId, ClassId, CmpOp, Cond, FieldId, Insn, LocalId, Method, MethodId, MethodSig,
    Program, SiteId, StaticId, Terminator, Ty,
};

use Insn::*;
use Terminator::{Goto, Return, ReturnValue};

/// A program with class `C` (fields `f0: ref`, `f1: int`), statics
/// `g0: ref` and `g1: int`, a callee `m0(ref, int) -> int`, and the
/// method under test as `m1` with `extra` locals beyond its parameters.
fn program(params: Vec<Ty>, ret: Option<Ty>, extra: u16, blocks: Vec<Block>) -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C");
    pb.field(c, "r", Ty::Ref(c));
    pb.field(c, "i", Ty::Int);
    pb.static_field("g", Ty::Ref(c));
    pb.static_field("n", Ty::Int);
    pb.method(
        "callee",
        vec![Ty::Ref(c), Ty::Int],
        Some(Ty::Int),
        0,
        |mb| {
            mb.iconst(0).return_value();
        },
    );
    let mut p = pb.finish();
    let num_locals = params.len() as u16 + extra;
    let mut m = Method {
        id: MethodId(1),
        name: "under_test".into(),
        sig: MethodSig::new(params, ret),
        owner: None,
        is_constructor: false,
        num_locals,
        blocks,
        size: 0,
    };
    m.refresh_size();
    p.methods.push(m);
    p
}

/// A void method without parameters and with one block.
fn void(locals: u16, insns: Vec<Insn>, term: Terminator) -> Program {
    program(vec![], None, locals, vec![Block::new(insns, term)])
}

fn ref_c() -> Ty {
    Ty::Ref(ClassId(0))
}

fn if_(cond: Cond, then_: u32, else_: u32) -> Terminator {
    Terminator::If {
        cond,
        then_: BlockId(then_),
        else_: BlockId(else_),
    }
}

/// A reachable entry returning void, plus `dead` as block 1.
fn with_dead_block(dead: Block) -> Program {
    program(vec![], None, 1, vec![Block::new(vec![], Return), dead])
}

/// One `int` parameter and no local slot to receive it.
fn too_few_locals() -> Program {
    let mut p = program(vec![Ty::Int], None, 0, vec![Block::new(vec![], Return)]);
    p.methods[1].num_locals = 0;
    p
}

/// (name, program).
fn cases() -> Vec<(&'static str, Program)> {
    let new = New {
        class: ClassId(0),
        site: SiteId(0),
    };
    vec![
        ("well-formed", void(0, vec![new, Pop], Return)),
        ("empty-method", program(vec![], None, 0, vec![])),
        ("too-few-locals", too_few_locals()),
        (
            "bad-field-at-insn",
            void(0, vec![new, GetField(FieldId(9)), Pop], Return),
        ),
        (
            "bad-static-at-insn",
            void(0, vec![GetStatic(StaticId(7))], Return),
        ),
        (
            "bad-class-at-insn",
            void(
                0,
                vec![
                    New {
                        class: ClassId(5),
                        site: SiteId(0),
                    },
                    Pop,
                ],
                Return,
            ),
        ),
        (
            "bad-array-class-at-insn",
            void(
                0,
                vec![
                    Const(1),
                    NewRefArray {
                        class: ClassId(6),
                        site: SiteId(0),
                    },
                    Pop,
                ],
                Return,
            ),
        ),
        (
            "bad-method-at-insn",
            void(0, vec![Invoke(MethodId(4))], Return),
        ),
        (
            "bad-local-at-insn",
            void(1, vec![Load(LocalId(3)), Pop], Return),
        ),
        (
            "bad-iinc-local-at-insn",
            void(1, vec![IInc(LocalId(2), 1)], Return),
        ),
        (
            "bad-branch-target-at-term",
            void(0, vec![], Goto(BlockId(9))),
        ),
        (
            "bad-field-in-unreachable-block",
            with_dead_block(Block::new(vec![PutField(FieldId(4))], Return)),
        ),
        (
            "bad-local-in-unreachable-block",
            with_dead_block(Block::new(vec![Store(LocalId(8))], Return)),
        ),
        (
            "bad-branch-target-in-unreachable-block",
            with_dead_block(Block::new(vec![], Goto(BlockId(3)))),
        ),
        (
            "underflow-in-unreachable-block",
            with_dead_block(Block::new(vec![Pop, Add], ReturnValue)),
        ),
        ("underflow-at-insn", void(0, vec![Const(1), Add], Return)),
        (
            "underflow-at-second-insn",
            void(0, vec![Const(1), Pop, Pop], Return),
        ),
        ("underflow-dup-at-insn", void(0, vec![Dup], Return)),
        (
            "underflow-swap-at-insn",
            void(0, vec![Const(1), Swap], Return),
        ),
        (
            "underflow-at-term",
            void(0, vec![], if_(Cond::IZero(CmpOp::Eq), 0, 0)),
        ),
        (
            "underflow-at-return-value",
            program(
                vec![],
                Some(Ty::Int),
                0,
                vec![Block::new(vec![], ReturnValue)],
            ),
        ),
        (
            "underflow-in-later-block",
            program(
                vec![],
                None,
                0,
                vec![
                    Block::new(vec![], Goto(BlockId(1))),
                    Block::new(vec![Pop], Return),
                ],
            ),
        ),
        (
            "inconsistent-join",
            program(
                vec![Ty::Int],
                Some(Ty::Int),
                0,
                vec![
                    Block::new(vec![Load(LocalId(0))], if_(Cond::IZero(CmpOp::Eq), 1, 2)),
                    Block::new(vec![Const(1), Const(2)], Goto(BlockId(3))),
                    Block::new(vec![Const(3)], Goto(BlockId(3))),
                    Block::new(vec![], ReturnValue),
                ],
            ),
        ),
        (
            "void-return-with-type",
            program(vec![], Some(Ty::Int), 0, vec![Block::new(vec![], Return)]),
        ),
        (
            "operands-left-at-return",
            void(0, vec![Const(1), Const(2)], Return),
        ),
        ("value-return-in-void", void(0, vec![Const(1)], ReturnValue)),
        (
            "extra-operands-at-return-value",
            program(
                vec![],
                Some(Ty::Int),
                0,
                vec![Block::new(vec![Const(1), Const(2)], ReturnValue)],
            ),
        ),
        (
            "int-into-ref-field",
            program(
                vec![ref_c()],
                None,
                0,
                vec![Block::new(
                    vec![Load(LocalId(0)), Const(1), PutField(FieldId(0))],
                    Return,
                )],
            ),
        ),
        (
            "ref-into-int-static",
            void(0, vec![ConstNull, PutStatic(StaticId(1))], Return),
        ),
        (
            "getfield-on-int",
            void(0, vec![Const(1), GetField(FieldId(1)), Pop], Return),
        ),
        (
            "arith-on-ref",
            void(0, vec![Const(1), ConstNull, Add, Pop], Return),
        ),
        ("neg-on-ref", void(0, vec![ConstNull, Neg, Pop], Return)),
        (
            "aastore-int-array",
            void(0, vec![Const(1), Const(0), ConstNull, AaStore], Return),
        ),
        (
            "iaload-ref-index",
            void(0, vec![ConstNull, ConstNull, IaLoad, Pop], Return),
        ),
        (
            "arraylength-of-int",
            void(0, vec![Const(3), ArrayLength, Pop], Return),
        ),
        (
            "newarray-ref-length",
            void(
                0,
                vec![ConstNull, NewIntArray { site: SiteId(0) }, Pop],
                Return,
            ),
        ),
        (
            "invoke-swapped-args",
            void(
                0,
                vec![Const(1), ConstNull, Invoke(MethodId(0)), Pop],
                Return,
            ),
        ),
        (
            "underflow-at-invoke",
            void(0, vec![Const(1), Invoke(MethodId(0)), Pop], Return),
        ),
        (
            "read-uninitialized-local",
            void(1, vec![Load(LocalId(0)), Pop], Return),
        ),
        (
            "iinc-uninitialized-local",
            void(1, vec![IInc(LocalId(0), 1)], Return),
        ),
        (
            "iinc-ref-local",
            void(
                1,
                vec![ConstNull, Store(LocalId(0)), IInc(LocalId(0), 1)],
                Return,
            ),
        ),
        (
            "read-conflicting-local",
            program(
                vec![Ty::Int],
                None,
                1,
                vec![
                    Block::new(vec![Load(LocalId(0))], if_(Cond::IZero(CmpOp::Eq), 1, 2)),
                    Block::new(vec![Const(1), Store(LocalId(1))], Goto(BlockId(3))),
                    Block::new(vec![ConstNull, Store(LocalId(1))], Goto(BlockId(3))),
                    Block::new(vec![Load(LocalId(1)), Pop], Return),
                ],
            ),
        ),
        (
            "ifnull-on-int",
            void(0, vec![Const(1)], if_(Cond::IsNull, 0, 0)),
        ),
        (
            "icmp-on-refs",
            void(
                0,
                vec![ConstNull, ConstNull],
                if_(Cond::ICmp(CmpOp::Lt), 0, 0),
            ),
        ),
        (
            "acmp-on-ints",
            void(0, vec![Const(1), Const(2)], if_(Cond::RefEq, 0, 0)),
        ),
        (
            "return-ref-as-int",
            program(
                vec![ref_c()],
                Some(Ty::Int),
                0,
                vec![Block::new(vec![Load(LocalId(0))], ReturnValue)],
            ),
        ),
        // Two errors in one method: the pins of which one is reported.
        (
            "bad-static-in-later-block-after-underflow",
            program(
                vec![],
                None,
                0,
                vec![
                    Block::new(vec![Pop], Goto(BlockId(1))),
                    Block::new(vec![GetStatic(StaticId(7)), Pop], Return),
                ],
            ),
        ),
        (
            "bad-field-in-later-block-after-bad-branch-target",
            program(
                vec![],
                None,
                0,
                vec![
                    Block::new(vec![], Goto(BlockId(9))),
                    Block::new(vec![GetField(FieldId(9))], Return),
                ],
            ),
        ),
        (
            "underflow-after-type-error",
            void(0, vec![ConstNull, Neg, Pop, Pop], Return),
        ),
        (
            "inconsistent-join-after-type-error",
            program(
                vec![Ty::Int],
                Some(Ty::Int),
                0,
                vec![
                    Block::new(vec![Load(LocalId(0))], if_(Cond::IZero(CmpOp::Eq), 1, 2)),
                    Block::new(vec![Const(1), Const(2)], Goto(BlockId(3))),
                    Block::new(vec![ConstNull, Neg], Goto(BlockId(3))),
                    Block::new(vec![], ReturnValue),
                ],
            ),
        ),
        (
            "void-return-with-type-after-type-error",
            program(
                vec![],
                Some(Ty::Int),
                0,
                vec![Block::new(vec![ConstNull, Neg, Pop], Return)],
            ),
        ),
    ]
}

fn render() -> String {
    let mut out = String::new();
    for (name, p) in cases() {
        let verdict = p
            .validate()
            .map_or_else(|e| e.to_string(), |()| "ok".into());
        out.push_str(&format!("{name}\n  validate: {verdict}\n"));
    }
    out
}

#[test]
fn checker_messages_match_the_golden_file() {
    let golden = include_str!("check_errors.golden");
    let actual = render();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("check_errors.actual");
        std::fs::write(&path, &actual).expect("scratch directory is writable");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "checker output differs from check_errors.golden at line {}; \
             what this run produced is in {}",
            line + 1,
            path.display()
        );
    }
}
