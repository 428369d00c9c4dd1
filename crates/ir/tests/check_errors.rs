//! Every message the two IR checkers can reject a program with.
//!
//! `check_errors.golden` pins the `Display` of each `ValidateError`
//! variant and each `TypeError` reason: at an instruction, at a
//! terminator, and in a block no path reaches (where `validate` still
//! checks ids and `type_check` checks nothing). Each line is one case:
//! its name, then what `validate_program` and `type_check_program` said.
//! `type_check` runs only on cases whose ids are in range, as it assumes
//! they are.

use wbe_ir::builder::ProgramBuilder;
use wbe_ir::{
    type_check_program, Block, BlockId, ClassId, CmpOp, Cond, FieldId, Insn, LocalId, Method,
    MethodId, MethodSig, Program, SiteId, StaticId, Terminator, Ty,
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

/// (name, program, whether `type_check` may run on it).
fn cases() -> Vec<(&'static str, Program, bool)> {
    let new = New {
        class: ClassId(0),
        site: SiteId(0),
    };
    vec![
        ("well-formed", void(0, vec![new, Pop], Return), true),
        ("empty-method", program(vec![], None, 0, vec![]), false),
        ("too-few-locals", too_few_locals(), false),
        (
            "bad-field-at-insn",
            void(0, vec![new, GetField(FieldId(9)), Pop], Return),
            false,
        ),
        (
            "bad-static-at-insn",
            void(0, vec![GetStatic(StaticId(7))], Return),
            false,
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
            false,
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
            false,
        ),
        (
            "bad-method-at-insn",
            void(0, vec![Invoke(MethodId(4))], Return),
            false,
        ),
        (
            "bad-local-at-insn",
            void(1, vec![Load(LocalId(3)), Pop], Return),
            false,
        ),
        (
            "bad-iinc-local-at-insn",
            void(1, vec![IInc(LocalId(2), 1)], Return),
            false,
        ),
        (
            "bad-branch-target-at-term",
            void(0, vec![], Goto(BlockId(9))),
            false,
        ),
        (
            "bad-field-in-unreachable-block",
            with_dead_block(Block::new(vec![PutField(FieldId(4))], Return)),
            false,
        ),
        (
            "bad-local-in-unreachable-block",
            with_dead_block(Block::new(vec![Store(LocalId(8))], Return)),
            false,
        ),
        (
            "bad-branch-target-in-unreachable-block",
            with_dead_block(Block::new(vec![], Goto(BlockId(3)))),
            false,
        ),
        (
            "underflow-in-unreachable-block",
            with_dead_block(Block::new(vec![Pop, Add], ReturnValue)),
            true,
        ),
        (
            "underflow-at-insn",
            void(0, vec![Const(1), Add], Return),
            true,
        ),
        (
            "underflow-at-second-insn",
            void(0, vec![Const(1), Pop, Pop], Return),
            true,
        ),
        ("underflow-dup-at-insn", void(0, vec![Dup], Return), true),
        (
            "underflow-swap-at-insn",
            void(0, vec![Const(1), Swap], Return),
            true,
        ),
        (
            "underflow-at-term",
            void(0, vec![], if_(Cond::IZero(CmpOp::Eq), 0, 0)),
            true,
        ),
        (
            "underflow-at-return-value",
            program(
                vec![],
                Some(Ty::Int),
                0,
                vec![Block::new(vec![], ReturnValue)],
            ),
            true,
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
            true,
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
            true,
        ),
        (
            "void-return-with-type",
            program(vec![], Some(Ty::Int), 0, vec![Block::new(vec![], Return)]),
            true,
        ),
        (
            "operands-left-at-return",
            void(0, vec![Const(1), Const(2)], Return),
            true,
        ),
        (
            "value-return-in-void",
            void(0, vec![Const(1)], ReturnValue),
            true,
        ),
        (
            "extra-operands-at-return-value",
            program(
                vec![],
                Some(Ty::Int),
                0,
                vec![Block::new(vec![Const(1), Const(2)], ReturnValue)],
            ),
            true,
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
            true,
        ),
        (
            "ref-into-int-static",
            void(0, vec![ConstNull, PutStatic(StaticId(1))], Return),
            true,
        ),
        (
            "getfield-on-int",
            void(0, vec![Const(1), GetField(FieldId(1)), Pop], Return),
            true,
        ),
        (
            "arith-on-ref",
            void(0, vec![Const(1), ConstNull, Add, Pop], Return),
            true,
        ),
        (
            "neg-on-ref",
            void(0, vec![ConstNull, Neg, Pop], Return),
            true,
        ),
        (
            "aastore-int-array",
            void(0, vec![Const(1), Const(0), ConstNull, AaStore], Return),
            true,
        ),
        (
            "iaload-ref-index",
            void(0, vec![ConstNull, ConstNull, IaLoad, Pop], Return),
            true,
        ),
        (
            "arraylength-of-int",
            void(0, vec![Const(3), ArrayLength, Pop], Return),
            true,
        ),
        (
            "newarray-ref-length",
            void(
                0,
                vec![ConstNull, NewIntArray { site: SiteId(0) }, Pop],
                Return,
            ),
            true,
        ),
        (
            "invoke-swapped-args",
            void(
                0,
                vec![Const(1), ConstNull, Invoke(MethodId(0)), Pop],
                Return,
            ),
            true,
        ),
        (
            "read-uninitialized-local",
            void(1, vec![Load(LocalId(0)), Pop], Return),
            true,
        ),
        (
            "iinc-uninitialized-local",
            void(1, vec![IInc(LocalId(0), 1)], Return),
            true,
        ),
        (
            "iinc-ref-local",
            void(
                1,
                vec![ConstNull, Store(LocalId(0)), IInc(LocalId(0), 1)],
                Return,
            ),
            true,
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
            true,
        ),
        (
            "ifnull-on-int",
            void(0, vec![Const(1)], if_(Cond::IsNull, 0, 0)),
            true,
        ),
        (
            "icmp-on-refs",
            void(
                0,
                vec![ConstNull, ConstNull],
                if_(Cond::ICmp(CmpOp::Lt), 0, 0),
            ),
            true,
        ),
        (
            "acmp-on-ints",
            void(0, vec![Const(1), Const(2)], if_(Cond::RefEq, 0, 0)),
            true,
        ),
        (
            "return-ref-as-int",
            program(
                vec![ref_c()],
                Some(Ty::Int),
                0,
                vec![Block::new(vec![Load(LocalId(0))], ReturnValue)],
            ),
            true,
        ),
    ]
}

fn verdict<E: std::fmt::Display>(r: Result<(), E>) -> String {
    match r {
        Ok(()) => "ok".to_string(),
        Err(e) => e.to_string(),
    }
}

fn render() -> String {
    let mut out = String::new();
    for (name, p, typed) in cases() {
        out.push_str(&format!("{name}\n  validate: {}\n", verdict(p.validate())));
        if typed {
            out.push_str(&format!(
                "  type_check: {}\n",
                verdict(type_check_program(&p))
            ));
        }
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
