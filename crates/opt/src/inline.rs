//! Size-budgeted method inlining.
//!
//! The paper's analyses run *after inlining*: a non-inlined call makes
//! its reference arguments escape, and in particular a non-inlined
//! constructor makes every allocation escape immediately (§2.4). The
//! "inline limit" parameter — the maximum bytecode size of an inlined
//! method — is the x-axis of Figure 2.
//!
//! Inlining stack bytecode is simple because callee blocks see the
//! caller's operand stack only above a fixed base: arguments are popped
//! into fresh caller locals, callee blocks are spliced in with offsets,
//! and returns become jumps to the split-off continuation (a value
//! return simply leaves the value on the shared stack).

use wbe_ir::{Block, BlockId, Insn, LocalId, MethodId, Program, Terminator};

/// Whole-method inline passes per method (bounds nested inlining
/// depth).
const MAX_PASSES: usize = 4;

/// A method stops growing once it exceeds this multiple of its original
/// size (plus a fixed allowance of 256).
const GROWTH_FACTOR: usize = 12;

/// Inlining parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InlineConfig {
    /// Maximum bytecode size (instruction count) of an inlined callee —
    /// the paper's inline-limit knob. Zero disables inlining.
    pub limit: usize,
}

impl Default for InlineConfig {
    fn default() -> Self {
        InlineConfig { limit: 100 }
    }
}

impl InlineConfig {
    /// Config with the given limit.
    pub fn with_limit(limit: usize) -> Self {
        InlineConfig { limit }
    }
}

/// Statistics from an inlining run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InlineStats {
    /// Call sites expanded.
    pub inlined_calls: usize,
    /// Call sites skipped because the callee exceeded the limit.
    pub skipped_too_big: usize,
    /// Call sites skipped because of recursion or growth bounds.
    pub skipped_recursive: usize,
}

/// Inlines eligible call sites across the whole program, returning the
/// transformed program and statistics. Inlined allocation sites get
/// fresh ids so the analysis sees one abstract site pair per inlined
/// copy.
pub fn inline_program(program: &Program, config: InlineConfig) -> (Program, InlineStats) {
    let _span = wbe_telemetry::span!("opt.inline", "limit {}", config.limit);
    let mut out = program.clone();
    let mut stats = InlineStats::default();
    if config.limit == 0 {
        return (out, stats);
    }
    // Callee bodies come from the original program, like a JIT inlining
    // bytecode (not already-inlined copies). Only `out` is written, so
    // the input itself is that snapshot.
    let snapshot = program;
    for mid in 0..out.methods.len() {
        let mid = MethodId::from_index(mid);
        let original_size = snapshot.method(mid).size.max(1);
        let max_size = original_size * GROWTH_FACTOR + 256;
        for _pass in 0..MAX_PASSES {
            let mut any = false;
            loop {
                let site = find_eligible_call(&out, mid, snapshot, config, max_size, &mut stats);
                let Some((bid, idx, callee)) = site else {
                    break;
                };
                inline_call_site(&mut out, mid, bid, idx, snapshot, callee);
                stats.inlined_calls += 1;
                any = true;
            }
            if !any {
                break;
            }
        }
    }
    wbe_telemetry::counter("opt.inline.inlined_calls").add(stats.inlined_calls as u64);
    wbe_telemetry::counter("opt.inline.skipped_too_big").add(stats.skipped_too_big as u64);
    wbe_telemetry::counter("opt.inline.skipped_recursive").add(stats.skipped_recursive as u64);
    (out, stats)
}

/// Finds the first call site in `caller` eligible for inlining.
fn find_eligible_call(
    out: &Program,
    caller: MethodId,
    snapshot: &Program,
    config: InlineConfig,
    max_size: usize,
    stats: &mut InlineStats,
) -> Option<(BlockId, usize, MethodId)> {
    let m = out.method(caller);
    if m.compute_size() > max_size {
        return None;
    }
    for (bid, block) in m.iter_blocks() {
        for (idx, insn) in block.insns.iter().enumerate() {
            let Insn::Invoke(callee) = insn else {
                continue;
            };
            if *callee == caller {
                stats.skipped_recursive += 1;
                continue;
            }
            let cm = snapshot.method(*callee);
            if cm.blocks.is_empty() {
                continue; // undefined body (should not happen)
            }
            if cm.size > config.limit {
                stats.skipped_too_big += 1;
                continue;
            }
            return Some((bid, idx, *callee));
        }
    }
    None
}

/// Expands one call site in place.
fn inline_call_site(
    out: &mut Program,
    caller_id: MethodId,
    bid: BlockId,
    idx: usize,
    snapshot: &Program,
    callee_id: MethodId,
) {
    let callee = snapshot.method(callee_id);
    let nparams = callee.sig.params.len();

    // Fresh allocation sites for the inlined copy.
    let mut site_map = std::collections::HashMap::new();
    for (_, _, insn) in callee.iter_insns() {
        if let Some(s) = insn.allocation_site() {
            site_map.entry(s).or_insert_with(|| out.fresh_site());
        }
    }

    let caller = out.method_mut(caller_id);
    let locals_base = caller.num_locals;
    caller.num_locals += callee.num_locals;

    let block_base = caller.blocks.len();
    // Callee block k → caller block block_base + k.
    // The continuation (post) block → block_base + callee.blocks.len().
    let post_id = BlockId::from_index(block_base + callee.blocks.len());

    let split = &mut caller.blocks[bid.index()];
    let post_insns: Vec<Insn> = split.insns.split_off(idx + 1);
    let invoke = split.insns.pop();
    debug_assert!(matches!(invoke, Some(Insn::Invoke(_))));
    let orig_term = split.term;

    // Pre block: pop arguments into the callee's parameter locals
    // (stack top is the last parameter), then jump to the callee entry.
    for i in (0..nparams).rev() {
        split
            .insns
            .push(Insn::Store(LocalId(locals_base + i as u16)));
    }
    split.term = Terminator::Goto(BlockId::from_index(block_base));

    // Spliced callee blocks.
    for cb in &callee.blocks {
        let insns = cb
            .insns
            .iter()
            .map(|insn| remap_insn(insn, locals_base, &site_map))
            .collect();
        let term = match cb.term {
            Terminator::Goto(t) => Terminator::Goto(BlockId::from_index(block_base + t.index())),
            Terminator::If { cond, then_, else_ } => Terminator::If {
                cond,
                then_: BlockId::from_index(block_base + then_.index()),
                else_: BlockId::from_index(block_base + else_.index()),
            },
            // Returns become jumps to the continuation; a returned value
            // is already on the shared operand stack.
            Terminator::Return | Terminator::ReturnValue => Terminator::Goto(post_id),
        };
        caller.blocks.push(Block::new(insns, term));
    }

    // Continuation block.
    caller.blocks.push(Block::new(post_insns, orig_term));
    caller.refresh_size();
}

fn remap_insn(
    insn: &Insn,
    locals_base: u16,
    site_map: &std::collections::HashMap<wbe_ir::SiteId, wbe_ir::SiteId>,
) -> Insn {
    match *insn {
        Insn::Load(l) => Insn::Load(LocalId(locals_base + l.0)),
        Insn::Store(l) => Insn::Store(LocalId(locals_base + l.0)),
        Insn::IInc(l, d) => Insn::IInc(LocalId(locals_base + l.0), d),
        Insn::New { class, site } => Insn::New {
            class,
            site: site_map[&site],
        },
        Insn::NewRefArray { class, site } => Insn::NewRefArray {
            class,
            site: site_map[&site],
        },
        Insn::NewIntArray { site } => Insn::NewIntArray {
            site: site_map[&site],
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_interp_test_util::run_both;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::{CmpOp, Ty};

    /// Helper: run a method in original and inlined program, compare.
    mod wbe_interp_test_util {
        use super::*;

        pub fn run_both(
            p: &Program,
            config: InlineConfig,
            m: MethodId,
            args: &[i64],
        ) -> (i64, i64) {
            let (inlined, _) = inline_program(p, config);
            inlined.validate().expect("inlined program validates");
            (eval(p, m, args), eval(&inlined, m, args))
        }

        pub fn eval(p: &Program, m: MethodId, args: &[i64]) -> i64 {
            // A tiny pure-int evaluator is enough for these tests and
            // avoids a dev-dependency cycle with wbe-interp.
            struct Fr {
                m: MethodId,
                b: usize,
                ip: usize,
                locals: Vec<i64>,
                stack: Vec<i64>,
            }
            let mut frames = vec![Fr {
                m,
                b: 0,
                ip: 0,
                locals: {
                    let mut l = args.to_vec();
                    l.resize(p.method(m).num_locals as usize, 0);
                    l
                },
                stack: vec![],
            }];
            let mut steps = 0;
            loop {
                steps += 1;
                assert!(steps < 1_000_000, "runaway test program");
                let f = frames.last_mut().unwrap();
                let method = p.method(f.m);
                let blk = &method.blocks[f.b];
                if f.ip < blk.insns.len() {
                    let insn = blk.insns[f.ip];
                    f.ip += 1;
                    match insn {
                        Insn::Const(c) => f.stack.push(c),
                        Insn::Load(l) => f.stack.push(f.locals[l.index()]),
                        Insn::Store(l) => {
                            let v = f.stack.pop().unwrap();
                            f.locals[l.index()] = v;
                        }
                        Insn::IInc(l, d) => f.locals[l.index()] += d,
                        Insn::Add => {
                            let b = f.stack.pop().unwrap();
                            let a = f.stack.pop().unwrap();
                            f.stack.push(a + b);
                        }
                        Insn::Sub => {
                            let b = f.stack.pop().unwrap();
                            let a = f.stack.pop().unwrap();
                            f.stack.push(a - b);
                        }
                        Insn::Mul => {
                            let b = f.stack.pop().unwrap();
                            let a = f.stack.pop().unwrap();
                            f.stack.push(a * b);
                        }
                        Insn::Pop => {
                            f.stack.pop().unwrap();
                        }
                        Insn::Dup => {
                            let v = *f.stack.last().unwrap();
                            f.stack.push(v);
                        }
                        Insn::Invoke(callee) => {
                            let n = p.method(callee).sig.params.len();
                            let split = f.stack.len() - n;
                            let args: Vec<i64> = f.stack.split_off(split);
                            let mut l = args;
                            l.resize(p.method(callee).num_locals as usize, 0);
                            frames.push(Fr {
                                m: callee,
                                b: 0,
                                ip: 0,
                                locals: l,
                                stack: vec![],
                            });
                        }
                        other => panic!("int evaluator does not support {other:?}"),
                    }
                } else {
                    match blk.term {
                        Terminator::Goto(t) => {
                            f.b = t.index();
                            f.ip = 0;
                        }
                        Terminator::If { cond, then_, else_ } => {
                            let taken = match cond {
                                wbe_ir::Cond::ICmp(op) => {
                                    let b = f.stack.pop().unwrap();
                                    let a = f.stack.pop().unwrap();
                                    op.eval(a, b)
                                }
                                wbe_ir::Cond::IZero(op) => {
                                    let a = f.stack.pop().unwrap();
                                    op.eval(a, 0)
                                }
                                _ => panic!("unsupported cond"),
                            };
                            f.b = if taken { then_.index() } else { else_.index() };
                            f.ip = 0;
                        }
                        Terminator::Return => {
                            frames.pop();
                            if frames.is_empty() {
                                return 0;
                            }
                        }
                        Terminator::ReturnValue => {
                            let v = f.stack.pop().unwrap();
                            frames.pop();
                            match frames.last_mut() {
                                None => return v,
                                Some(caller) => caller.stack.push(v),
                            }
                        }
                    }
                }
            }
        }
    }

    fn add_mul_program() -> (Program, MethodId, MethodId) {
        let mut pb = ProgramBuilder::new();
        let helper = pb.method(
            "twice_plus",
            vec![Ty::Int, Ty::Int],
            Some(Ty::Int),
            0,
            |mb| {
                let a = mb.local(0);
                let b = mb.local(1);
                mb.load(a).iconst(2).mul().load(b).add().return_value();
            },
        );
        let main = pb.method("main", vec![Ty::Int], Some(Ty::Int), 0, |mb| {
            let x = mb.local(0);
            // twice_plus(x, 7) + twice_plus(3, x)
            mb.load(x).iconst(7).invoke(helper);
            mb.iconst(3).load(x).invoke(helper);
            mb.add().return_value();
        });
        (pb.finish(), main, helper)
    }

    #[test]
    fn inlining_preserves_semantics() {
        let (p, main, _) = add_mul_program();
        for x in [-3, 0, 5, 100] {
            let (orig, inl) = run_both(&p, InlineConfig::default(), main, &[x]);
            assert_eq!(orig, inl, "x={x}");
        }
    }

    #[test]
    fn inlining_removes_eligible_invokes() {
        let (p, main, _) = add_mul_program();
        let (inlined, stats) = inline_program(&p, InlineConfig::default());
        assert_eq!(stats.inlined_calls, 2);
        let invokes = inlined
            .method(main)
            .iter_insns()
            .filter(|(_, _, i)| matches!(i, Insn::Invoke(_)))
            .count();
        assert_eq!(invokes, 0);
    }

    #[test]
    fn limit_zero_disables_inlining() {
        let (p, _, _) = add_mul_program();
        let (inlined, stats) = inline_program(&p, InlineConfig::with_limit(0));
        assert_eq!(stats.inlined_calls, 0);
        assert_eq!(inlined, p);
    }

    #[test]
    fn small_limit_skips_big_callees() {
        let (p, _, helper) = add_mul_program();
        let size = p.method(helper).size;
        let (_, stats) = inline_program(&p, InlineConfig::with_limit(size - 1));
        assert_eq!(stats.inlined_calls, 0);
        assert!(stats.skipped_too_big > 0);
    }

    #[test]
    fn recursion_is_not_inlined_forever() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_method("fact", vec![Ty::Int], Some(Ty::Int));
        pb.define_method(f, 0, |mb| {
            let n = mb.local(0);
            let base = mb.new_block();
            let rec = mb.new_block();
            mb.load(n).if_zero(CmpOp::Le, base, rec);
            mb.switch_to(base).iconst(1).return_value();
            mb.switch_to(rec)
                .load(n)
                .load(n)
                .iconst(1)
                .sub()
                .invoke(f)
                .mul()
                .return_value();
        });
        let main = pb.method("main", vec![Ty::Int], Some(Ty::Int), 0, |mb| {
            let n = mb.local(0);
            mb.load(n).invoke(f).return_value();
        });
        let p = pb.finish();
        let (inlined, stats) = inline_program(&p, InlineConfig::default());
        inlined.validate().unwrap();
        // fact was inlined into main once (or a few times through
        // passes), but the self-call inside fact is never expanded.
        assert!(stats.inlined_calls >= 1);
        assert!(stats.skipped_recursive > 0);
        let (o, i) = (
            wbe_interp_test_util::eval(&p, main, &[6]),
            wbe_interp_test_util::eval(&inlined, main, &[6]),
        );
        assert_eq!(o, 720);
        assert_eq!(i, 720);
    }

    #[test]
    fn nested_inlining_through_passes() {
        let mut pb = ProgramBuilder::new();
        let inner = pb.method("inner", vec![Ty::Int], Some(Ty::Int), 0, |mb| {
            let x = mb.local(0);
            mb.load(x).iconst(1).add().return_value();
        });
        let middle = pb.method("middle", vec![Ty::Int], Some(Ty::Int), 0, |mb| {
            let x = mb.local(0);
            mb.load(x).invoke(inner).iconst(10).mul().return_value();
        });
        let outer = pb.method("outer", vec![Ty::Int], Some(Ty::Int), 0, |mb| {
            let x = mb.local(0);
            mb.load(x).invoke(middle).return_value();
        });
        let p = pb.finish();
        let (inlined, _) = inline_program(&p, InlineConfig::default());
        inlined.validate().unwrap();
        let invokes = inlined
            .method(outer)
            .iter_insns()
            .filter(|(_, _, i)| matches!(i, Insn::Invoke(_)))
            .count();
        assert_eq!(invokes, 0, "both levels inlined");
        assert_eq!(wbe_interp_test_util::eval(&inlined, outer, &[4]), 50);
    }

    #[test]
    fn fresh_sites_for_each_inlined_copy() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let alloc = pb.method("alloc", vec![], Some(Ty::Ref(c)), 0, |mb| {
            mb.new_object(c).return_value();
        });
        let main = pb.method("main", vec![], None, 0, |mb| {
            mb.invoke(alloc).pop().invoke(alloc).pop().return_();
        });
        let p = pb.finish();
        let (inlined, _) = inline_program(&p, InlineConfig::default());
        inlined.validate().unwrap();
        let sites: Vec<_> = inlined
            .method(main)
            .iter_insns()
            .filter_map(|(_, _, i)| i.allocation_site())
            .collect();
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0], sites[1], "each copy gets its own site");
        // And neither collides with the original site.
        let orig_site = p
            .method(alloc)
            .iter_insns()
            .find_map(|(_, _, i)| i.allocation_site())
            .unwrap();
        assert!(!sites.contains(&orig_site));
    }

    #[test]
    fn inlined_constructor_enables_elision() {
        // End-to-end motivation: new C(); ctor inlined → store elidable.
        use wbe_analysis::{analyze_method, AnalysisConfig};
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let ctor = pb.declare_constructor(c, vec![Ty::Ref(c)]);
        pb.define_method(ctor, 0, |mb| {
            let this = mb.local(0);
            let v = mb.local(1);
            mb.load(this).load(v).putfield(f).return_();
        });
        let main = pb.method("main", vec![Ty::Ref(c)], None, 0, |mb| {
            let arg = mb.local(0);
            mb.new_object(c)
                .dup()
                .load(arg)
                .invoke(ctor)
                .pop()
                .return_();
        });
        let p = pb.finish();
        // Without inlining: the ctor call blocks elision in main, and the
        // ctor body itself IS elidable (this is thread-local there).
        let res = analyze_method(&p, p.method(main), &AnalysisConfig::full());
        assert!(res.elided.is_empty());
        // With inlining: the initializing store is elided in main.
        let (inlined, _) = inline_program(&p, InlineConfig::default());
        inlined.validate().unwrap();
        let res = analyze_method(&inlined, inlined.method(main), &AnalysisConfig::full());
        assert_eq!(res.elided.len(), 1, "{res:?}");
    }
}

#[cfg(test)]
mod growth_tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::Ty;

    /// A caller with many call sites to a mid-size callee must stop
    /// growing at the growth cap rather than exploding.
    #[test]
    fn growth_cap_limits_expansion() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.method("mid", vec![Ty::Int], Some(Ty::Int), 0, |mb| {
            let x = mb.local(0);
            for _ in 0..20 {
                mb.load(x).iconst(1).add().store(x);
            }
            mb.load(x).return_value();
        });
        let caller = pb.method("hot", vec![Ty::Int], Some(Ty::Int), 0, |mb| {
            let x = mb.local(0);
            for _ in 0..50 {
                mb.load(x).invoke(callee).store(x);
            }
            mb.load(x).return_value();
        });
        let p = pb.finish();
        let original = p.method(caller).size;
        let (out, stats) = inline_program(&p, InlineConfig::with_limit(100));
        out.validate().unwrap();
        let grown = out.method(caller).compute_size();
        assert!(
            grown <= original * GROWTH_FACTOR + 256 + 100,
            "{grown} vs cap around {}",
            original * GROWTH_FACTOR + 256
        );
        // Some calls inlined, the rest left behind once the cap hit.
        assert!(stats.inlined_calls > 0);
        let remaining = out
            .method(caller)
            .iter_insns()
            .filter(|(_, _, i)| matches!(i, Insn::Invoke(_)))
            .count();
        assert!(remaining > 0, "cap must leave some calls un-inlined");
        assert_eq!(stats.inlined_calls + remaining, 50);
    }
}
