//! The §6 vision, concretely: "these analyses should be part of an
//! integrated static analysis framework that provides a variety of
//! information to inform subsequent compilation steps, of which SATB
//! write barrier removal is just one."
//!
//! [`Framework`] computes each method's fixed point **once** per domain,
//! both on the one driver, and serves every client from them: barrier
//! elision, bounds-check removal and stack allocation read the pre-null
//! solve ([`MethodSolution`]), null-or-same its own. Clients replay the
//! solved entry states instead of re-running the iteration, so adding a
//! client costs one linear pass, not another fixpoint.

use std::collections::{BTreeMap, BTreeSet};

use wbe_ir::{InsnAddr, MethodId, Program, SiteId};

use crate::config::AnalysisConfig;
use crate::fixpoint::MethodSolution;
use crate::{bounds, nullsame, stackalloc};

/// Per-method results served by the framework.
#[derive(Clone, Debug, Default)]
pub struct MethodInfo {
    /// Pre-null elidable store sites (§2 + §3).
    pub elided: BTreeSet<InsnAddr>,
    /// Null-or-same elidable stores (§4.3).
    pub null_or_same: BTreeSet<InsnAddr>,
    /// Array accesses with removable bounds checks (§6 client).
    pub bounds_safe: BTreeSet<InsnAddr>,
    /// Stack-allocatable allocation sites (§6 client).
    pub stack_allocatable: BTreeSet<SiteId>,
    /// Barrier-relevant store sites.
    pub barrier_sites: usize,
    /// Array access sites.
    pub array_accesses: usize,
    /// Allocation sites.
    pub alloc_sites: usize,
}

/// One shared fixed point, many clients.
#[derive(Debug)]
pub struct Framework {
    methods: BTreeMap<MethodId, MethodInfo>,
}

impl Framework {
    /// Analyzes every method of `program` once and derives all client
    /// results. The bounds and stack-allocation answers reflect
    /// `config`, like the elision one (their standalone entry points
    /// solve under [`AnalysisConfig::full`]), and null-or-same runs under
    /// its guardrails.
    pub fn analyze(program: &Program, config: &AnalysisConfig) -> Framework {
        let mut methods = BTreeMap::new();
        for (mid, method) in program.iter_methods() {
            let solution = MethodSolution::solve(program, method, config);
            let elision = solution.replay(false).analysis;
            let bounds = bounds::analyze_solved(&solution);
            let info = MethodInfo {
                elided: elision.elided,
                null_or_same: nullsame::analyze_method_under(program, method, config),
                bounds_safe: bounds.safe,
                stack_allocatable: stackalloc::analyze_solved(&solution).stack_allocatable,
                barrier_sites: elision.barrier_sites,
                array_accesses: bounds.total_sites,
                alloc_sites: method
                    .iter_insns()
                    .filter(|(_, _, i)| i.allocation_site().is_some())
                    .count(),
            };
            methods.insert(mid, info);
        }
        Framework { methods }
    }

    /// Per-method results.
    pub fn method(&self, mid: MethodId) -> Option<&MethodInfo> {
        self.methods.get(&mid)
    }

    /// Iterates `(MethodId, &MethodInfo)`.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &MethodInfo)> {
        self.methods.iter().map(|(&m, i)| (m, i))
    }

    /// Every pre-null elided site across the program.
    pub fn all_elided(&self) -> Vec<(MethodId, InsnAddr)> {
        self.iter()
            .flat_map(|(m, i)| i.elided.iter().map(move |&a| (m, a)))
            .collect()
    }

    /// Every stack-allocatable site across the program.
    pub fn all_stack_sites(&self) -> BTreeSet<SiteId> {
        self.iter()
            .flat_map(|(_, i)| i.stack_allocatable.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbe_ir::builder::ProgramBuilder;
    use wbe_ir::Ty;

    fn rich_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        // A method exercising all four clients at once.
        pb.method("omni", vec![Ty::Ref(c)], None, 3, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            let arr = mb.local(2);
            let t = mb.local(3);
            // Pre-null elision: fresh object init.
            mb.new_object(c).store(o);
            mb.load(o).load(arg).putfield(f);
            // Null-or-same: refresh.
            mb.load(o).load(o).getfield(f).putfield(f);
            // Bounds-safe access into a fresh literal array.
            mb.iconst(4).new_ref_array(c).store(arr);
            mb.load(arr).iconst(0).load(o).aastore();
            // A scratch object that never leaves the frame.
            mb.new_object(c).store(t);
            mb.load(t).getfield(f).pop();
            mb.return_();
        });
        pb.finish()
    }

    #[test]
    fn one_run_serves_all_clients() {
        let p = rich_program();
        let fw = Framework::analyze(&p, &AnalysisConfig::full());
        let (mid, info) = fw.iter().next().unwrap();
        assert_eq!(mid, wbe_ir::MethodId(0));
        assert!(!info.elided.is_empty(), "pre-null client: {info:?}");
        assert!(!info.null_or_same.is_empty(), "NOS client: {info:?}");
        assert!(!info.bounds_safe.is_empty(), "bounds client: {info:?}");
        // arr escapes nothing but receives a store of o (o is tainted);
        // the scratch t and arr itself stay frame-local.
        assert!(!info.stack_allocatable.is_empty(), "stack client: {info:?}");
        assert_eq!(info.alloc_sites, 3);
        assert!(info.barrier_sites >= 3);
        assert!(!fw.all_elided().is_empty());
        assert!(!fw.all_stack_sites().is_empty());
    }

    #[test]
    fn framework_matches_standalone_analyses() {
        // The framework must agree with the individual entry points,
        // under the classic-escape ablation's double fixpoint too.
        let p = rich_program();
        let classic = AnalysisConfig {
            flow_sensitive_escape: false,
            ..AnalysisConfig::full()
        };
        for config in [AnalysisConfig::full(), classic] {
            let fw = Framework::analyze(&p, &config);
            let standalone = crate::analyze_program(&p, &config);
            let fw_elided: BTreeSet<_> = fw.all_elided().into_iter().collect();
            let st_elided: BTreeSet<_> = standalone.iter_elided().collect();
            assert_eq!(fw_elided, st_elided, "{config:?}");
            for (mid, m) in p.iter_methods() {
                let info = fw.method(mid).unwrap();
                assert_eq!(info.null_or_same, nullsame::analyze_method(&p, m));
                assert_eq!(info.bounds_safe, bounds::analyze_method(&p, m).safe);
            }
        }
    }

    #[test]
    fn classic_escape_ablation_reaches_the_framework() {
        // `o` escapes after its initializing store: flow-sensitively the
        // store is elided, under classic escape it is not — and the
        // framework must see the configuration it was given.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let f = pb.field(c, "f", Ty::Ref(c));
        let g = pb.static_field("g", Ty::Ref(c));
        pb.method("publish", vec![Ty::Ref(c)], None, 1, |mb| {
            let arg = mb.local(0);
            let o = mb.local(1);
            mb.new_object(c).store(o);
            mb.load(o).load(arg).putfield(f);
            mb.load(o).putstatic(g);
            mb.return_();
        });
        let p = pb.finish();
        assert_eq!(
            Framework::analyze(&p, &AnalysisConfig::full())
                .all_elided()
                .len(),
            1
        );
        let classic = AnalysisConfig {
            flow_sensitive_escape: false,
            ..AnalysisConfig::full()
        };
        assert!(Framework::analyze(&p, &classic).all_elided().is_empty());
    }
}
