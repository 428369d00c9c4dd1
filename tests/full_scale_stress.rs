//! One heavier end-to-end pass: every workload at its full default
//! scale, with pre-null + null-or-same elision, the rearrangement
//! protocol, stack allocation, and policy-driven SATB collection all
//! active simultaneously. Every oracle in the system is armed.

use wbe_repro::analysis::stackalloc;
use wbe_repro::harness::site::compile_workload_with;
use wbe_repro::interp::{
    BarrierConfig, BarrierMode, GcPolicy, Interp, RearrangeRole, RearrangeSites, Value,
};
use wbe_repro::opt::{plan_program, OptMode, PipelineConfig, ShiftRole};
use wbe_repro::workloads::standard_suite;

#[test]
fn everything_on_at_full_default_scale() {
    for w in standard_suite() {
        let iters = w.default_iters;
        let cfg = PipelineConfig::new(OptMode::Full, 100).with_null_or_same();
        let (compiled, elided) = compile_workload_with(&w, &cfg);

        let plan = plan_program(&compiled.program);
        let mut rearrange = RearrangeSites::new();
        for (m, a, role) in plan.iter() {
            if elided.contains(m, a) {
                continue;
            }
            let r = match role {
                ShiftRole::First => RearrangeRole::First,
                ShiftRole::Member => RearrangeRole::Member,
            };
            rearrange.insert(m, a, r);
        }
        let mut stack_sites = std::collections::BTreeSet::new();
        for (_, m) in compiled.program.iter_methods() {
            stack_sites.extend(stackalloc::analyze_method(&compiled.program, m).stack_allocatable);
        }

        let bc =
            BarrierConfig::with_elision(BarrierMode::Checked, elided).with_rearrange(rearrange);
        let mut interp = Interp::new(&compiled.program, bc);
        interp.set_stack_sites(stack_sites.iter().copied());
        interp.set_gc_policy(GcPolicy {
            alloc_trigger: 1_000,
            step_interval: 64,
            step_budget: 16,
        });
        interp
            .run(w.entry, &[Value::Int(iters)], w.fuel_for(iters))
            .unwrap_or_else(|t| panic!("{} full scale: {t}", w.name));
        assert!(interp.stats.elided_executions > 0, "{}", w.name);
        assert_eq!(
            interp.stats.stack_allocated, interp.stats.stack_freed,
            "{}",
            w.name
        );
    }
}
