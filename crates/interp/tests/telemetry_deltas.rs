//! The interpreter publishes `RunStats` deltas into the process-global
//! telemetry registry at run boundaries. The registry is shared by
//! every test of a binary and the default runner is multi-threaded, so
//! the one test that compares registry deltas with a run's own
//! statistics lives alone in this file: nothing else publishes while
//! it looks.

use wbe_heap::{FaultConfig, FaultPlan};
use wbe_interp::{BarrierConfig, BarrierMode, Interp, Value};
use wbe_ir::builder::ProgramBuilder;
use wbe_ir::{CmpOp, Ty};

#[test]
fn emergency_telemetry_deltas_match_run_stats() {
    // Allocation-heavy list builder: n nodes, each linked to its
    // predecessor with a pre-null `putfield`; returns n.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("Node");
    let next = pb.field(c, "next", Ty::Ref(c));
    let m = pb.method("churn", vec![Ty::Int], Some(Ty::Int), 2, |mb| {
        let n = mb.local(0);
        let prev = mb.local(1);
        let i = mb.local(2);
        let head = mb.new_block();
        let body = mb.new_block();
        let exit = mb.new_block();
        mb.iconst(0).store(i).const_null().store(prev).goto_(head);
        mb.switch_to(head)
            .load(i)
            .load(n)
            .if_icmp(CmpOp::Lt, body, exit);
        mb.switch_to(body)
            .new_object(c)
            .dup()
            .load(prev)
            .putfield(next)
            .store(prev)
            .iinc(i, 1)
            .goto_(head);
        mb.switch_to(exit).load(i).return_value();
    });
    let p = pb.finish();
    p.validate().unwrap();

    let mut interp = Interp::new(&p, BarrierConfig::new(BarrierMode::Checked));
    interp.set_fault_plan(FaultPlan::new(FaultConfig {
        alloc_fail_pm: 200,
        alloc_grace: 8,
        ..FaultConfig::from_seed(5)
    }));
    let before = wbe_telemetry::registry::global().snapshot();
    let r = interp.run(m, &[Value::Int(150)], 1_000_000).unwrap();
    assert_eq!(r, Some(Value::Int(150)));
    assert!(interp.stats.emergency_pauses > 0, "fault path exercised");
    let after = wbe_telemetry::registry::global().snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(
        delta("interp.gc.emergency_pauses"),
        interp.stats.emergency_pauses,
        "published delta mirrors the run's emergency pauses"
    );
    assert_eq!(delta("interp.gc.alloc_retries"), interp.stats.alloc_retries);
    assert_eq!(delta("interp.gc.cycles"), interp.stats.gc_cycles);
}
