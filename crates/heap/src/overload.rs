//! The serve mix: open-loop load against the pressure ladder.
//!
//! Where [`crate::sched`]'s lists mix interleaves a handful of
//! list-churning mutators to hunt *soundness* races, this mix models the
//! workload shape ROADMAP item 4 asks for — a session-store/request-
//! handler server — to exercise *robustness under pressure*: per-request
//! allocation bursts, shared LRU-cache churn, and connection-table
//! turnover, all driven by a seeded **open-loop** arrival process that
//! does not slow down when the collector falls behind. That is exactly
//! the regime where an unprotected heap cliff-dives into the emergency
//! stop-the-world pause; here the [`crate::pressure::PressureController`]
//! stands in the way with its degradation ladder:
//!
//! * **pacing** — the marker arms early and marks with a boosted
//!   budget while occupancy is above the pace threshold;
//! * **throttling** — connections lose every other work slice, halving
//!   the allocation rate;
//! * **shedding** — the admission queue rejects arriving requests;
//! * **emergency** — a forced stop-the-world collection, rate-limited
//!   by the controller's cooldown.
//!
//! The connections are the mutator threads of a [`World`], the one
//! scheduled world: it owns the heap, the marking-cycle driver, the
//! shared root array, the pick and the run loop, so the overload run is
//! also a soundness run — the snapshot audit and heap invariant checks
//! from [`crate::verify`] run at every cycle boundary. This module
//! supplies the requests, the arrivals before each pick, and the ladder
//! as the marker's host policy.
//!
//! Everything is a pure function of [`ServeWorldConfig`]: arrivals,
//! request mixes, scheduling choices, and fault decisions all come from
//! SplitMix64 streams seeded by `cfg.seed`, and latency is measured in
//! logical scheduler steps — so a run's entire outcome (counters,
//! latency samples, ladder transitions) replays bit for bit.

use std::collections::VecDeque;
use std::fmt;

use crate::cycle::{self, CycleEvent, CyclePhase, MarkerCtl};
use crate::fault::{FaultConfig, FaultPlan};
use crate::heap::{Heap, HeapError};
use crate::mix::{fnv1a, SplitMix64};
use crate::pressure::{PressureConfig, PressureController, PressureLevel, PressureTransition};
use crate::sched::{self, Mix, SchedulePolicy, ScheduleViolation, ViolationKind, World};
use crate::value::{FieldShape, GcRef, Value};

/// Field shape of session/cache/connection nodes: `f0` = next link,
/// `f1` = payload cross-reference.
const NODE: [FieldShape; 2] = [FieldShape::Ref, FieldShape::Ref];

/// A session chain is reset (its old nodes becoming garbage) after this
/// many consecutive head inserts, bounding the live set so the
/// collector has something to reclaim.
const CHAIN_RESET: u64 = 8;

/// Request-mix shape: relative weights of the three request types
/// (session put, cache publish, connection churn).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeScenario {
    /// Session-store dominated: mostly per-request allocation bursts
    /// linked into tenant session chains.
    #[default]
    Session,
    /// Shared-LRU dominated: cache publishes and evictions.
    Cache,
    /// Connection-table dominated: maximal churn, maximal garbage.
    Churn,
}

impl ServeScenario {
    /// Relative request-type weights `[session_put, cache_publish,
    /// conn_churn]`.
    fn weights(self) -> [u16; 3] {
        match self {
            ServeScenario::Session => [6, 2, 2],
            ServeScenario::Cache => [2, 6, 2],
            ServeScenario::Churn => [2, 2, 6],
        }
    }

    /// The stock mix set the serve CLI accepts.
    pub const ALL: [ServeScenario; 3] = [
        ServeScenario::Session,
        ServeScenario::Cache,
        ServeScenario::Churn,
    ];

    /// Mix name as used by `wbe_tool serve --mix`.
    pub fn name(self) -> &'static str {
        match self {
            ServeScenario::Session => "session",
            ServeScenario::Cache => "cache",
            ServeScenario::Churn => "churn",
        }
    }
}

impl std::str::FromStr for ServeScenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "session" => Ok(ServeScenario::Session),
            "cache" => Ok(ServeScenario::Cache),
            "churn" => Ok(ServeScenario::Churn),
            other => Err(format!("unknown request mix `{other}`")),
        }
    }
}

impl fmt::Display for ServeScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one serve world.
#[derive(Clone, Debug)]
pub struct ServeWorldConfig {
    /// Tenants (each owns a session chain slot; at least one).
    pub tenants: usize,
    /// Connections: the mutator logical threads requests are handled on
    /// (1 to [`sched::MAX_THREADS`]).
    pub connections: usize,
    /// Request mix.
    pub scenario: ServeScenario,
    /// Total requests the open-loop generator offers.
    pub requests: usize,
    /// Scheduler steps between arrival windows (open-loop cadence —
    /// arrivals never wait for the server).
    pub arrival_interval: u32,
    /// Requests arriving per window before overload bursts.
    pub arrivals_per_window: u32,
    /// Allocation-burst length: work units (≈ allocations) per request.
    pub request_ops: u32,
    /// Shared-LRU cache slots (at least one).
    pub lru_slots: usize,
    /// Workload ops between safepoint polls per connection.
    pub poll_interval: u32,
    /// Marker steps between cycles (shrunk to zero while pacing).
    pub cycle_gap: u32,
    /// Concurrent-marking budget per scheduled marker step (doubled
    /// while pacing).
    pub mark_budget: usize,
    /// Seed for arrivals, request mixes, and scheduling choices.
    pub seed: u64,
    /// The pressure ladder in force.
    pub pressure: PressureConfig,
    /// Optional fault schedule (allocation failures, skipped/boosted
    /// mark steps, overload bursts) composed into the run.
    pub fault: Option<FaultConfig>,
}

impl Default for ServeWorldConfig {
    fn default() -> Self {
        ServeWorldConfig {
            tenants: 4,
            connections: 4,
            scenario: ServeScenario::Session,
            requests: 256,
            arrival_interval: 8,
            arrivals_per_window: 2,
            request_ops: 6,
            lru_slots: 8,
            poll_interval: 4,
            cycle_gap: 6,
            mark_budget: 4,
            seed: 0x5e12_7e00,
            pressure: PressureConfig::default(),
            fault: None,
        }
    }
}

/// Deterministic per-run counters; part of the outcome digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Scheduler steps executed.
    pub steps: u64,
    /// Requests offered by the open-loop generator.
    pub offered: u64,
    /// Requests admitted to a connection queue.
    pub admitted: u64,
    /// Requests rejected at admission (ladder ≥ shedding).
    pub shed: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completed requests that overlapped at least one STW pause.
    pub stw_overlapped: u64,
    /// Request work units executed.
    pub ops: u64,
    /// Work slices forfeited to throttling.
    pub throttle_stalls: u64,
    /// Objects allocated by request handlers.
    pub allocs: u64,
    /// Allocation failures injected by the fault plan.
    pub alloc_faults: u64,
    /// Overload bursts injected into arrival windows.
    pub overload_bursts: u64,
    /// Elided pre-null stores executed by handlers.
    pub elided_stores: u64,
    /// SATB entries logged into per-connection buffers.
    pub satb_logged: u64,
    /// Per-connection buffer flushes.
    pub flushes: u64,
    /// Safepoint polls that acknowledged a new epoch.
    pub safepoint_acks: u64,
    /// Safepoint polls that parked for a rendezvous.
    pub parks: u64,
    /// Concurrent mark work units performed.
    pub mark_work: u64,
    /// Marking cycles completed (including emergency collections).
    pub cycles: u64,
    /// Forced emergency stop-the-world collections.
    pub emergency_stw: u64,
    /// Total STW pause cost, in remark work units.
    pub pause_work: u64,
    /// Objects freed by sweeps.
    pub swept: u64,
}

impl ServeCounters {
    /// The counters as a fixed field array (digest + reporting order).
    pub fn fields(&self) -> [u64; 22] {
        [
            self.steps,
            self.offered,
            self.admitted,
            self.shed,
            self.completed,
            self.stw_overlapped,
            self.ops,
            self.throttle_stalls,
            self.allocs,
            self.alloc_faults,
            self.overload_bursts,
            self.elided_stores,
            self.satb_logged,
            self.flushes,
            self.safepoint_acks,
            self.parks,
            self.mark_work,
            self.cycles,
            self.emergency_stw,
            self.pause_work,
            self.swept,
            0,
        ]
    }

    /// Mirrors the counters into the global telemetry registry under
    /// `serve.*`.
    pub fn publish(&self) {
        let pairs: [(&str, u64); 12] = [
            ("serve.steps", self.steps),
            ("serve.requests.offered", self.offered),
            ("serve.requests.admitted", self.admitted),
            ("serve.requests.shed", self.shed),
            ("serve.requests.completed", self.completed),
            ("serve.requests.stw_overlapped", self.stw_overlapped),
            ("serve.throttle_stalls", self.throttle_stalls),
            ("serve.allocs", self.allocs),
            ("serve.alloc_faults", self.alloc_faults),
            ("serve.overload_bursts", self.overload_bursts),
            ("serve.gc.cycles", self.cycles),
            ("serve.gc.emergency_stw", self.emergency_stw),
        ];
        for (name, v) in pairs {
            wbe_telemetry::counter(name).add(v);
        }
    }
}

/// The result of one serve run.
#[derive(Clone, Debug, Default)]
pub struct ServeOutcome {
    /// Deterministic counters.
    pub counters: ServeCounters,
    /// Per-request latency samples, in scheduler steps, in completion
    /// order.
    pub latencies: Vec<u64>,
    /// Every pressure-ladder transition, in order.
    pub transitions: Vec<PressureTransition>,
    /// The ladder's lifetime counters.
    pub pressure: crate::pressure::PressureStats,
    /// The highest rung the run reached.
    pub high_water: PressureLevel,
    /// Soundness violations (empty ⇔ the run is sound). The serve world
    /// runs the same snapshot audit and invariant checks as the lists
    /// world; any entry here is a reproduction-level bug.
    pub violations: Vec<ScheduleViolation>,
}

impl ServeOutcome {
    /// Digest over counters, latencies, and the transition log: two
    /// runs with equal digests executed the same world.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(
            0,
            self.counters
                .fields()
                .into_iter()
                .flat_map(u64::to_le_bytes),
        );
        h = fnv1a(h, self.latencies.iter().flat_map(|l| l.to_le_bytes()));
        for t in &self.transitions {
            h = fnv1a(h, t.reason.bytes());
            h = fnv1a(h, t.at_observation.to_le_bytes());
        }
        fnv1a(h, [self.violations.len() as u8, self.high_water as u8])
    }
}

/// One queued request.
#[derive(Clone, Copy, Debug)]
struct Request {
    arrived_at: usize,
    ops_left: u32,
    /// Request-type index into the scenario weights.
    kind: usize,
    /// Tenant the request addresses.
    tenant: usize,
    /// STW pauses completed at admission; if more have completed by the
    /// time the request finishes, it overlapped a pause.
    pauses_at_admit: u64,
}

/// Per-connection logical-thread state (its share of the safepoint
/// protocol is in the world's cycle driver).
#[derive(Debug)]
struct Connection {
    queue: VecDeque<Request>,
    /// Alternates under throttling: every other slice is forfeited.
    stalled_last: bool,
    /// Consecutive head inserts per tenant chain are counted globally;
    /// this is the connection's scratch reference (a local GC root).
    held: Option<GcRef>,
}

/// The serve mix: connections, the arrival process and the ladder. The
/// world's shared root array holds, at `[0..tenants)`, the session-chain
/// heads, at `[tenants..tenants+lru_slots)` the LRU cache, and after
/// them one connection-table entry per connection.
pub struct ServeMix {
    cfg: ServeWorldConfig,
    conns: Vec<Connection>,
    /// Head inserts per tenant since the chain was last reset.
    chain_age: Vec<u64>,
    pressure: PressureController,
    current_level: PressureLevel,
    emergency_requested: bool,
    arrivals_left: usize,
    next_conn: usize,
    next_lru: usize,
    rng_arrivals: SplitMix64,
    counters: ServeCounters,
    latencies: Vec<u64>,
    latency_hist: wbe_telemetry::Histogram,
}

/// The serve world.
pub type ServeWorld = World<ServeMix>;

impl ServeWorld {
    /// Builds the world: tenant tables, LRU slots, and connection-table
    /// entries are pre-allocated (bypassing the fault plan, which is
    /// installed afterwards). A configuration with no tenant, LRU slot
    /// or connection, or more connections than
    /// [`sched::MAX_THREADS`], is rejected.
    pub fn new(cfg: &ServeWorldConfig) -> Result<ServeWorld, HeapError> {
        World::build(cfg, &SchedulePolicy::Random { seed: cfg.seed })
    }

    /// Feeds occupancy to the ladder and latches its actuation signals
    /// for this window.
    fn observe_pressure(&mut self) {
        let live = self.heap.store.live_count();
        let m = &mut self.mix;
        m.current_level = m.pressure.observe(live);
        if m.pressure.emergency_pause_due() {
            m.emergency_requested = true;
        }
        if wbe_telemetry::tracing_enabled() {
            wbe_telemetry::trace::counter_event("serve.heap.occupancy", live as u64);
        }
    }

    /// One arrival window of the open-loop generator: admit (or shed)
    /// the base arrivals plus any fault-injected overload burst.
    fn arrival_window(&mut self) {
        self.observe_pressure();
        let mut n = u64::from(self.mix.cfg.arrivals_per_window);
        if let Some(extra) = self.heap.fault.as_mut().and_then(FaultPlan::overload_burst) {
            self.mix.counters.overload_bursts += 1;
            n += u64::from(extra);
            wbe_telemetry::event!(
                "serve.fault.overload_burst",
                "+{extra} requests step {}",
                self.step
            );
        }
        let (step, cycles, m) = (self.step, self.cycles, &mut self.mix);
        let weights = m.cfg.scenario.weights();
        for _ in 0..n {
            if m.arrivals_left == 0 {
                break;
            }
            m.arrivals_left -= 1;
            m.counters.offered += 1;
            // Request identity is drawn whether or not it is admitted,
            // so shedding never shifts the arrival stream.
            let kind = m.rng_arrivals.weighted(&weights);
            let tenant = (m.rng_arrivals.next() % m.cfg.tenants as u64) as usize;
            if m.current_level >= PressureLevel::Shedding {
                m.counters.shed += 1;
                m.pressure.note_shed();
                continue;
            }
            m.counters.admitted += 1;
            let conn = m.next_conn;
            m.next_conn = (m.next_conn + 1) % m.cfg.connections;
            m.conns[conn].queue.push_back(Request {
                arrived_at: step,
                ops_left: m.cfg.request_ops.max(1),
                kind,
                tenant,
                pauses_at_admit: cycles,
            });
        }
    }

    /// One work unit of a request: an allocation plus the store pattern
    /// of its request type.
    fn request_op(&mut self, tid: usize, req: &Request) {
        let new = match self.heap.alloc_object(req.tenant as u32, &NODE) {
            Ok(r) => r,
            Err(HeapError::AllocationFailed) => {
                self.mix.counters.alloc_faults += 1;
                return;
            }
            Err(e) => {
                self.violation(ViolationKind::Protocol, format!("alloc failed: {e}"));
                return;
            }
        };
        self.mix.counters.allocs += 1;
        self.mix.conns[tid].held = Some(new);
        let (tenants, lru_slots) = (self.mix.cfg.tenants, self.mix.cfg.lru_slots);
        match req.kind {
            // Session put: head-insert into the tenant chain. The
            // `new.f0 = old_head` store is the paper's elidable pre-null
            // initializing store; the slot overwrite carries the full
            // deletion barrier. Every CHAIN_RESET inserts the chain is
            // dropped wholesale (its nodes become garbage).
            0 => {
                let t = req.tenant as i64;
                let old_head = self.heap.get_elem(self.shared, t).ok().flatten();
                self.mix.chain_age[req.tenant] += 1;
                if !self.mix.chain_age[req.tenant].is_multiple_of(CHAIN_RESET) {
                    if let Some(h) = old_head {
                        if self.cycle.elide_allowed(tid) {
                            self.mix.counters.elided_stores += 1;
                        }
                        let _ = self.heap.set_field(new, 0, Value::from(h));
                    }
                }
                if let Some(old) = old_head {
                    cycle::barrier_log(self, tid, old);
                }
                let _ = self.heap.set_elem(self.shared, t, Some(new));
            }
            // Cache publish: round-robin LRU slot overwrite; the
            // evicted entry becomes garbage.
            1 => {
                let slot = (tenants + self.mix.next_lru) as i64;
                self.mix.next_lru = (self.mix.next_lru + 1) % lru_slots;
                if let Ok(Some(old)) = self.heap.get_elem(self.shared, slot) {
                    cycle::barrier_log(self, tid, old);
                }
                let _ = self.heap.set_elem(self.shared, slot, Some(new));
            }
            // Connection churn: replace this connection's table entry,
            // cross-linking the new entry to the old (the old entry and
            // its history die together at the next reset).
            _ => {
                let slot = (tenants + lru_slots + tid) as i64;
                if let Ok(Some(old)) = self.heap.get_elem(self.shared, slot) {
                    cycle::barrier_log(self, tid, old);
                    let _ = self.heap.set_field(new, 1, Value::from(old));
                }
                let _ = self.heap.set_elem(self.shared, slot, Some(new));
            }
        }
    }
}

impl Mix for ServeMix {
    type Config = ServeWorldConfig;
    type Outcome = ServeOutcome;
    const PICK_SALT: u64 = 0x5c4e_d01e;

    fn threads(cfg: &ServeWorldConfig) -> usize {
        cfg.connections
    }

    fn cycle_gap(cfg: &ServeWorldConfig) -> u32 {
        cfg.cycle_gap
    }

    fn build(
        cfg: &ServeWorldConfig,
        heap: &mut Heap,
        seed: u64,
    ) -> Result<(Self, GcRef), HeapError> {
        // Arrivals spread over connections, pick tenants and cycle LRU
        // slots modulo their counts.
        if cfg.tenants == 0 || cfg.lru_slots == 0 || cfg.connections == 0 {
            return Err(HeapError::BadWorld(
                "a serve world needs a tenant, an LRU slot and a connection",
            ));
        }
        let slots = cfg.tenants + cfg.lru_slots + cfg.connections;
        let shared = heap.alloc_ref_array(u32::MAX, slots as i64)?;
        for t in 0..cfg.tenants {
            let head = heap.alloc_object(t as u32, &NODE)?;
            heap.set_elem(shared, t as i64, Some(head))?;
        }
        for c in 0..cfg.connections {
            let entry = heap.alloc_object(u32::MAX - 1, &NODE)?;
            heap.set_elem(
                shared,
                (cfg.tenants + cfg.lru_slots + c) as i64,
                Some(entry),
            )?;
        }
        heap.fault = cfg.fault.map(FaultPlan::new);
        let mix = ServeMix {
            cfg: cfg.clone(),
            conns: (0..cfg.connections)
                .map(|_| Connection {
                    queue: VecDeque::new(),
                    stalled_last: false,
                    held: None,
                })
                .collect(),
            chain_age: vec![0; cfg.tenants],
            pressure: PressureController::new(cfg.pressure),
            current_level: PressureLevel::Nominal,
            emergency_requested: false,
            arrivals_left: cfg.requests,
            next_conn: 0,
            next_lru: 0,
            rng_arrivals: SplitMix64(seed ^ 0xa11c_0de5),
            counters: ServeCounters::default(),
            latencies: Vec::new(),
            latency_hist: wbe_telemetry::histogram("serve.request.latency_steps"),
        };
        Ok((mix, shared))
    }

    /// A connection steps while it has queued work or owes the protocol
    /// a poll.
    fn has_duty(w: &ServeWorld, tid: usize) -> bool {
        !w.mix.conns[tid].queue.is_empty() || w.cycle.owes_poll(tid)
    }

    fn drained(w: &ServeWorld) -> bool {
        w.mix.arrivals_left == 0 && w.mix.conns.iter().all(|c| c.queue.is_empty())
    }

    fn stw_due(&self) -> bool {
        self.emergency_requested
    }

    /// The open-loop generator's arrival window, every
    /// `arrival_interval` steps until the requests run out.
    fn before_pick(w: &mut ServeWorld) {
        if w.step.is_multiple_of(w.mix.cfg.arrival_interval as usize) && w.mix.arrivals_left > 0 {
            w.arrival_window();
        }
    }

    /// A safepoint poll when one is due (or when idle with protocol
    /// duties pending), a forfeited slice under throttling, else one
    /// unit of request work.
    fn thread_step(w: &mut ServeWorld, tid: usize) {
        let idle = w.mix.conns[tid].queue.is_empty();
        let poll_due = w.cycle.since_poll(tid) >= w.mix.cfg.poll_interval;
        if idle || poll_due {
            cycle::poll(w, tid, false);
            return;
        }
        let m = &mut w.mix;
        if m.current_level >= PressureLevel::Throttling && !m.conns[tid].stalled_last {
            // Backpressure: forfeit this slice. The open-loop generator
            // keeps arriving, so the queue (and latency) grows — which
            // is the point: the mutator burns less, the marker catches
            // up.
            m.conns[tid].stalled_last = true;
            m.counters.throttle_stalls += m.pressure.note_throttle_stall();
            return;
        }
        m.conns[tid].stalled_last = false;
        m.counters.ops += 1;
        w.cycle.count_op(tid);
        let Some(mut req) = w.mix.conns[tid].queue.front().copied() else {
            return;
        };
        w.request_op(tid, &req);
        req.ops_left -= 1;
        let m = &mut w.mix;
        if req.ops_left == 0 {
            m.conns[tid].queue.pop_front();
            m.counters.completed += 1;
            let latency = (w.step - req.arrived_at) as u64;
            m.latencies.push(latency);
            m.latency_hist.record(latency);
            if w.cycles > req.pauses_at_admit {
                m.counters.stw_overlapped += 1;
            }
        } else {
            *m.conns[tid].queue.front_mut().expect("front exists") = req;
        }
    }

    /// The ladder as the marker's host policy: at `Pacing` or above the
    /// idle countdown collapses (the cycle arms now) and the marking
    /// budget doubles; at its final rung, a forced stop-the-world
    /// collection as one atomic step, whatever the marker was doing.
    fn marker_ctl(w: &mut ServeWorld) -> Option<MarkerCtl> {
        let step = w.step;
        let m = &mut w.mix;
        if m.emergency_requested {
            m.emergency_requested = false;
            m.pressure.note_emergency_pause();
            m.counters.emergency_stw += 1;
            wbe_telemetry::event!(
                "serve.pressure.emergency_stw",
                "forced collection step {step}"
            );
            return None;
        }
        let pacing = m.current_level >= PressureLevel::Pacing;
        if pacing && matches!(w.cycle.phase(), CyclePhase::Idle { countdown } if countdown > 0) {
            m.pressure.note_pace_start();
            wbe_telemetry::event!("serve.pressure.pace_start", "cycle armed early step {step}");
        }
        let budget = m.cfg.mark_budget.saturating_mul(if pacing { 2 } else { 1 });
        Some(MarkerCtl {
            arm_now: Self::drained(w) || pacing,
            give_up_arm: false,
            budget,
        })
    }

    /// A forced collection changed occupancy: the ladder looks again.
    fn marker_stepped(w: &mut ServeWorld, forced: bool) {
        if forced {
            w.observe_pressure();
        }
    }

    fn local_roots(&self) -> impl Iterator<Item = GcRef> + '_ {
        self.conns.iter().filter_map(|c| c.held)
    }

    fn on(w: &mut ServeWorld, event: CycleEvent) {
        let c = &mut w.mix.counters;
        match event {
            CycleEvent::Logged => c.satb_logged += 1,
            CycleEvent::Flushed(..) => c.flushes += 1,
            CycleEvent::Acked(_) => c.safepoint_acks += 1,
            CycleEvent::Parked => c.parks += 1,
            CycleEvent::Marked(Some(did)) => c.mark_work += did as u64,
            // A collection changed occupancy: the ladder observes it
            // before any connection resumes.
            CycleEvent::Ended(pause, swept) => {
                c.pause_work += pause.work_units() as u64;
                c.swept += swept as u64;
                wbe_telemetry::event!(
                    "serve.gc.stw",
                    "cycle {} pause {} swept {swept} step {}",
                    w.cycles,
                    pause.work_units(),
                    w.step
                );
                w.observe_pressure();
            }
            // The rest is what only the lists mix reports.
            _ => {}
        }
    }

    fn finish(mut w: ServeWorld) -> ServeOutcome {
        w.mix.pressure.publish_metrics();
        let counters = ServeCounters {
            steps: w.step as u64,
            cycles: w.cycles,
            ..w.mix.counters
        };
        counters.publish();
        let m = w.mix;
        ServeOutcome {
            counters,
            latencies: m.latencies,
            transitions: m.pressure.transitions().to_vec(),
            pressure: m.pressure.stats,
            high_water: m.pressure.high_water(),
            violations: w.violations,
        }
    }

    fn unbuilt(violation: ScheduleViolation) -> ServeOutcome {
        let violations = vec![violation];
        ServeOutcome {
            violations,
            ..ServeOutcome::default()
        }
    }
}

/// Runs one serve world to completion. Fully deterministic: equal
/// configurations give equal outcomes, bit for bit.
pub fn run_serve(cfg: &ServeWorldConfig) -> ServeOutcome {
    sched::run::<ServeMix>(cfg, &SchedulePolicy::Random { seed: cfg.seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light() -> ServeWorldConfig {
        ServeWorldConfig {
            pressure: PressureConfig::with_budget(1_000_000),
            ..ServeWorldConfig::default()
        }
    }

    fn overloaded() -> ServeWorldConfig {
        ServeWorldConfig {
            requests: 2000,
            arrivals_per_window: 6,
            request_ops: 8,
            scenario: ServeScenario::Session,
            pressure: PressureConfig::with_budget(220),
            ..ServeWorldConfig::default()
        }
    }

    #[test]
    fn light_load_stays_nominal_and_completes_everything() {
        let out = run_serve(&light());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.high_water, PressureLevel::Nominal);
        assert_eq!(out.counters.shed, 0);
        assert_eq!(out.counters.completed, out.counters.admitted);
        assert_eq!(out.counters.offered, 256);
        assert_eq!(out.latencies.len() as u64, out.counters.completed);
        assert!(out.counters.cycles > 0, "GC ran");
    }

    #[test]
    fn overload_walks_the_ladder_in_order() {
        let out = run_serve(&overloaded());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.high_water, PressureLevel::Emergency);
        // Every rung was entered, each with its own reason, and the
        // *first* occurrence of each ascend reason is in ladder order.
        let order: Vec<&str> = [
            PressureLevel::Pacing,
            PressureLevel::Throttling,
            PressureLevel::Shedding,
            PressureLevel::Emergency,
        ]
        .iter()
        .map(|l| l.ascend_reason())
        .collect();
        let firsts: Vec<usize> = order
            .iter()
            .map(|r| {
                out.transitions
                    .iter()
                    .position(|t| t.reason == *r)
                    .unwrap_or_else(|| panic!("rung reason {r} never fired"))
            })
            .collect();
        assert!(
            firsts.windows(2).all(|w| w[0] < w[1]),
            "rungs out of order: {firsts:?}"
        );
        for l in [
            PressureLevel::Pacing,
            PressureLevel::Throttling,
            PressureLevel::Shedding,
            PressureLevel::Emergency,
        ] {
            assert!(out.pressure.entries(l) >= 1, "{l} never entered");
        }
        assert!(out.counters.shed > 0, "admission control shed requests");
        assert!(out.counters.throttle_stalls > 0, "mutators were throttled");
        assert!(out.pressure.pace_starts > 0, "marking was paced early");
        assert!(out.counters.emergency_stw > 0, "final rung reached");
    }

    #[test]
    fn same_config_same_outcome() {
        for cfg in [light(), overloaded()] {
            let a = run_serve(&cfg);
            let b = run_serve(&cfg);
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.latencies, b.latencies);
            assert_eq!(a.transitions, b.transitions);
            assert_eq!(a.digest(), b.digest());
        }
        let mut other = overloaded();
        other.seed ^= 1;
        assert_ne!(
            run_serve(&overloaded()).digest(),
            run_serve(&other).digest(),
            "different seeds diverge"
        );
    }

    #[test]
    fn overload_bursts_compose_from_the_fault_plan() {
        let cfg = ServeWorldConfig {
            fault: Some(FaultConfig {
                overload_burst_pm: 500,
                overload_burst_len: 8,
                // Quiet the other knobs so only bursts perturb the run.
                defer_start_pm: 0,
                early_start_pm: 0,
                skip_step_pm: 0,
                drain_boost_pm: 0,
                alloc_fail_pm: 0,
                ..FaultConfig::from_seed(77)
            }),
            ..light()
        };
        let out = run_serve(&cfg);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.counters.overload_bursts > 0, "no burst ever fired");
        assert_eq!(run_serve(&cfg).digest(), out.digest());
    }

    #[test]
    fn paced_and_boosted_mark_budget_saturates() {
        // Pacing doubles the budget and every slice takes the drain
        // boost (×16) on top: both scalings must saturate, where an
        // unchecked `*=` panics a debug build.
        for mark_budget in [usize::MAX / 2, usize::MAX] {
            let cfg = ServeWorldConfig {
                mark_budget,
                fault: Some(FaultConfig {
                    drain_boost_pm: 1000,
                    skip_step_pm: 0,
                    ..FaultConfig::from_seed(3)
                }),
                ..overloaded()
            };
            let out = run_serve(&cfg);
            assert!(out.violations.is_empty(), "{:?}", out.violations);
            assert!(out.pressure.pace_starts > 0, "the ladder paced");
        }
    }

    #[test]
    fn shedding_caps_queue_growth() {
        let out = run_serve(&overloaded());
        // Offered = admitted + shed, and everything admitted completed
        // (the generator is finite, so queues eventually drain).
        assert_eq!(
            out.counters.offered,
            out.counters.admitted + out.counters.shed
        );
        assert_eq!(out.counters.completed, out.counters.admitted);
    }

    #[test]
    fn mixes_differ_but_each_is_deterministic() {
        let mut digests = Vec::new();
        for mix in ServeScenario::ALL {
            let cfg = ServeWorldConfig {
                scenario: mix,
                ..light()
            };
            let out = run_serve(&cfg);
            assert!(out.violations.is_empty(), "{mix}: {:?}", out.violations);
            digests.push(out.digest());
        }
        digests.dedup();
        assert_eq!(digests.len(), 3, "mixes produced identical worlds");
    }
}
