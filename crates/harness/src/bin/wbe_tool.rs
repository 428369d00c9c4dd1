//! `wbe-tool` — command-line front end for `.wbe` IR files.
//!
//! ```text
//! wbe_tool verify  <file.wbe>                      validate + type-check
//! wbe_tool verify  [workload ...] --faults N [--seed S] [--scale F]
//!                  [--demo-unsound]                differential fault harness
//! wbe_tool dump    <file.wbe|workload>             pretty-print the IR
//! wbe_tool analyze <file.wbe|workload> [--mode A|F] [--inline N] [--nos]
//! wbe_tool run     <file.wbe|workload> <method> [int args...] [--elide] [--fuel N]
//! wbe_tool export  <workload>                      print a workload as .wbe text
//! wbe_tool explain <file.wbe|workload> [--method M] [--site N]
//!                  [--mode A|F] [--inline N] [--nos]
//! wbe_tool ledger  <file.wbe|workload> [--out l.ndjson] [--demo-flip]
//!                  [--mode A|F] [--inline N] [--nos]
//! wbe_tool ledger-diff <old.ndjson> <new.ndjson>
//! wbe_tool bench   --check-baselines [--update] [--baselines PATH]
//! wbe_tool profile [--workload W]... [--top N] [--scale S]
//!                  [--format text|ndjson] [--out F] [--slo-max-pause N]
//!                  [--slo-p99-pause N]
//! wbe_tool oracle  [--workload W]... [--scale S] [--top N]
//!                  [--format text|ndjson] [--out F]
//! wbe_tool report  [workload|file.wbe ...] [--metrics-out m.json]
//!                  [--trace-out t.ndjson] [--chrome-trace t.json]
//!                  [--format text|ndjson] [--scale S]
//! wbe_tool soak    [--rounds N] [--seed S] [--escalate] [--scale F]
//!                  [--max-attempts K] [--threshold D] [--unrecoverable]
//!                  [--format text|ndjson] [--out F] [--flight-out T]
//! wbe_tool serve   [--tenants T] [--connections C] [--mix session|cache|churn]
//!                  [--requests N] [--arrivals A] [--request-ops K] [--seed S]
//!                  [--heap-budget B] [--chaos] [--overload-pm PM]
//!                  [--slo-p99 N] [--slo-shed-pct P]
//!                  [--format text|ndjson] [--out F] [--trace-out T]
//! wbe_tool mcheck  [--threads N] [--schedules K] [--seed S]
//!                  [--scenario chain|churn|shared] [--systematic]
//!                  [--preempt-bound B] [--demo-unsound] [--fault-seed S]
//!                  [--replay SEED | --replay-prefix HEX]
//!                  [--trace-out trace.json]
//! ```
//!
//! Wherever a file is expected, a built-in workload name (jess, db,
//! javac, mtrt, jack, jbb) is also accepted.
//!
//! `report` exercises the full pipeline (compile → analyze → run with a
//! deterministic GC policy) over the named workloads — the standard
//! suite by default — and prints a telemetry report: counters, phase
//! spans, and the GC pause-time histogram. `--metrics-out` writes the
//! registry snapshot as JSON; `--trace-out` enables event tracing and
//! writes the span stream as NDJSON; `--chrome-trace` writes the same
//! stream as Chrome trace-event JSON (openable in `chrome://tracing`
//! or Perfetto); `--format ndjson` prints the metrics in the same
//! NDJSON shape the experiments exporter emits. File sources are
//! compiled and analyzed but not executed (they have no standard entry
//! point).
//!
//! `explain` is the human view of the elision provenance ledger: the
//! verdict at every barrier-relevant store site with its evidence
//! chain, and for kept barriers the first failing elision condition.
//! Given a built-in workload it also runs it, once, under the baseline
//! configuration with the necessity oracle on, and prints under each
//! stanza what happened there: executions, null pre-values, barrier
//! cycles, and for a kept site how many of its barrier executions
//! marking needed, with the refuting witness when none did. A `.wbe`
//! file has no entry point and gets the static view only. `ledger`
//! emits the machine view (NDJSON, deterministic);
//! `ledger-diff` compares two such files site-by-site and exits 1 on a
//! regression (newly-kept, newly-degraded, or vanished elided site);
//! `bench --check-baselines` re-measures the standard suite's numbers
//! and compares them line for line with `baselines/suite.ndjson`.
//!
//! `serve` runs the GC-aware overload-protection world: an open-loop
//! request generator (arrivals never slow down for the server) drives
//! `--connections` mutator machines over the deterministic stepped
//! scheduler while the pressure ladder defends `--heap-budget`
//! occupancy — pacing marking earlier, throttling allocation, shedding
//! requests, and finally forcing an emergency stop-the-world, each
//! transition carrying a machine-readable reason. Exit 0 when the run
//! stayed nominal and met its SLOs; 1 when the ladder engaged but SLOs
//! held (graceful degradation — the ladder working); 2 on an SLO
//! violation (`--slo-p99` steps, `--slo-shed-pct` percent) or a
//! soundness violation. Equal options produce byte-identical NDJSON.
//!
//! `profile` joins the interpreter's per-site dynamic barrier counters
//! with the provenance ledger: per-keep-code execution/cycle
//! attribution with headroom estimates, the hottest kept sites, and
//! per-phase GC pause percentiles (p50/p90/p99/p99.9/max in work
//! units). `--slo-max-pause N` turns the report into a gate: exit 1
//! when any stop-the-world pause exceeded `N` work units;
//! `--slo-p99-pause N` gates the 99th-percentile STW pause instead
//! (the two compose). `--format ndjson`
//! output is deterministic (byte-identical across runs).
//!
//! `oracle` is the third observability plane, joining the static
//! ledger (what the analysis decided) and the cost profiler (what the
//! kept barriers cost) with *necessity*: which kept-barrier executions
//! actually contributed to marking. Every kept barrier reports its
//! SATB enqueue verdict (necessary, or vacuous — marking idle, null
//! old value, already marked, duplicate), each marking cycle is
//! audited against a snapshot-reachability check at remark, and a
//! heap side-table of runtime witnesses (thread escape, observed
//! nulls) supplies the refutation for each never-necessary site. The
//! report gives per-site necessity rates, the suite-wide
//! dynamic-upper-bound elision rate next to the frozen static 25.770%,
//! and a ranked worklist of kept sites no execution ever needed.
//! `--format ndjson` is deterministic (`tests/site_views.rs` pins it).
//! `explain <workload>` shows the same verdicts site by site, under
//! the static stanzas.
//!
//! ## Exit codes
//!
//! One contract across every gate-style subcommand; 0 is always
//! success and 2 is always "the tool could not run the check"
//! (usage, I/O, unknown workload), never a finding. 1 is the gate
//! firing while the run itself stayed sound — except `serve`, whose
//! ladder makes degradation the *expected* defense (so 1) and reserves
//! 2 for SLO/soundness failure.
//!
//! | command | 0 | 1 | 2 |
//! |---------|---|---|---|
//! | `verify <file>` | valid + type-checks | invalid | usage/unreadable |
//! | `verify --faults` | all schedules sound | divergence/violation | usage/unknown workload |
//! | `ledger-diff` | no regression | regression | usage/IO/parse |
//! | `bench --check-baselines` | file matches | a line differs | usage/IO |
//! | `profile` | SLOs met | pause SLO violated | usage/run error |
//! | `oracle` | report produced | — | usage/run error |
//! | `mcheck` | all schedules sound | violation found | usage |
//! | `soak` | clean | degraded > threshold | unrecovered trap |
//! | `serve` | nominal, SLOs met | ladder engaged, SLOs held | SLO/soundness violation |

use std::process::exit;

use wbe_analysis::nullsame;
use wbe_harness::site::{observe, RunSpec};
use wbe_interp::{
    BarrierConfig, BarrierMode, BarrierStats, ElidedBarriers, ElisionKind, Interp, Value,
};
use wbe_ir::display::{method_display, program_display};
use wbe_ir::{parse_program, Program};
use wbe_opt::{compile, compile_with_dump, OptMode, PipelineConfig};

fn usage() -> ! {
    eprintln!(
        "usage: wbe_tool <verify|dump|analyze|explain|ledger|ledger-diff|run|export|report|bench|profile|oracle|soak|serve|mcheck> [<file.wbe|workload>] [options]\n\
         verify:  <file.wbe>  — or —  [workload ...] --faults N [--seed S] [--scale F] [--demo-unsound]\n\
         analyze: [--mode A|F] [--inline N] [--nos]\n\
         explain: [--method M] [--site N] [--mode A|F] [--inline N] [--nos]\n\
         ledger:  [--out l.ndjson] [--demo-flip] [--mode A|F] [--inline N] [--nos]\n\
         ledger-diff: <old.ndjson> <new.ndjson>\n\
         run:     <method> [int args...] [--elide] [--fuel N]\n\
         report:  [workload|file.wbe ...] [--metrics-out m.json] [--trace-out t.ndjson]\n\
                  [--chrome-trace t.json] [--format text|ndjson] [--scale S]\n\
         bench:   --check-baselines [--update] [--baselines PATH]\n\
         profile: [--workload W]... [--top N] [--scale S] [--format text|ndjson]\n\
                  [--out F] [--slo-max-pause N] [--slo-p99-pause N]\n\
         oracle:  [--workload W]... [--scale S] [--top N] [--format text|ndjson] [--out F]\n\
         soak:    [--rounds N] [--seed S] [--escalate] [--scale F] [--max-attempts K]\n\
                  [--threshold D] [--unrecoverable] [--format text|ndjson] [--out F]\n\
                  [--flight-out T]\n\
         serve:   [--tenants T] [--connections C] [--mix session|cache|churn] [--requests N]\n\
                  [--arrivals A] [--request-ops K] [--seed S] [--heap-budget B] [--chaos]\n\
                  [--overload-pm PM] [--slo-p99 N] [--slo-shed-pct P] [--format text|ndjson]\n\
                  [--out F] [--trace-out T]\n\
         {}\n\
         exit codes — 0 success, 2 tool could not run (usage/IO/unknown workload):\n\
           verify <file>:   1 invalid          verify --faults: 1 divergence found\n\
           ledger-diff:     1 regression       bench:           1 baseline drift\n\
           profile:         1 pause SLO violated                mcheck: 1 violation found\n\
           soak:            1 degraded > threshold, 2 unrecovered trap\n\
           serve:           1 ladder engaged (SLOs held), 2 SLO/soundness violation\n\
           oracle, run, report: no exit-1 findings",
        wbe_harness::mcheck::USAGE
    );
    exit(2)
}

/// One subcommand's arguments, read left to right. A flag whose value
/// is missing or does not parse is a usage error (exit 2).
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn new(rest: &'a [String]) -> Self {
        Args(rest.iter())
    }

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value of the flag just read.
    fn value<T: std::str::FromStr>(&mut self) -> T {
        self.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    }

    /// `--format text|ndjson`: whether NDJSON was asked for.
    fn format(&mut self) -> bool {
        match self.next() {
            Some("text") => false,
            Some("ndjson") => true,
            _ => usage(),
        }
    }
}

/// Writes `body` to `path`; a failure is the tool failing, not a
/// finding (exit 2).
fn write_or_exit(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {path}: {e}");
        exit(2);
    }
}

fn load(source: &str) -> Program {
    if let Some(w) = wbe_workloads::by_name(source) {
        return w.program;
    }
    let text = std::fs::read_to_string(source).unwrap_or_else(|e| {
        eprintln!("cannot read {source}: {e}");
        exit(2)
    });
    parse_program(&text).unwrap_or_else(|e| {
        eprintln!("{source}: {e}");
        exit(1)
    })
}

fn check(program: &Program, source: &str) {
    if let Err(e) = program.validate() {
        eprintln!("{source}: validation failed: {e}");
        exit(1);
    }
    if let Err(e) = wbe_ir::type_check_program(program) {
        eprintln!("{source}: type check failed: {e}");
        exit(1);
    }
}

/// Prints `body`, or writes it where `--out` said and notes that on
/// stderr.
fn emit(out: Option<&str>, body: &str, what: &str) {
    match out {
        Some(path) => {
            write_or_exit(path, body);
            eprintln!("{what} written to {path}");
        }
        None => print!("{body}"),
    }
}

/// `wbe_tool report`: run workloads end-to-end under telemetry and
/// export the collected metrics and (optionally) the trace stream.
fn report(rest: &[String]) {
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut chrome_trace: Option<String> = None;
    let mut ndjson = false;
    let mut scale = 0.25f64;
    let mut sources: Vec<String> = Vec::new();
    let mut args = Args::new(rest);
    while let Some(a) = args.next() {
        match a {
            "--metrics-out" => metrics_out = Some(args.value()),
            "--trace-out" => trace_out = Some(args.value()),
            "--chrome-trace" => chrome_trace = Some(args.value()),
            "--format" => ndjson = args.format(),
            "--scale" => scale = args.value(),
            s if s.starts_with("--") => usage(),
            s => sources.push(s.to_string()),
        }
    }
    wbe_telemetry::configure(wbe_telemetry::TelemetryConfig {
        metrics: true,
        tracing: trace_out.is_some() || chrome_trace.is_some(),
    });

    // Built-in workloads run end-to-end (instrumenting analysis, interp,
    // and heap); bare .wbe files are compiled and analyzed only.
    let mut gc_total = wbe_heap::gc::GcStats::default();
    let mut barriers = BarrierStats::default();
    let mut run_builtin = |w: &wbe_workloads::Workload| {
        let obs = observe(w, &RunSpec::baseline(scale))
            .completed()
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1)
            });
        gc_total.merge(&obs.gc);
        barriers.merge(&obs.stats.barrier);
        println!(
            "{:<8} barriers: {}; gc: {}",
            obs.workload, obs.stats.barrier, obs.gc
        );
    };
    if sources.is_empty() {
        for w in wbe_workloads::standard_suite() {
            run_builtin(&w);
        }
    } else {
        for s in &sources {
            if let Some(w) = wbe_workloads::by_name(s) {
                run_builtin(&w);
            } else {
                let program = load(s);
                check(&program, s);
                let compiled = compile(&program, &PipelineConfig::default());
                println!(
                    "{s:<8} analyzed: {} elided sites, code size {} bytes",
                    compiled.elided_sites().len(),
                    compiled.code_size()
                );
            }
        }
    }
    println!("suite    barriers: {barriers}; gc: {gc_total}");
    println!();

    let snap = wbe_telemetry::registry::global().snapshot();
    if ndjson {
        print!("{}", wbe_telemetry::export::metrics_ndjson(&snap));
    } else {
        print!("{}", wbe_telemetry::export::metrics_text(&snap));
    }
    if let Some(path) = &metrics_out {
        if let Err(e) = wbe_telemetry::export::write_metrics_json(std::path::Path::new(path)) {
            eprintln!("cannot write {path}: {e}");
            exit(2);
        }
        println!("metrics written to {path}");
    }
    let path = std::path::Path::new;
    let (ndjson, chrome) = (
        trace_out.as_deref().map(path),
        chrome_trace.as_deref().map(path),
    );
    if let Err(e) = wbe_telemetry::export::write_traces(ndjson, chrome) {
        eprintln!("{e}");
        exit(2);
    }
    for path in [&trace_out, &chrome_trace].into_iter().flatten() {
        println!("trace written to {path}");
    }
}

/// Flags shared by `explain` and `ledger`: the pipeline whose ledger is
/// shown, and what to show of it.
struct LedgerArgs {
    mode: OptMode,
    inline: usize,
    nos: bool,
    method: Option<String>,
    site: Option<usize>,
    out: Option<String>,
    demo_flip: bool,
}

fn parse_ledger_args(rest: &[String]) -> LedgerArgs {
    let mut a = LedgerArgs {
        mode: OptMode::Full,
        inline: 100,
        nos: false,
        method: None,
        site: None,
        out: None,
        demo_flip: false,
    };
    let mut args = Args::new(rest);
    while let Some(arg) = args.next() {
        match arg {
            "--mode" => match args.next() {
                Some("A") => a.mode = OptMode::Full,
                Some("F") => a.mode = OptMode::FieldOnly,
                _ => usage(),
            },
            "--inline" => a.inline = args.value(),
            "--nos" => a.nos = true,
            "--method" => a.method = Some(args.value()),
            "--site" => a.site = Some(args.value()),
            "--out" => a.out = Some(args.value()),
            "--demo-flip" => a.demo_flip = true,
            _ => usage(),
        }
    }
    a
}

fn build_ledger_or_exit(program: &Program, a: &LedgerArgs) -> wbe_analysis::ElisionLedger {
    wbe_harness::ledger::build_ledger(program, a.mode, a.inline, a.nos).unwrap_or_else(|| {
        eprintln!("mode runs no analysis, so there is no ledger");
        exit(2)
    })
}

/// `wbe_tool ledger-diff OLD NEW`: site-level comparison of two NDJSON
/// ledgers. Exit 0 clean/improvements, 1 regressions, 2 I/O errors.
fn ledger_diff(old_path: &str, new_path: &str) -> i32 {
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            exit(2)
        }
    };
    let parse = |path: &str, text: &str| match wbe_harness::ledger::parse_ledger(text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            exit(2)
        }
    };
    let old = parse(old_path, &read(old_path));
    let new = parse(new_path, &read(new_path));
    let d = wbe_harness::ledger::diff_ledgers(&old, &new);
    print!("{d}");
    if d.regressions() > 0 {
        1
    } else {
        0
    }
}

/// `wbe_tool profile`: dynamic barrier-cost attribution (ledger join),
/// per-phase pause percentiles, and the optional pause SLO gate.
fn profile(rest: &[String]) -> i32 {
    let mut opts = wbe_harness::profile::ProfileOptions::default();
    let mut ndjson = false;
    let mut out: Option<String> = None;
    let mut args = Args::new(rest);
    while let Some(a) = args.next() {
        match a {
            "--workload" => opts.workloads.push(args.value()),
            "--top" => opts.top = args.value(),
            "--scale" => opts.scale = args.value(),
            "--slo-max-pause" => opts.slo_max_pause = Some(args.value()),
            "--slo-p99-pause" => opts.slo_p99_pause = Some(args.value()),
            "--format" => ndjson = args.format(),
            "--out" => out = Some(args.value()),
            _ => usage(),
        }
    }
    let p = wbe_harness::profile::measure(&opts).unwrap_or_else(|e| {
        eprintln!("profile: {e}");
        exit(2)
    });
    let body = if ndjson {
        wbe_harness::profile::to_ndjson(&p)
    } else {
        wbe_harness::profile::to_text(&p)
    };
    emit(out.as_deref(), &body, "profile");
    let mut code = 0;
    if !p.slo_max_ok() {
        eprintln!(
            "SLO VIOLATION: max STW pause {} > budget {}",
            p.max_stw_pause,
            p.slo_max_pause.unwrap_or(0)
        );
        code = 1;
    }
    if !p.slo_p99_ok() {
        eprintln!(
            "SLO VIOLATION: p99 STW pause {} > budget {}",
            p.p99_stw_pause,
            p.slo_p99_pause.unwrap_or(0)
        );
        code = 1;
    }
    code
}

/// `wbe_tool oracle`: the barrier-necessity oracle — per-site necessity
/// verdicts for every executed kept barrier, the dynamic-upper-bound
/// elision rate, and the ranked never-necessary worklist.
fn oracle(rest: &[String]) -> i32 {
    let mut opts = wbe_harness::oracle::OracleOptions::default();
    let mut ndjson = false;
    let mut out: Option<String> = None;
    let mut args = Args::new(rest);
    while let Some(a) = args.next() {
        match a {
            "--workload" => opts.workloads.push(args.value()),
            "--scale" => opts.scale = args.value(),
            "--top" => opts.top = args.value(),
            "--format" => ndjson = args.format(),
            "--out" => out = Some(args.value()),
            _ => usage(),
        }
    }
    let suite = wbe_harness::oracle::measure(&opts).unwrap_or_else(|e| {
        eprintln!("oracle: {e}");
        exit(2)
    });
    let body = if ndjson {
        wbe_harness::oracle::to_ndjson(&suite)
    } else {
        wbe_harness::oracle::to_text(&suite)
    };
    emit(out.as_deref(), &body, "oracle report");
    0
}

/// `wbe_tool bench`: baseline-gated suite measurement.
fn bench(rest: &[String]) -> i32 {
    let mut check = false;
    let mut update = false;
    let mut path = wbe_harness::baselines::DEFAULT_PATH.to_string();
    let mut args = Args::new(rest);
    while let Some(a) = args.next() {
        match a {
            "--check-baselines" => check = true,
            "--update" => update = true,
            "--baselines" => path = args.value(),
            _ => usage(),
        }
    }
    if !check {
        usage();
    }
    wbe_harness::baselines::run_check(std::path::Path::new(&path), update)
}

/// `wbe_tool soak`: the chaos soak — the whole suite under seeded
/// (optionally escalating) fault schedules with invariant verification
/// and self-healing recovery on every run. Exit 0 clean, 1 when more
/// runs degraded into barrier panic mode than `--threshold` allows,
/// 2 on an unrecovered trap. On failure the flight-recorder ring is
/// dumped as Chrome trace JSON to `--flight-out` and each failed run's
/// replay handle is printed.
fn soak(rest: &[String]) -> i32 {
    use wbe_harness::soak::{run_soak, SoakOptions};
    let mut opts = SoakOptions::default();
    let mut out: Option<String> = None;
    let mut flight_out = "soak-flight.trace.json".to_string();
    let mut args = Args::new(rest);
    while let Some(a) = args.next() {
        match a {
            "--rounds" => opts.rounds = args.value(),
            "--seed" => opts.seed = args.value(),
            "--scale" => opts.scale = args.value(),
            "--max-attempts" => opts.max_attempts = args.value(),
            "--threshold" => opts.threshold = args.value(),
            "--escalate" => opts.escalate = true,
            "--unrecoverable" => opts.unrecoverable = true,
            "--format" => opts.ndjson = args.format(),
            "--out" => out = Some(args.value()),
            "--flight-out" => flight_out = args.value(),
            _ => usage(),
        }
    }
    let outcome = run_soak(&opts);
    emit(out.as_deref(), &outcome.render(&opts), "soak report");
    if outcome.exit_code != 0 {
        if let Err(e) = std::fs::write(&flight_out, outcome.flight_chrome_trace()) {
            eprintln!("cannot write flight recorder to {flight_out}: {e}");
        } else {
            eprintln!(
                "flight recorder: {} events ({} discarded by the ring) -> {flight_out}",
                outcome.flight.len(),
                outcome.flight_discarded
            );
        }
    }
    outcome.exit_code
}

/// `wbe_tool serve`: the GC-aware overload-protection world. Exit 0
/// when the run stayed nominal and met its SLOs, 1 when the pressure
/// ladder engaged but every SLO given held, 2 on an SLO or soundness
/// violation. `--trace-out` writes the run's trace (ladder transitions,
/// GC phases) as Chrome trace JSON.
fn serve(rest: &[String]) -> i32 {
    use wbe_harness::serve::{run_serve_cmd, ServeOptions};
    let mut opts = ServeOptions::default();
    let mut out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = Args::new(rest);
    while let Some(a) = args.next() {
        match a {
            "--tenants" => opts.tenants = args.value(),
            "--connections" => opts.connections = args.value(),
            "--mix" => opts.mix = args.value(),
            "--requests" => opts.requests = args.value(),
            "--arrivals" => opts.arrivals_per_window = args.value(),
            "--request-ops" => opts.request_ops = args.value(),
            "--seed" => opts.seed = args.value(),
            "--heap-budget" => opts.heap_budget = args.value(),
            "--chaos" => opts.chaos = true,
            "--overload-pm" => opts.overload_pm = args.value(),
            "--slo-p99" => opts.slo_p99 = Some(args.value()),
            "--slo-shed-pct" => opts.slo_shed_pct = Some(args.value()),
            "--format" => opts.ndjson = args.format(),
            "--out" => out = Some(args.value()),
            "--trace-out" => trace_out = Some(args.value()),
            _ => usage(),
        }
    }
    let max = wbe_heap::sched::MAX_THREADS;
    if !(1..=max).contains(&opts.connections) {
        eprintln!("serve: --connections must be between 1 and {max}");
        usage()
    }
    let report = run_serve_cmd(&opts);
    emit(out.as_deref(), &report.render(), "serve report");
    if let Some(path) = &trace_out {
        write_or_exit(path, &report.trace_chrome_json());
        eprintln!(
            "serve trace written to {path} ({} events)",
            report.trace.len()
        );
    }
    report.exit_code
}

/// `wbe_tool verify` with fault flags: the differential fault-injection
/// harness over built-in workloads. Exits 1 if any workload fails
/// (observable divergence, trap, invariant violation, or an undetected
/// deliberately-unsound elision under `--demo-unsound`).
fn verify_faults(rest: &[String]) {
    use wbe_harness::verify::{
        demo_unsound_detection, verify_workload, DemoOutcome, VerifyOptions,
    };
    let mut opts = VerifyOptions::default();
    let mut demo_unsound = false;
    let mut names: Vec<String> = Vec::new();
    let mut args = Args::new(rest);
    while let Some(a) = args.next() {
        match a {
            "--faults" => opts.schedules = args.value(),
            "--seed" => opts.seed = args.value(),
            "--scale" => opts.scale = args.value(),
            "--demo-unsound" => demo_unsound = true,
            s if s.starts_with("--") => usage(),
            s => names.push(s.to_string()),
        }
    }
    let workloads: Vec<wbe_workloads::Workload> = if names.is_empty() {
        wbe_workloads::standard_suite()
    } else {
        names
            .iter()
            .map(|n| {
                wbe_workloads::by_name(n).unwrap_or_else(|| {
                    eprintln!("'{n}' is not a built-in workload (fault verification needs one)");
                    exit(2)
                })
            })
            .collect()
    };
    println!(
        "differential fault verification: {} schedules, seed {}, scale {}",
        opts.schedules, opts.seed, opts.scale
    );
    let mut failed = false;
    for w in &workloads {
        let verdict = verify_workload(w, &opts);
        println!("{verdict}");
        failed |= !verdict.passed();
    }
    if demo_unsound {
        for w in &workloads {
            match demo_unsound_detection(w, &opts) {
                DemoOutcome::Detected(msg) => println!("demo     PASS {msg}"),
                DemoOutcome::NoCandidate(msg) => println!("demo     SKIP {msg}"),
                DemoOutcome::Missed(msg) => {
                    println!("demo     FAIL {msg}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        eprintln!("verification FAILED");
        exit(1);
    }
    println!("verification passed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "report" => report(rest),
        "bench" => exit(bench(rest)),
        "profile" => exit(profile(rest)),
        "oracle" => exit(oracle(rest)),
        "ledger-diff" => match rest {
            [old, new, ..] => exit(ledger_diff(old, new)),
            _ => usage(),
        },
        "soak" => exit(soak(rest)),
        "serve" => exit(serve(rest)),
        "mcheck" => {
            let opts = wbe_harness::mcheck::parse(rest).unwrap_or_else(|e| {
                eprintln!("mcheck: {e}");
                usage()
            });
            exit(wbe_harness::mcheck::run(&opts));
        }
        // `verify` dispatches on flavour: any fault flag selects the
        // differential harness; otherwise it is the classic file check.
        "verify"
            if rest.iter().any(|a| {
                matches!(
                    a.as_str(),
                    "--faults" | "--seed" | "--scale" | "--demo-unsound"
                )
            }) =>
        {
            verify_faults(rest)
        }
        // Checked before `on_program` loads the argument, so an unknown
        // command never reads, parses or reports on a file.
        c if ON_PROGRAM.contains(&c) => match rest.split_first() {
            Some((source, rest)) => on_program(cmd, source, rest),
            None => usage(),
        },
        _ => usage(),
    }
}

/// The commands that take a `<file.wbe|workload>` first.
const ON_PROGRAM: [&str; 7] = [
    "verify", "dump", "export", "explain", "ledger", "analyze", "run",
];

/// Runs one of the `ON_PROGRAM` commands on `source`.
fn on_program(cmd: &str, source: &str, rest: &[String]) {
    let program = load(source);
    match cmd {
        "verify" => {
            check(&program, source);
            println!(
                "{source}: OK ({} classes, {} methods, {} instructions)",
                program.classes.len(),
                program.methods.len(),
                program.total_size()
            );
        }
        "dump" | "export" => {
            check(&program, source);
            print!("{}", program_display(&program));
        }
        "explain" => {
            check(&program, source);
            let a = parse_ledger_args(rest);
            let (method, site) = (a.method.as_deref(), a.site);
            // A workload has an entry point: run it and show what
            // happened at each site under what was decided there.
            let text = match wbe_workloads::by_name(source) {
                Some(w) => {
                    let spec = RunSpec {
                        pipeline: wbe_harness::ledger::ledger_pipeline(a.mode, a.inline, a.nos),
                        oracle: true,
                        ..RunSpec::baseline(wbe_harness::baselines::SCALE)
                    };
                    let obs = observe(&w, &spec).completed().unwrap_or_else(|e| {
                        eprintln!("{e}");
                        exit(1)
                    });
                    wbe_harness::ledger::explain_sites(&obs.sites(), method, site)
                }
                None => {
                    wbe_harness::ledger::explain(&build_ledger_or_exit(&program, &a), method, site)
                }
            };
            print!("{text}");
        }
        "ledger" => {
            check(&program, source);
            let a = parse_ledger_args(rest);
            let mut ledger = build_ledger_or_exit(&program, &a);
            if a.demo_flip {
                wbe_harness::ledger::demo_flip(&mut ledger);
            }
            let body = ledger.to_ndjson();
            match &a.out {
                Some(path) => {
                    write_or_exit(path, &body);
                    eprintln!(
                        "ledger written to {path} ({} records)",
                        ledger.records.len()
                    );
                }
                None => print!("{body}"),
            }
        }
        "analyze" => {
            check(&program, source);
            let mut mode = OptMode::Full;
            let mut inline = 100usize;
            let mut nos = false;
            let mut dump = false;
            let mut args = Args::new(rest);
            while let Some(a) = args.next() {
                match a {
                    "--mode" => match args.next() {
                        Some("A") => mode = OptMode::Full,
                        Some("F") => mode = OptMode::FieldOnly,
                        Some("B") => mode = OptMode::Baseline,
                        _ => usage(),
                    },
                    "--inline" => inline = args.value(),
                    "--nos" => nos = true,
                    "--dump" => dump = true,
                    _ => usage(),
                }
            }
            let mut cfg = PipelineConfig::new(mode, inline);
            cfg.null_or_same = nos;
            let (compiled, dump_text) = if dump {
                compile_with_dump(&program, &cfg)
            } else {
                (compile(&program, &cfg), None)
            };
            println!("inlined {} calls", compiled.inline_stats.inlined_calls);
            let mut total = 0usize;
            for (mid, m) in compiled.program.iter_methods() {
                let elided = compiled.elided_of(mid);
                let nos_sites = compiled.null_or_same.get(&mid).cloned().unwrap_or_default();
                if elided.is_empty() && nos_sites.is_empty() {
                    continue;
                }
                println!("method {} ({}):", mid, m.name);
                for a in &elided {
                    println!("  {a}: pre-null — barrier removed");
                    total += 1;
                }
                for a in nos_sites.difference(&elided) {
                    println!("  {a}: null-or-same — barrier removed");
                    total += 1;
                }
            }
            println!(
                "{total} barriers removed; code size {} bytes",
                compiled.code_size()
            );
            if dump {
                // Rendered by the compile above, from the fixed points it
                // solved. Baseline mode solved none: dump those now.
                let text = dump_text.unwrap_or_else(|| {
                    let cfg = wbe_analysis::AnalysisConfig::full();
                    compiled
                        .program
                        .iter_methods()
                        .map(|(_, m)| wbe_analysis::dump::dump_method(&compiled.program, m, &cfg))
                        .collect()
                });
                print!("{text}");
            }
        }
        "run" => {
            check(&program, source);
            let mut args = Args::new(rest);
            let method_name: String = args.value();
            let mut int_args: Vec<Value> = Vec::new();
            let mut elide = false;
            let mut fuel = 50_000_000u64;
            while let Some(a) = args.next() {
                match a {
                    "--elide" => elide = true,
                    "--fuel" => fuel = args.value(),
                    n => int_args.push(Value::Int(n.parse().unwrap_or_else(|_| usage()))),
                }
            }
            let Some(m) = program.method_by_name(&method_name) else {
                eprintln!("no method named '{method_name}'");
                exit(1);
            };
            let mid = m.id;
            let bc = if elide {
                let res =
                    wbe_analysis::analyze_program(&program, &wbe_analysis::AnalysisConfig::full());
                let mut elided: ElidedBarriers = res.iter_elided().collect();
                for (nm, sites) in nullsame::analyze_program(&program) {
                    for a in sites {
                        elided.insert_kind(nm, a, ElisionKind::NullOrSame);
                    }
                }
                println!("elided {} sites", elided.len());
                BarrierConfig::with_elision(BarrierMode::Checked, elided)
            } else {
                BarrierConfig::new(BarrierMode::Checked)
            };
            let mut interp = Interp::new(&program, bc);
            match interp.run(mid, &int_args, fuel) {
                Ok(v) => {
                    println!(
                        "result: {}",
                        v.map(|v| v.to_string()).unwrap_or_else(|| "void".into())
                    );
                    println!(
                        "insns: {}, cycles: {}, barrier cycles: {}, elided execs: {}",
                        interp.stats.insns,
                        interp.stats.cycles,
                        interp.stats.barrier_cycles,
                        interp.stats.elided_executions
                    );
                }
                Err(t) => {
                    eprintln!("trap: {t}");
                    // Show the faulting method for context.
                    print!("{}", method_display(&program, program.method(mid)));
                    exit(1);
                }
            }
        }
        _ => unreachable!("main passes only the ON_PROGRAM commands"),
    }
}
