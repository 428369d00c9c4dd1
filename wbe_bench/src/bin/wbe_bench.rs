//! `wbe_bench run` and `wbe_bench compare`; see `README.md` beside the
//! crate.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use wbe_bench_suite::compare::compare;
use wbe_bench_suite::metrics::{self, DEFAULT_SEED, WORKLOADS};
use wbe_bench_suite::report::{self, WorkloadResult};
use wbe_bench_suite::runner::{self, Expected, Options, Reps, Trace};
use wbe_bench_suite::workloads::Scale;

const USAGE: &str = "\
usage: wbe_bench run [--workload W]... [--seed S] [--reps N | --seconds T] [--trace 0|1]
                     [--out F] [--trace-dir D] [--quick] [--check-determinism] [--bless]
       wbe_bench compare A.json B.json

run      measures the named workloads (default: all five, one process each) and
         prints every metric by name with its unit; exits 1 if any check fails.
         --reps N      timed reps per workload (default 15, about 12 s)
         --seconds T   instead of --reps: as many reps as fit in T seconds
         --trace 0     skip the traced pass; --trace 1 spend most of T on it
         --out F       write the versioned JSON document to F
         --trace-dir D write trace-<workload>.ndjson under D
         --quick       work counts / 50 (for the schema test, not for numbers)
         --check-determinism  evaluate every deterministic metric twice and run a second seed
         --bless       record this run's digests in expected/digests.json
compare  judges B against A per workload and end-to-end metric; exits 1 on any
         regression or any rise in fail_ratio.";

/// The issue's 7 reps were of 1.5-3 s; the reps here are about 0.8 s
/// (the driver's run budget), so 15 of them measure as long.
const DEFAULT_REPS: usize = 15;
const EXPECTED_TEXT: &str = include_str!("../../expected/digests.json");
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/digests.json");

struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    reps: Option<Reps>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    part: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    quick: bool,
    check_determinism: bool,
    bless: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        reps: None,
        trace: None,
        out: None,
        part: None,
        trace_dir: None,
        quick: false,
        check_determinism: false,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if metrics::workload(&w).is_none() {
                    return Err(format!("unknown workload `{w}`"));
                }
                a.workloads.push(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                a.reps = Some(Reps::Count(n.max(1)));
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.reps = Some(Reps::Seconds(s));
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out" => a.out = Some(value()?.into()),
            "--part" => a.part = Some(value()?.into()),
            "--trace-dir" => a.trace_dir = Some(value()?.into()),
            "--quick" => a.quick = true,
            "--check-determinism" => a.check_determinism = true,
            "--bless" => a.bless = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

impl RunArgs {
    fn options(&self) -> Options {
        Options {
            seed: self.seed,
            reps: self.reps.unwrap_or(Reps::Count(DEFAULT_REPS)),
            scale: Scale(if self.quick { 50 } else { 1 }),
            trace: match self.trace {
                None => Trace::Full,
                Some(false) => Trace::Skip,
                Some(true) => Trace::Focus,
            },
            trace_dir: self.trace_dir.clone(),
        }
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn part_path(out: &Path, workload: &str) -> PathBuf {
    let mut name = out.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{workload}.part"));
    out.with_file_name(name)
}

/// Records `r`'s digests as the expected ones for its workload.
fn bless(r: &WorkloadResult) -> Result<(), String> {
    if r.seed != DEFAULT_SEED {
        return Err(format!("--bless is for the default seed {DEFAULT_SEED}"));
    }
    if !r.correct() {
        return Err(format!(
            "{}: not blessing a run that failed a check",
            r.name
        ));
    }
    let text =
        std::fs::read_to_string(EXPECTED_PATH).map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
    let mut expected = runner::parse_expected(&text)?;
    expected.insert(r.name.to_string(), r.digests.clone());
    write(
        Path::new(EXPECTED_PATH),
        &runner::render_expected(&expected),
    )
}

/// The values that must repeat exactly at one seed.
fn deterministic_view(r: &WorkloadResult) -> Vec<(String, f64)> {
    let mut v: Vec<(String, f64)> = r
        .end_to_end
        .iter()
        .filter(|(n, _)| metrics::end_to_end(n).is_some_and(|d| d.bound == 0.0))
        .map(|(n, s)| (n.to_string(), s.median))
        .collect();
    v.extend(
        r.per_layer
            .iter()
            .filter(|(n, _, _)| metrics::per_layer(n).is_some_and(|d| d.exact))
            .map(|(n, s, _)| (n.to_string(), s.median)),
    );
    v.extend(
        r.digests
            .iter()
            .map(|(k, d)| (format!("digest/{k}"), *d as f64)),
    );
    v
}

fn check_determinism(name: &str, a: &RunArgs, expected: &Expected) -> Result<bool, String> {
    let mut opts = a.options();
    opts.reps = Reps::Count(1);
    opts.trace = Trace::Full;
    let first = runner::run_workload(name, &opts, Some(expected))?;
    let second = runner::run_workload(name, &opts, Some(expected))?;
    let mut ok = first.correct() && second.correct();
    for f in first.failures.iter().chain(&second.failures) {
        println!("{name}: FAIL {f}");
    }
    let (va, vb) = (deterministic_view(&first), deterministic_view(&second));
    for ((ka, xa), (_, xb)) in va.iter().zip(&vb) {
        if xa != xb {
            println!("{name}: {ka} differs between two evaluations: {xa} vs {xb}");
            ok = false;
        }
    }
    ok &= va.len() == vb.len();
    // A second seed, so the checks are shown not to lean on the pinned
    // digests.
    opts.seed = a.seed + 1;
    opts.trace = Trace::Skip;
    let other = runner::run_workload(name, &opts, Some(expected))?;
    for f in &other.failures {
        println!("{name} (seed {}): FAIL {f}", opts.seed);
    }
    ok &= other.correct();
    println!(
        "{name}: {} deterministic values evaluated twice, seed {} fail_ratio {}: {}",
        va.len(),
        opts.seed,
        other.failed as f64 / other.attempted.max(1) as f64,
        if ok { "ok" } else { "FAILED" }
    );
    Ok(ok)
}

/// One workload, in this process.
fn run_one(name: &str, a: &RunArgs) -> Result<bool, String> {
    let expected = runner::parse_expected(EXPECTED_TEXT)?;
    if a.check_determinism {
        return check_determinism(name, a, &expected);
    }
    let opts = a.options();
    // Blessing replaces the pinned digests, so it does not compare
    // against them.
    let pinned = (!a.bless).then_some(&expected);
    let result = runner::run_workload(name, &opts, pinned)?;
    if a.bless {
        bless(&result)?;
    }
    print!("{}", report::human(&result));
    let json = report::workload_json(&result);
    if let Some(path) = &a.part {
        write(path, &json)?;
    }
    if let Some(path) = &a.out {
        write(path, &report::document_json(a.seed, a.quick, &[json]))?;
    }
    // Last line: what the acceptance driver reads.
    println!("{}", report::contract_line(&result, a.trace == Some(true)));
    Ok(result.correct())
}

/// Several workloads: this process once per workload, serially.
fn run_each(a: &RunArgs, raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // Everything but the workload selection and the output file passes
    // through unchanged.
    let mut pass = Vec::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" | "--out" => {
                it.next();
            }
            _ => pass.push(flag.clone()),
        }
    }
    let names: Vec<&str> = if a.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        a.workloads.iter().map(String::as_str).collect()
    };
    let mut ok = true;
    let mut parts = Vec::new();
    for name in &names {
        let mut cmd = Command::new(&exe);
        cmd.arg("run").args(&pass).args(["--workload", name]);
        if let Some(out) = &a.out {
            let part = part_path(out, name);
            cmd.arg("--part").arg(&part);
            parts.push(part);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
    }
    if let Some(out) = &a.out {
        let mut jsons = Vec::new();
        for part in &parts {
            if let Ok(text) = std::fs::read_to_string(part) {
                jsons.push(text);
            }
            let _ = std::fs::remove_file(part);
        }
        write(out, &report::document_json(a.seed, a.quick, &jsons))?;
        println!("wrote {}", out.display());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| match a.workloads.as_slice() {
            [one] => run_one(one, &a),
            _ => run_each(&a, &args[1..]),
        }),
        Some("compare") => match &args[1..] {
            [a, b] => std::fs::read_to_string(a)
                .map_err(|e| format!("{a}: {e}"))
                .and_then(|ta| {
                    let tb = std::fs::read_to_string(b).map_err(|e| format!("{b}: {e}"))?;
                    let (table, bad) = compare(&ta, &tb)?;
                    print!("{table}");
                    Ok(!bad)
                }),
            _ => Err(USAGE.into()),
        },
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wbe_bench: {e}");
            ExitCode::from(2)
        }
    }
}
