//! Command-line experiment runner.
//!
//! Usage: `experiments
//! [table1|fig2|fig3|table2|pause|ext|rearrange|static|clients|combined|all]
//! [--scale S] [--metrics-out m.json] [--trace-out t.ndjson]
//! [--chrome-trace t.json]`
//!
//! `--metrics-out` writes the telemetry registry snapshot collected
//! while the experiments ran; `--trace-out` additionally enables event
//! tracing and writes the span stream as NDJSON; `--chrome-trace`
//! writes the same stream as Chrome trace-event JSON, openable in
//! `chrome://tracing` or Perfetto. The two trace flags share one event
//! stream and may be combined.

use std::env;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale = 1.0f64;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut chrome_trace: Option<String> = None;
    let mut i = 0;
    let path_arg = |args: &[String], i: usize, flag: &str| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a path");
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--scale needs a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--metrics-out" => {
                metrics_out = Some(path_arg(&args, i, "--metrics-out"));
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(path_arg(&args, i, "--trace-out"));
                i += 2;
            }
            "--chrome-trace" => {
                chrome_trace = Some(path_arg(&args, i, "--chrome-trace"));
                i += 2;
            }
            other => {
                which = other.to_string();
                i += 1;
            }
        }
    }
    wbe_telemetry::configure(wbe_telemetry::TelemetryConfig {
        metrics: true,
        tracing: trace_out.is_some() || chrome_trace.is_some(),
    });
    let run_one = |name: &str| match name {
        "table1" => {
            println!("== Table 1: dynamic barrier elimination (inline limit 100, mode A) ==");
            println!("{}", wbe_harness::table1::run(scale));
        }
        "fig2" => {
            println!("== Figure 2: inline limit vs elision and compile time ==");
            println!("{}", wbe_harness::fig2::run(scale * 0.25));
        }
        "fig3" => {
            println!("== Figure 3: compiled code size (inline limit 100) ==");
            println!("{}", wbe_harness::fig3::run());
        }
        "table2" => {
            println!("== Table 2: jbb end-to-end barrier cost ==");
            println!("{}", wbe_harness::table2::run(scale * 0.2));
        }
        "pause" => {
            println!("== Pause: SATB vs incremental-update remark work ==");
            println!("{}", wbe_harness::pause::run(scale));
        }
        "ext" => {
            println!("== §4.3 extension: null-or-same analysis gains ==");
            println!("{}", wbe_harness::ext::run(scale * 0.25));
        }
        "rearrange" => {
            println!("== §4.3 extension: array-rearrangement protocol ==");
            println!("{}", wbe_harness::rearrange_exp::run(scale * 0.25));
        }
        "static" => {
            println!("== §4.2 static elimination counts (TR) ==");
            println!("{}", wbe_harness::static_counts::run(scale * 0.25));
        }
        "combined" => {
            println!("== All techniques stacked: barrier executions doing no logging ==");
            println!("{}", wbe_harness::combined::run(scale * 0.25));
        }
        "clients" => {
            println!("== §6 framework clients: bounds checks & stack allocation ==");
            println!("{}", wbe_harness::clients::run());
        }
        other => {
            eprintln!(
                "unknown experiment '{other}' (table1|fig2|fig3|table2|pause|ext|rearrange|static|clients|combined|all)"
            );
            std::process::exit(2);
        }
    };
    if which == "all" {
        for name in [
            "table1",
            "fig2",
            "fig3",
            "table2",
            "pause",
            "ext",
            "rearrange",
            "static",
            "clients",
            "combined",
        ] {
            run_one(name);
        }
    } else {
        run_one(&which);
    }
    if let Some(path) = &metrics_out {
        let path = std::path::Path::new(path);
        if let Err(e) = wbe_telemetry::export::write_metrics_json(path) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("metrics written to {}", path.display());
    }
    let path = std::path::Path::new;
    let (ndjson, chrome) = (
        trace_out.as_deref().map(path),
        chrome_trace.as_deref().map(path),
    );
    if let Err(e) = wbe_telemetry::export::write_traces(ndjson, chrome) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    for path in [&trace_out, &chrome_trace].into_iter().flatten() {
        println!("trace written to {path}");
    }
}
