//! Golden for `wbe_tool serve`'s report, text and NDJSON.
//!
//! `serve_cli.golden` pins `run_serve_cmd(..).render()` for three
//! configurations — the stock `ServeOptions::default()`, the light
//! load (a heap budget the ladder never engages under) and the
//! overloaded command README and CI run (`--mix session --seed 9
//! --requests 2000 --arrivals 6 --request-ops 8 --heap-budget 220`) —
//! each with and without `--chaos`, in both formats. Every figure the
//! serve world produces that the command prints is in the file:
//! request accounting, latency percentiles, the ladder's transitions,
//! the outcome digest and the exit code.
//!
//! To regenerate after an intended behaviour change, run the test: on
//! a mismatch it writes what it produced to the test scratch directory
//! and names the file.

use std::fmt::Write as _;

use wbe_harness::serve::{run_serve_cmd, ServeOptions};
use wbe_heap::ServeScenario;

fn light() -> ServeOptions {
    ServeOptions {
        heap_budget: 1_000_000,
        ..ServeOptions::default()
    }
}

/// `serve --mix session --seed 9 --requests 2000 --arrivals 6
/// --request-ops 8 --heap-budget 220`.
fn overloaded() -> ServeOptions {
    ServeOptions {
        mix: ServeScenario::Session,
        seed: 9,
        requests: 2000,
        arrivals_per_window: 6,
        request_ops: 8,
        heap_budget: 220,
        ..ServeOptions::default()
    }
}

fn render() -> String {
    let mut out = String::new();
    for (name, opts) in [
        ("default", ServeOptions::default()),
        ("light", light()),
        ("overloaded", overloaded()),
    ] {
        for chaos in [false, true] {
            for ndjson in [false, true] {
                let opts = ServeOptions {
                    chaos,
                    ndjson,
                    ..opts.clone()
                };
                let format = if ndjson { "ndjson" } else { "text" };
                writeln!(out, "== {name} chaos={chaos} {format}").unwrap();
                out.push_str(&run_serve_cmd(&opts).render());
            }
        }
    }
    out
}

#[test]
fn serve_reports_match_the_golden_file() {
    let golden = include_str!("serve_cli.golden");
    let actual = render();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_cli.actual");
        std::fs::write(&path, &actual).expect("scratch directory is writable");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "serve output differs from serve_cli.golden at line {}; \
             what this build produced is in {}",
            line + 1,
            path.display()
        );
    }
}
