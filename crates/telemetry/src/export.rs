//! Exporters: JSON metrics snapshot, NDJSON trace stream, and a
//! human-readable text report.
//!
//! The JSON layout groups plain histograms under `"histograms"` and
//! span-duration histograms (registry keys `span.<name>.us`) under
//! `"spans"`, keyed by bare span name — consumers asking "what phases
//! ran and how long did they take" need not know the key convention.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::{push_str_escaped, ObjWriter};
use crate::registry::{HistogramSnapshot, MetricsSnapshot};
use crate::trace::TraceEvent;

fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut buckets = String::from("[");
    for (i, (upper, count)) in h.nonzero_buckets().into_iter().enumerate() {
        if i > 0 {
            buckets.push(',');
        }
        let _ = write!(buckets, r#"{{"le":{upper},"count":{count}}}"#);
    }
    buckets.push(']');

    let mut out = String::new();
    let mut w = ObjWriter::new(&mut out);
    w.field_u64("count", h.count)
        .field_u64("samples", h.count)
        .field_u64("sum", h.sum)
        .field_u64("min", h.min)
        .field_u64("max", h.max)
        .field_f64("mean", h.mean())
        .field_u64("p50", h.quantile(0.50))
        .field_u64("p90", h.quantile(0.90))
        .field_u64("p99", h.quantile(0.99))
        .field_u64("p999", h.quantile(0.999))
        .field_raw("buckets", &buckets);
    w.finish();
    out
}

fn map_json<'a, I>(entries: I) -> String
where
    I: Iterator<Item = (&'a str, String)>,
{
    let mut out = String::from("{");
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_escaped(&mut out, k);
        out.push(':');
        out.push_str(&v);
    }
    out.push('}');
    out
}

/// Renders a [`MetricsSnapshot`] as one deterministic JSON object with
/// `counters`, `gauges`, `histograms`, and `spans` sections.
pub fn metrics_json(snap: &MetricsSnapshot) -> String {
    let counters = map_json(
        snap.counters
            .iter()
            .map(|(k, v)| (k.as_str(), v.to_string())),
    );
    let gauges = map_json(snap.gauges.iter().map(|(k, v)| (k.as_str(), v.to_string())));

    let is_span_key = |k: &str| k.starts_with("span.") && k.ends_with(".us");
    let histograms = map_json(
        snap.histograms
            .iter()
            .filter(|(k, _)| !is_span_key(k))
            .map(|(k, h)| (k.as_str(), histogram_json(h))),
    );
    let spans = map_json(
        snap.histograms
            .iter()
            .filter(|(k, _)| is_span_key(k))
            .map(|(k, h)| {
                let name = &k["span.".len()..k.len() - ".us".len()];
                (name, histogram_json(h))
            }),
    );

    let mut out = String::new();
    let mut w = ObjWriter::new(&mut out);
    w.field_raw("counters", &counters)
        .field_raw("gauges", &gauges)
        .field_raw("histograms", &histograms)
        .field_raw("spans", &spans);
    w.finish();
    out.push('\n');
    out
}

/// Renders trace events as NDJSON: one JSON object per line, in
/// buffer order.
pub fn trace_ndjson(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let mut w = ObjWriter::new(&mut out);
        w.field_str("name", &ev.name)
            .field_str("parent", &ev.parent)
            .field_str("detail", &ev.detail)
            .field_u64("start_us", ev.start_us)
            .field_u64("dur_us", ev.dur_us)
            .field_u64("tid", ev.tid);
        if let Some(v) = ev.value {
            w.field_u64("value", v);
        }
        w.finish();
        out.push('\n');
    }
    out
}

/// Renders trace events in Chrome trace-event JSON (the
/// `{"traceEvents":[...]}` object format), loadable in
/// `chrome://tracing` and Perfetto.
///
/// Spans (`dur_us > 0`) become complete events (`"ph":"X"`); instants
/// become thread-scoped instant events (`"ph":"i"`); counter samples
/// (`value` set) become counter events (`"ph":"C"`) that viewers draw
/// as a value-over-time track. Parent span and detail payload ride
/// along under `"args"` (for counters, `"args"` carries the sampled
/// value, as the format requires). All events share `"pid":1`; `tid`
/// is the recording thread's stable track index, so mutator and marker
/// threads land on separate rows.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut items = String::from("[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            items.push(',');
        }
        if let Some(v) = ev.value {
            // Counter event: args holds {"value": v} and the track is
            // named by the event.
            let mut args = String::new();
            {
                let mut w = ObjWriter::new(&mut args);
                w.field_u64("value", v);
                w.finish();
            }
            let mut w = ObjWriter::new(&mut items);
            w.field_str("name", &ev.name)
                .field_str("cat", "counter")
                .field_str("ph", "C")
                .field_u64("ts", ev.start_us)
                .field_u64("pid", 1)
                .field_u64("tid", ev.tid)
                .field_raw("args", &args);
            w.finish();
            continue;
        }
        let mut args = String::new();
        {
            let mut w = ObjWriter::new(&mut args);
            w.field_str("parent", &ev.parent)
                .field_str("detail", &ev.detail);
            w.finish();
        }
        let mut w = ObjWriter::new(&mut items);
        w.field_str("name", &ev.name)
            .field_str("cat", if ev.dur_us > 0 { "span" } else { "instant" })
            .field_str("ph", if ev.dur_us > 0 { "X" } else { "i" });
        if ev.dur_us > 0 {
            w.field_u64("dur", ev.dur_us);
        } else {
            // Instant scope: thread.
            w.field_str("s", "t");
        }
        w.field_u64("ts", ev.start_us)
            .field_u64("pid", 1)
            .field_u64("tid", ev.tid)
            .field_raw("args", &args);
        w.finish();
    }
    items.push(']');

    let mut out = String::new();
    let mut w = ObjWriter::new(&mut out);
    w.field_raw("traceEvents", &items)
        .field_str("displayTimeUnit", "ms");
    w.finish();
    out.push('\n');
    out
}

/// Renders a [`MetricsSnapshot`] as NDJSON: one object per metric with
/// a `"kind"` discriminator (`counter`/`gauge`/`histogram`/`span`), in
/// deterministic name order within each kind. This is the streaming
/// sibling of [`metrics_json`], sharing one line-oriented format with
/// the elision-ledger export.
pub fn metrics_ndjson(snap: &MetricsSnapshot) -> String {
    let is_span_key = |k: &str| k.starts_with("span.") && k.ends_with(".us");
    let mut out = String::new();
    for (k, v) in &snap.counters {
        let mut w = ObjWriter::new(&mut out);
        w.field_str("kind", "counter")
            .field_str("name", k)
            .field_u64("value", *v);
        w.finish();
        out.push('\n');
    }
    for (k, v) in &snap.gauges {
        let mut w = ObjWriter::new(&mut out);
        w.field_str("kind", "gauge")
            .field_str("name", k)
            .field_u64("value", *v);
        w.finish();
        out.push('\n');
    }
    for (k, h) in &snap.histograms {
        let (kind, name) = if is_span_key(k) {
            ("span", &k["span.".len()..k.len() - ".us".len()])
        } else {
            ("histogram", k.as_str())
        };
        let mut w = ObjWriter::new(&mut out);
        w.field_str("kind", kind)
            .field_str("name", name)
            .field_u64("count", h.count)
            .field_u64("samples", h.count)
            .field_u64("sum", h.sum)
            .field_u64("min", h.min)
            .field_u64("max", h.max)
            .field_f64("mean", h.mean())
            .field_u64("p50", h.quantile(0.50))
            .field_u64("p90", h.quantile(0.90))
            .field_u64("p99", h.quantile(0.99))
            .field_u64("p999", h.quantile(0.999));
        w.finish();
        out.push('\n');
    }
    out
}

/// Renders a [`MetricsSnapshot`] as an aligned human-readable report.
pub fn metrics_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let is_span_key = |k: &str| k.starts_with("span.") && k.ends_with(".us");

    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (k, v) in &snap.counters {
            let _ = writeln!(out, "  {k:<44} {v:>12}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (k, v) in &snap.gauges {
            let _ = writeln!(out, "  {k:<44} {v:>12}");
        }
    }
    let hists: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(k, _)| !is_span_key(k))
        .collect();
    if !hists.is_empty() {
        out.push_str("histograms:\n");
        for (k, h) in hists {
            let _ = writeln!(
                out,
                "  {k:<44} n={} mean={:.1} p50={} p99={} p999={} max={}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.quantile(0.999),
                h.max
            );
        }
    }
    let spans: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(k, _)| is_span_key(k))
        .collect();
    if !spans.is_empty() {
        out.push_str("spans (durations in us):\n");
        for (k, h) in spans {
            let name = &k["span.".len()..k.len() - ".us".len()];
            let _ = writeln!(
                out,
                "  {name:<44} n={} total={} mean={:.1} p99={} p999={} max={}",
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.99),
                h.quantile(0.999),
                h.max
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

/// Snapshots the global registry and writes [`metrics_json`] to `path`.
pub fn write_metrics_json(path: &Path) -> io::Result<()> {
    let snap = crate::registry::global().snapshot();
    std::fs::write(path, metrics_json(&snap))
}

/// Drains the global trace buffer once and writes the events as
/// [`trace_ndjson`] to `ndjson` and as [`chrome_trace_json`] to
/// `chrome`, each where a path is given. With neither, the buffer is
/// left alone. The error names the file that could not be written.
pub fn write_traces(ndjson: Option<&Path>, chrome: Option<&Path>) -> io::Result<()> {
    if ndjson.is_none() && chrome.is_none() {
        return Ok(());
    }
    let events = crate::trace::drain();
    let write = |path: &Path, body: String| {
        std::fs::write(path, body)
            .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))
    };
    if let Some(path) = ndjson {
        write(path, trace_ndjson(&events))?;
    }
    if let Some(path) = chrome {
        write(path, chrome_trace_json(&events))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> MetricsSnapshot {
        let _guard = crate::config::tests::test_guard();
        crate::configure(crate::TelemetryConfig::default());
        let r = Registry::new();
        r.counter("interp.barriers.executed").add(10);
        r.gauge("heap.live_objects").set(42);
        r.histogram("heap.gc.pause.work_units").record(7);
        r.histogram("span.analysis.fixpoint.us").record(250);
        r.snapshot()
    }

    #[test]
    fn json_sections_split_spans_from_histograms() {
        let json = metrics_json(&sample_snapshot());
        assert!(json.contains(r#""counters":{"interp.barriers.executed":10}"#));
        assert!(json.contains(r#""gauges":{"heap.live_objects":42}"#));
        assert!(json.contains(r#""heap.gc.pause.work_units":{"count":1"#));
        // Span histogram appears under "spans" by bare name, not under
        // "histograms" by registry key.
        assert!(json.contains(r#""spans":{"analysis.fixpoint":{"count":1"#));
        assert!(!json.contains(r#""span.analysis.fixpoint.us""#));
        assert!(json.ends_with('\n'));
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                name: "a".into(),
                parent: String::new(),
                detail: "d\"q".into(),
                start_us: 1,
                dur_us: 2,
                tid: 1,
                value: None,
            },
            TraceEvent {
                name: "b".into(),
                parent: "a".into(),
                detail: String::new(),
                start_us: 3,
                dur_us: 0,
                tid: 2,
                value: None,
            },
            TraceEvent {
                name: "heap.occupancy".into(),
                parent: String::new(),
                detail: String::new(),
                start_us: 4,
                dur_us: 0,
                tid: 1,
                value: Some(17),
            },
        ]
    }

    #[test]
    fn ndjson_one_line_per_event() {
        let nd = trace_ndjson(&sample_events());
        let lines: Vec<_> = nd.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"name":"a","parent":"","detail":"d\"q","start_us":1,"dur_us":2,"tid":1}"#
        );
        assert!(lines[1].contains(r#""parent":"a""#));
        // Counter samples carry their value.
        assert!(lines[2].contains(r#""value":17"#));
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let out = chrome_trace_json(&sample_events());
        let doc = crate::json::parse(&out).expect("chrome trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        // Span → complete event with a duration.
        let span = &events[0];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("dur").unwrap().as_u64(), Some(2));
        assert_eq!(span.get("ts").unwrap().as_u64(), Some(1));
        assert_eq!(span.get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(
            span.get("args").unwrap().get("detail").unwrap().as_str(),
            Some("d\"q")
        );
        // Instant → thread-scoped "i" event, no duration field.
        let inst = &events[1];
        assert_eq!(inst.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(inst.get("s").unwrap().as_str(), Some("t"));
        assert!(inst.get("dur").is_none());
        assert_eq!(inst.get("tid").unwrap().as_u64(), Some(2));
        // Counter sample → "C" event whose args carry the value.
        let ctr = &events[2];
        assert_eq!(ctr.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(ctr.get("name").unwrap().as_str(), Some("heap.occupancy"));
        assert_eq!(
            ctr.get("args").unwrap().get("value").unwrap().as_u64(),
            Some(17)
        );
    }

    #[test]
    fn write_traces_renders_one_drain_in_both_formats() {
        let _guard = crate::config::tests::test_guard();
        crate::configure(crate::TelemetryConfig::all());
        crate::trace::drain();
        crate::trace::event("test.export.write", "x");
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let nd = dir.join(format!("wbe_telemetry_write_traces_{pid}.ndjson"));
        let chrome = dir.join(format!("wbe_telemetry_write_traces_{pid}.json"));
        write_traces(Some(&nd), Some(&chrome)).unwrap();
        let nd_text = std::fs::read_to_string(&nd).unwrap();
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        std::fs::remove_file(&nd).ok();
        std::fs::remove_file(&chrome).ok();
        assert!(nd_text.contains("test.export.write"), "{nd_text}");
        assert!(chrome_text.contains("test.export.write"), "{chrome_text}");
        // Nothing asked for: the buffer is not drained.
        crate::trace::event("test.export.kept", "y");
        write_traces(None, None).unwrap();
        assert!(crate::trace::drain()
            .iter()
            .any(|e| e.name == "test.export.kept"));
        let bad = dir
            .join(format!("wbe_telemetry_no_such_dir_{pid}"))
            .join("t.json");
        let err = write_traces(None, Some(&bad)).unwrap_err();
        assert!(err.to_string().starts_with("cannot write "), "{err}");
    }

    /// Pins the histogram field set both exporters promise: consumers
    /// (the profiler, bench JSON, SLO gates) rely on p50/p90/p99 *and*
    /// max being present alongside count/sum/min/mean.
    #[test]
    fn histogram_exports_pin_percentile_field_set() {
        let snap = sample_snapshot();
        let json = metrics_json(&snap);
        let doc = crate::json::parse(&json).unwrap();
        let hist = doc
            .get("histograms")
            .unwrap()
            .get("heap.gc.pause.work_units")
            .unwrap();
        for field in [
            "count", "samples", "sum", "min", "max", "mean", "p50", "p90", "p99", "p999",
        ] {
            assert!(hist.get(field).is_some(), "metrics_json missing {field}");
        }
        // `samples` mirrors `count` by construction: the quantiles are
        // estimates over exactly the recorded sample population.
        assert_eq!(
            hist.get("samples").unwrap().as_u64(),
            hist.get("count").unwrap().as_u64()
        );
        // p999 is monotone above p99 and bounded by max.
        let (p99, p999, max) = (
            hist.get("p99").unwrap().as_u64().unwrap(),
            hist.get("p999").unwrap().as_u64().unwrap(),
            hist.get("max").unwrap().as_u64().unwrap(),
        );
        assert!(
            p99 <= p999 && p999 <= max,
            "p99={p99} p999={p999} max={max}"
        );
        let nd = metrics_ndjson(&snap);
        let line = nd
            .lines()
            .find(|l| l.contains("heap.gc.pause.work_units"))
            .unwrap();
        let doc = crate::json::parse(line).unwrap();
        for field in [
            "count", "samples", "sum", "min", "max", "mean", "p50", "p90", "p99", "p999",
        ] {
            assert!(doc.get(field).is_some(), "metrics_ndjson missing {field}");
        }
    }

    #[test]
    fn metrics_ndjson_one_line_per_metric() {
        let nd = metrics_ndjson(&sample_snapshot());
        let lines: Vec<_> = nd.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            crate::json::parse(line).expect("each NDJSON line parses");
        }
        assert_eq!(
            lines[0],
            r#"{"kind":"counter","name":"interp.barriers.executed","value":10}"#
        );
        assert!(lines[1].contains(r#""kind":"gauge""#));
        assert!(lines[2].contains(r#""kind":"histogram""#));
        // Span histograms are reported by bare name with kind "span".
        assert!(lines[3].contains(r#""kind":"span","name":"analysis.fixpoint""#));
    }

    #[test]
    fn text_report_mentions_every_section() {
        let text = metrics_text(&sample_snapshot());
        assert!(text.contains("counters:"));
        assert!(text.contains("interp.barriers.executed"));
        assert!(text.contains("spans (durations in us):"));
        assert!(text.contains("analysis.fixpoint"));
        assert_eq!(
            metrics_text(&MetricsSnapshot::default()),
            "(no metrics recorded)\n"
        );
    }
}
