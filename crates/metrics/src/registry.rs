//! The metric registry and its two exposition formats.

use crate::counter::{Counter, Gauge};
use crate::histogram::{Histogram, HistogramSnapshot};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// One labeled series inside a family.
#[derive(Debug)]
struct Series {
    /// Fixed `(key, value)` label pairs, rendered in registration order.
    labels: Vec<(String, String)>,
    handle: Handle,
}

#[derive(Debug)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// A family: one metric name, one type, one help string, many series.
#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

/// A named collection of metrics.
///
/// Registration returns `Arc` handles that stay valid independently of
/// the registry.  Registering the same name again with the same metric
/// type adds another labeled series to the existing family (this is how
/// per-opcode histograms share one name); re-registering with a
/// *different* type panics, since the exposition would be ill-formed.
///
/// The internal mutex guards the family list only — it is taken at
/// registration and render time, never on the measurement path.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers a counter series with fixed labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.push(name, help, labels, Handle::Counter(c.clone()));
        c
    }

    /// Registers an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers a gauge series with fixed labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.push(name, help, labels, Handle::Gauge(g.clone()));
        g
    }

    /// Registers an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Registers a histogram series with fixed labels.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(name, help, labels, Handle::Histogram(h.clone()));
        h
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: Handle) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = families.iter_mut().find(|f| f.name == name) {
            let existing = f.series.first().map(|s| s.handle.kind());
            assert_eq!(
                existing,
                Some(handle.kind()),
                "metric `{name}` re-registered with a different type"
            );
            f.series.push(Series { labels, handle });
        } else {
            families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                series: vec![Series { labels, handle }],
            });
        }
    }

    /// Renders the Prometheus text exposition format (version 0.0.4):
    /// `# HELP` / `# TYPE` headers, one sample line per series, and for
    /// histograms the cumulative `_bucket{le=…}` / `_sum` / `_count`
    /// triple.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        for f in families.iter() {
            let kind = f.series.first().map_or("untyped", |s| s.handle.kind());
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, kind);
            for s in &f.series {
                match &s.handle {
                    Handle::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            f.name,
                            label_block(&s.labels, None),
                            c.get()
                        );
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            f.name,
                            label_block(&s.labels, None),
                            fmt_f64(g.get())
                        );
                    }
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        for (bound, cum) in snap.bounds.iter().zip(&snap.cumulative) {
                            let le = fmt_f64(*bound);
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                f.name,
                                label_block(&s.labels, Some(&le)),
                                cum
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            f.name,
                            label_block(&s.labels, Some("+Inf")),
                            snap.count
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            f.name,
                            label_block(&s.labels, None),
                            fmt_f64(snap.sum)
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            f.name,
                            label_block(&s.labels, None),
                            snap.count
                        );
                    }
                }
            }
        }
        out
    }

    /// Renders a JSON object: metric name → `{type, help, series: […]}`,
    /// each series carrying its labels and either a scalar `value` or a
    /// histogram's `{buckets, sum, count}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        for (i, f) in families.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kind = f.series.first().map_or("untyped", |s| s.handle.kind());
            let _ = write!(
                out,
                "{}:{{\"type\":{},\"help\":{},\"series\":[",
                json_str(&f.name),
                json_str(kind),
                json_str(&f.help)
            );
            for (j, s) in f.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (k, (key, value)) in s.labels.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{}", json_str(key), json_str(value));
                }
                out.push_str("},");
                match &s.handle {
                    Handle::Counter(c) => {
                        let _ = write!(out, "\"value\":{}", c.get());
                    }
                    Handle::Gauge(g) => {
                        let _ = write!(out, "\"value\":{}", json_f64(g.get()));
                    }
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        out.push_str("\"buckets\":[");
                        write_json_buckets(&mut out, &snap);
                        let _ = write!(
                            out,
                            "],\"sum\":{},\"count\":{}",
                            json_f64(snap.sum),
                            snap.count
                        );
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}

fn write_json_buckets(out: &mut String, snap: &HistogramSnapshot) {
    for (i, (bound, cum)) in snap.bounds.iter().zip(&snap.cumulative).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"le\":{},\"count\":{cum}}}", json_f64(*bound));
    }
    if !snap.bounds.is_empty() {
        out.push(',');
    }
    let _ = write!(out, "{{\"le\":\"+Inf\",\"count\":{}}}", snap.count);
}

/// `{k="v",…}` with an optional extra `le` label, or the empty string.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Prometheus label-value escaping: backslash, quote, newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Prometheus help-text escaping: backslash and newline.
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Shortest clean decimal for exposition values.
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

/// JSON number rendering; non-finite values become strings, since JSON
/// has no literal for them.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("\"{}\"", fmt_f64(v))
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn text_exposition_shapes() {
        let r = Registry::new();
        let c = r.counter("requests_total", "Requests served");
        c.add(3);
        let g = r.gauge("active", "Active connections");
        g.set(2.0);
        let h = r.histogram("latency_seconds", "Latency");
        h.observe_duration(Duration::from_nanos(1 << 20));
        h.observe_duration(Duration::from_millis(500));
        h.observe_duration(Duration::from_secs(5));
        let text = r.render_text();
        assert!(text.contains("# HELP requests_total Requests served"), "{text}");
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("requests_total 3"), "{text}");
        assert!(text.contains("# TYPE active gauge"), "{text}");
        assert!(text.contains("active 2"), "{text}");
        assert!(text.contains("# TYPE latency_seconds histogram"), "{text}");
        // Edges are powers of two of nanoseconds, rendered in seconds.
        assert!(text.contains("latency_seconds_bucket{le=\"0.000001024\"} 0"), "{text}");
        assert!(text.contains("latency_seconds_bucket{le=\"0.001048576\"} 1"), "{text}");
        assert!(text.contains("latency_seconds_bucket{le=\"0.536870912\"} 2"), "{text}");
        assert!(text.contains("latency_seconds_bucket{le=\"17.179869184\"} 3"), "{text}");
        assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("latency_seconds_count 3"), "{text}");
        assert!(text.contains("latency_seconds_sum 5.501048576"), "{text}");
    }

    #[test]
    fn labeled_series_share_a_family() {
        let r = Registry::new();
        let a = r.counter_with("ops_total", "Ops", &[("op", "read")]);
        let b = r.counter_with("ops_total", "Ops", &[("op", "write")]);
        a.inc();
        b.add(2);
        let text = r.render_text();
        // One header, two series.
        assert_eq!(text.matches("# TYPE ops_total counter").count(), 1, "{text}");
        assert!(text.contains("ops_total{op=\"read\"} 1"), "{text}");
        assert!(text.contains("ops_total{op=\"write\"} 2"), "{text}");
    }

    #[test]
    #[should_panic]
    fn type_conflict_panics() {
        let r = Registry::new();
        r.counter("x", "first");
        r.gauge("x", "second");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("c", "help", &[("k", "a\"b\\c\nd")]);
        let text = r.render_text();
        assert!(text.contains(r#"c{k="a\"b\\c\nd"} 0"#), "{text}");
    }

    #[test]
    fn json_exposition_is_well_formed_enough() {
        let r = Registry::new();
        r.counter("requests_total", "Requests \"served\"").add(7);
        r.gauge("fill", "Fill ratio").set(0.25);
        let h = r.histogram_with("lat", "Latency", &[("op", "q")]);
        h.observe_duration(Duration::from_nanos(1000));
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"requests_total\""), "{json}");
        assert!(json.contains("\"value\":7"), "{json}");
        assert!(json.contains("\"Requests \\\"served\\\"\""), "{json}");
        assert!(json.contains("\"value\":0.25"), "{json}");
        assert!(json.contains("\"le\":0.000001024,\"count\":1"), "{json}");
        assert!(json.contains("\"le\":\"+Inf\",\"count\":1"), "{json}");
        // Balanced braces/brackets (cheap well-formedness proxy, since
        // no quoted string here contains braces).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn handles_outlive_registry() {
        let c = {
            let r = Registry::new();
            r.counter("c", "h")
        };
        c.inc(); // must not panic or dangle
        assert_eq!(c.get(), 1);
    }
}
