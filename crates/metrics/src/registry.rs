//! The metric registry and its two exposition formats.

use crate::counter::{Counter, Gauge};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json;
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
    /// histogram's `{buckets, sum, count}`.  Strings and finite floats go
    /// through [`json`]; counts print as exact integers, and non-finite
    /// gauges, which JSON cannot spell, as the quoted `"+Inf"`/`"-Inf"`/
    /// `"NaN"` of the text exposition.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        for (i, f) in families.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kind = f.series.first().map_or("untyped", |s| s.handle.kind());
            json::write_str(&mut out, &f.name);
            out.push_str(":{\"type\":");
            json::write_str(&mut out, kind);
            out.push_str(",\"help\":");
            json::write_str(&mut out, &f.help);
            out.push_str(",\"series\":[");
            for (j, s) in f.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (k, (key, value)) in s.labels.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    json::write_str(&mut out, key);
                    out.push(':');
                    json::write_str(&mut out, value);
                }
                out.push_str("},");
                match &s.handle {
                    Handle::Counter(c) => {
                        let _ = write!(out, "\"value\":{}", c.get());
                    }
                    Handle::Gauge(g) => {
                        out.push_str("\"value\":");
                        let v = g.get();
                        if v.is_finite() {
                            out.push_str(&json::fmt_f64(v));
                        } else {
                            json::write_str(&mut out, &fmt_f64(v));
                        }
                    }
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        out.push_str("\"buckets\":[");
                        write_json_buckets(&mut out, &snap);
                        let _ = write!(
                            out,
                            "],\"sum\":{},\"count\":{}",
                            json::fmt_f64(snap.sum),
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
        let _ = write!(out, "{{\"le\":{},\"count\":{cum}}}", json::fmt_f64(*bound));
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
        let text = r.render_json();
        assert!(text.starts_with('{') && text.ends_with('}'), "{text}");
        assert!(text.contains("\"requests_total\""), "{text}");
        assert!(text.contains("\"value\":7"), "{text}");
        assert!(text.contains("\"Requests \\\"served\\\"\""), "{text}");
        assert!(text.contains("\"value\":0.25"), "{text}");
        assert!(text.contains("\"le\":0.000001024,\"count\":1"), "{text}");
        assert!(text.contains("\"le\":\"+Inf\",\"count\":1"), "{text}");
        let doc = json::Json::parse(&text).expect("well-formed JSON");
        assert_eq!(
            doc.get_path(&["requests_total", "help"]).and_then(json::Json::as_str),
            Some("Requests \"served\"")
        );
    }

    #[test]
    fn json_exposition_golden_bytes() {
        let r = Registry::new();
        r.counter("big_total", "Saturated \"u64\"").add(u64::MAX);
        r.gauge_with("ratio", "Non-finite gauges", &[("kind", "nan")]).set(f64::NAN);
        r.gauge_with("ratio", "Non-finite gauges", &[("kind", "pos")]).set(f64::INFINITY);
        r.gauge_with("ratio", "Non-finite gauges", &[("kind", "neg")]).set(f64::NEG_INFINITY);
        r.gauge("fill", "Finite gauge").set(0.25);
        r.counter_with(
            "odd_total",
            "Help with \"quotes\", a back\\slash,\na newline and a \u{1} control",
            &[("path", "C:\\tmp\\\"x\"\n\u{7}")],
        )
        .inc();
        let h = r.histogram_with("lat_seconds", "Latency", &[("op", "q")]);
        h.observe_duration(Duration::from_nanos(1000));
        h.observe_duration(Duration::from_millis(3));
        // Pinned byte for byte: counts stay exact integers above 2^53,
        // non-finite gauges keep their quoted Prometheus spellings, and
        // strings use the shared JSON escaper.
        let golden = concat!(
            r#"{"big_total":{"type":"counter","help":"Saturated \"u64\"","series":[{"labels":{},"value":18446744073709551615}]},"#,
            r#""ratio":{"type":"gauge","help":"Non-finite gauges","series":["#,
            r#"{"labels":{"kind":"nan"},"value":"NaN"},{"labels":{"kind":"pos"},"value":"+Inf"},"#,
            r#"{"labels":{"kind":"neg"},"value":"-Inf"}]},"#,
            r#""fill":{"type":"gauge","help":"Finite gauge","series":[{"labels":{},"value":0.25}]},"#,
            r#""odd_total":{"type":"counter","#,
            r#""help":"Help with \"quotes\", a back\\slash,\na newline and a \u0001 control","#,
            r#""series":[{"labels":{"path":"C:\\tmp\\\"x\"\n\u0007"},"value":1}]},"#,
            r#""lat_seconds":{"type":"histogram","help":"Latency","series":[{"labels":{"op":"q"},"buckets":["#,
            r#"{"le":0.000001024,"count":1},{"le":0.000002048,"count":1},{"le":0.000004096,"count":1},"#,
            r#"{"le":0.000008192,"count":1},{"le":0.000016384,"count":1},{"le":0.000032768,"count":1},"#,
            r#"{"le":0.000065536,"count":1},{"le":0.000131072,"count":1},{"le":0.000262144,"count":1},"#,
            r#"{"le":0.000524288,"count":1},{"le":0.001048576,"count":1},{"le":0.002097152,"count":1},"#,
            r#"{"le":0.004194304,"count":2},{"le":0.008388608,"count":2},{"le":0.016777216,"count":2},"#,
            r#"{"le":0.033554432,"count":2},{"le":0.067108864,"count":2},{"le":0.134217728,"count":2},"#,
            r#"{"le":0.268435456,"count":2},{"le":0.536870912,"count":2},{"le":1.073741824,"count":2},"#,
            r#"{"le":2.147483648,"count":2},{"le":4.294967296,"count":2},{"le":8.589934592,"count":2},"#,
            r#"{"le":17.179869184,"count":2},{"le":"+Inf","count":2}],"sum":0.003001,"count":2}]}}"#,
        );
        assert_eq!(r.render_json(), golden);
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
