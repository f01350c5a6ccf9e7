//! L9 — spec drift between docs and code.
//!
//! Two tables in the docs make testable claims about the code:
//!
//! * `docs/wire-protocol.md` lists every SKTP opcode (`| 0x01 | Ping |
//!   … |`); `crates/server/src/wire.rs` declares them (`const K_PING:
//!   u8 = 0x01;`).
//! * `docs/observability.md` lists every exported metric in its tables;
//!   the code registers them by string literal
//!   (`registry.counter("sktp_frames_total", …)`).
//!
//! Nothing previously held the two sides together: a new opcode or
//! metric silently left the docs describing a protocol the server no
//! longer speaks.  This pass diffs both directions:
//!
//! * every documented opcode value must have a constant with that value
//!   whose name matches the documented name (normalized prefix match —
//!   `Stats` ↔ `K_STATS_REPLY`, `HeavyHitters` ↔ `K_HEAVY`);
//! * every `K_*` constant must appear in the doc table, same value;
//! * every metric name backticked in `observability.md` must be
//!   registered (histogram exports may document the derived `_count` /
//!   `_sum` / `_bucket` series);
//! * every registered metric name must appear in an `observability.md`
//!   table row.
//!
//! Findings anchored to a doc file cannot carry `lint:allow` markers —
//! drift in the doc is fixed by editing the doc, which is the point.

use super::{Workspace, WorkspacePass, WsFinding};

/// The L9 pass.
pub struct SpecDrift;

const WIRE_DOC: &str = "docs/wire-protocol.md";
const OBS_DOC: &str = "docs/observability.md";

/// Metric-name prefixes we treat as claims about registered metrics.
const METRIC_PREFIXES: &[&str] = &["sketchtree_", "sktp_"];

/// Derived histogram series the docs may mention per registered base.
const HIST_SUFFIXES: &[&str] = &["_count", "_sum", "_bucket"];

impl WorkspacePass for SpecDrift {
    fn rule(&self) -> &'static str {
        "L9"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<WsFinding>) {
        if let Some((_, text)) = ws.docs.iter().find(|(p, _)| p == WIRE_DOC) {
            self.check_wire(ws, text, out);
        }
        if let Some((_, text)) = ws.docs.iter().find(|(p, _)| p == OBS_DOC) {
            self.check_metrics(ws, text, out);
        }
        out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
        out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    }
}

impl SpecDrift {
    fn check_wire(&self, ws: &Workspace, doc: &str, out: &mut Vec<WsFinding>) {
        let rows = opcode_rows(doc);
        let consts: Vec<_> = ws
            .index
            .opcodes
            .iter()
            .filter(|c| ws.files[c.file].rel.ends_with("wire.rs"))
            .collect();

        for row in &rows {
            let Some(c) = consts.iter().find(|c| c.value == Some(row.value)) else {
                out.push(WsFinding {
                    rule: "L9",
                    file: WIRE_DOC.to_string(),
                    line: row.line,
                    message: format!(
                        "documented opcode 0x{:02X} `{}` has no `K_*: u8` constant with that \
                         value in wire.rs — doc describes a frame the server does not speak",
                        row.value, row.name
                    ),
                });
                continue;
            };
            if !names_match(&norm_const(&c.name), &norm_doc(&row.name)) {
                out.push(WsFinding {
                    rule: "L9",
                    file: ws.files[c.file].rel.clone(),
                    line: c.line,
                    message: format!(
                        "`{}` = 0x{:02X} does not match the documented name `{}` for that \
                         opcode ({WIRE_DOC} line {})",
                        c.name, row.value, row.name, row.line
                    ),
                });
            }
        }
        for c in &consts {
            let Some(v) = c.value else {
                out.push(WsFinding {
                    rule: "L9",
                    file: ws.files[c.file].rel.clone(),
                    line: c.line,
                    message: format!("`{}` has a non-literal value — spec diff cannot verify it", c.name),
                });
                continue;
            };
            if !rows.iter().any(|r| r.value == v) {
                out.push(WsFinding {
                    rule: "L9",
                    file: ws.files[c.file].rel.clone(),
                    line: c.line,
                    message: format!(
                        "`{}` = 0x{v:02X} is not in the {WIRE_DOC} opcode table — undocumented frame kind",
                        c.name
                    ),
                });
            }
        }
    }

    fn check_metrics(&self, ws: &Workspace, doc: &str, out: &mut Vec<WsFinding>) {
        let registered: Vec<&str> = ws.index.metrics.iter().map(|m| m.name.as_str()).collect();
        let satisfied = |name: &str| {
            registered.contains(&name)
                || HIST_SUFFIXES.iter().any(|s| {
                    name.strip_suffix(s).map_or(false, |base| registered.contains(&base))
                })
        };

        // Doc → code: every backticked metric name anywhere in the doc.
        // Only well-formed names are claims — glob mentions
        // (`sketchtree_*`) and PromQL alert expressions in prose are
        // not assertions that a series exists.
        for (li, line) in doc.lines().enumerate() {
            for span in backtick_spans(line) {
                let name = span.split('{').next().unwrap_or(span);
                if !METRIC_PREFIXES.iter().any(|p| name.starts_with(p)) {
                    continue;
                }
                if !name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                {
                    continue;
                }
                if !satisfied(name) {
                    out.push(WsFinding {
                        rule: "L9",
                        file: OBS_DOC.to_string(),
                        line: (li + 1) as u32,
                        message: format!(
                            "documented metric `{name}` is never registered — doc describes a \
                             series that is not exported"
                        ),
                    });
                }
            }
        }

        // Code → doc: every registered name must be in a table row.
        let mut documented: Vec<String> = Vec::new();
        for line in doc.lines() {
            if !line.trim_start().starts_with('|') {
                continue;
            }
            for span in backtick_spans(line) {
                documented.push(span.split('{').next().unwrap_or(span).to_string());
            }
        }
        for m in &ws.index.metrics {
            if !documented.iter().any(|d| d == &m.name) {
                out.push(WsFinding {
                    rule: "L9",
                    file: ws.files[m.file].rel.clone(),
                    line: m.line,
                    message: format!(
                        "registered metric `{}` is not in any {OBS_DOC} table row — \
                         undocumented export",
                        m.name
                    ),
                });
            }
        }
    }
}

/// One `| 0xNN | Name | … |` row of the wire-protocol opcode tables.
struct OpcodeRow {
    value: u64,
    name: String,
    line: u32,
}

/// Parses every opcode table row: a `|`-delimited row whose first cell
/// is a hex literal.  Header, separator, and the frame-layout tables
/// (whose first cells are field names) all fail the hex filter.
fn opcode_rows(doc: &str) -> Vec<OpcodeRow> {
    let mut rows = Vec::new();
    for (li, line) in doc.lines().enumerate() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t
            .split('|')
            .map(|c| c.trim().trim_matches('`'))
            .filter(|c| !c.is_empty())
            .collect();
        let [first, second, ..] = cells.as_slice() else { continue };
        let Some(hex) = first.strip_prefix("0x") else { continue };
        let Ok(value) = u64::from_str_radix(hex, 16) else { continue };
        rows.push(OpcodeRow { value, name: second.to_string(), line: (li + 1) as u32 });
    }
    rows
}

/// The code spans of one markdown line (odd segments between backticks).
fn backtick_spans(line: &str) -> impl Iterator<Item = &str> {
    line.split('`').enumerate().filter_map(|(i, s)| (i % 2 == 1).then_some(s))
}

/// Normalizes a `K_*` constant name: strip the prefix, drop `_`, lowercase.
fn norm_const(name: &str) -> String {
    let base = name.strip_prefix("K_").unwrap_or(name);
    base.chars().filter(|c| *c != '_').collect::<String>().to_lowercase()
}

/// Normalizes a documented opcode name: drop `_`/`-`/spaces, lowercase.
fn norm_doc(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase()
}

/// Doc and code agree when one normalized name prefixes the other —
/// `statsreply` vs `stats`, `heavy` vs `heavyhitters`.
fn names_match(code: &str, doc: &str) -> bool {
    !code.is_empty() && !doc.is_empty() && (code.starts_with(doc) || doc.starts_with(code))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(wire_rs: &str, metrics_rs: &str, wire_doc: &str, obs_doc: &str) -> Vec<WsFinding> {
        let files = vec![
            SourceFile::parse("crates/server/src/wire.rs", wire_rs),
            SourceFile::parse("crates/server/src/metrics.rs", metrics_rs),
        ];
        let docs = vec![
            (WIRE_DOC.to_string(), wire_doc.to_string()),
            (OBS_DOC.to_string(), obs_doc.to_string()),
        ];
        let ws = Workspace::new(files, docs);
        let mut out = Vec::new();
        SpecDrift.run(&ws, &mut out);
        out
    }

    const CLEAN_WIRE: &str = "pub const K_PING: u8 = 0x01;\npub const K_STATS_REPLY: u8 = 0x84;\n";
    const CLEAN_WDOC: &str = "| Opcode | Name | Payload |\n|---|---|---|\n| 0x01 | Ping | empty |\n| 0x84 | Stats | counts |\n";
    const CLEAN_MET: &str = "fn wire(r: &Registry) { r.counter(\"sktp_frames_total\", \"h\"); }\n";
    const CLEAN_ODOC: &str = "| Metric | Type |\n|---|---|\n| `sktp_frames_total{direction=…}` | counter |\n";

    #[test]
    fn clean_round_trip_is_empty() {
        let out = run(CLEAN_WIRE, CLEAN_MET, CLEAN_WDOC, CLEAN_ODOC);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn documented_opcode_missing_from_code_is_doc_anchored() {
        let doc = format!("{CLEAN_WDOC}| 0x09 | Merge | synopsis |\n");
        let out = run(CLEAN_WIRE, CLEAN_MET, &doc, CLEAN_ODOC);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, WIRE_DOC);
        assert!(out[0].message.contains("0x09"), "{out:?}");
    }

    #[test]
    fn undocumented_constant_is_rs_anchored() {
        let wire = format!("{CLEAN_WIRE}pub const K_EVICT: u8 = 0x0E;\n");
        let out = run(&wire, CLEAN_MET, CLEAN_WDOC, CLEAN_ODOC);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].file.ends_with("wire.rs"));
        assert!(out[0].message.contains("undocumented frame kind"), "{out:?}");
    }

    #[test]
    fn name_mismatch_at_same_value_is_flagged() {
        let doc = "| 0x01 | Hello | empty |\n| 0x84 | Stats | counts |\n";
        let out = run(CLEAN_WIRE, CLEAN_MET, doc, CLEAN_ODOC);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("K_PING"), "{out:?}");
        assert!(out[0].message.contains("Hello"), "{out:?}");
    }

    #[test]
    fn prefix_name_matching_accepts_reply_suffixes() {
        // `Stats` ↔ `K_STATS_REPLY` in the clean fixture already; also
        // the reverse direction: doc longer than code.
        let wire = "pub const K_HEAVY: u8 = 0x07;\n";
        let doc = "| 0x07 | HeavyHitters | query |\n";
        let out = run(wire, CLEAN_MET, doc, CLEAN_ODOC);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn documented_metric_without_registration_is_flagged() {
        let doc = format!("{CLEAN_ODOC}| `sktp_ghost_total` | counter |\n");
        let out = run(CLEAN_WIRE, CLEAN_MET, CLEAN_WDOC, &doc);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, OBS_DOC);
        assert!(out[0].message.contains("sktp_ghost_total"), "{out:?}");
    }

    #[test]
    fn histogram_derived_series_are_satisfied_by_base() {
        let met = "fn m(r: &Registry) { r.counter(\"sktp_frames_total\", \"h\"); \
                   r.histogram(\"sktp_request_seconds\", \"h\"); }\n";
        let doc = format!(
            "{CLEAN_ODOC}| `sktp_request_seconds` | histogram |\n\
             Prose: watch `sktp_request_seconds_count` for rates.\n"
        );
        let out = run(CLEAN_WIRE, met, CLEAN_WDOC, &doc);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unregistered_in_doc_table_and_registered_not_in_doc() {
        let met = "fn m(r: &Registry) { r.counter(\"sktp_frames_total\", \"h\"); \
                   r.gauge(\"sktp_hidden_gauge\", \"h\"); }\n";
        let out = run(CLEAN_WIRE, met, CLEAN_WDOC, CLEAN_ODOC);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].file.ends_with("metrics.rs"));
        assert!(out[0].message.contains("sktp_hidden_gauge"), "{out:?}");
        assert!(out[0].message.contains("undocumented export"), "{out:?}");
    }

    #[test]
    fn curly_label_suffixes_are_stripped_before_lookup() {
        // `{direction=…}` in the clean doc row already exercises this;
        // a prose mention with labels must also resolve.
        let doc = format!("{CLEAN_ODOC}See `sktp_frames_total{{direction=\"in\"}}`.\n");
        let out = run(CLEAN_WIRE, CLEAN_MET, CLEAN_WDOC, &doc);
        assert!(out.is_empty(), "{out:?}");
    }
}
