//! Findings and machine-readable report rendering.

use sketchtree_metrics::json::Json;
use std::fmt::Write as _;

/// One finding from one pass at one source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id, e.g. `"L1"`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// `Some(reason)` when a `lint:allow` marker documents the site; such
    /// findings are recorded but do not fail the gate.
    pub allowed: Option<String>,
}

/// The outcome of analysing a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, allowed and not, ordered by file then line.
    pub findings: Vec<Finding>,
    /// Files that were scanned.
    pub files_scanned: Vec<String>,
}

impl Report {
    /// Findings not excused by a `lint:allow` marker — the ones that fail
    /// the gate.
    pub fn undocumented(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed.is_none())
    }

    /// Findings that were excused, with their reasons.
    pub fn allowed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed.is_some())
    }

    /// True when the gate passes: zero undocumented findings.
    pub fn is_clean(&self) -> bool {
        self.undocumented().next().is_none()
    }

    /// Stable ordering for deterministic output.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Human-readable text rendering.
    pub fn to_text(&self, show_allowed: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            match &f.allowed {
                None => {
                    let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
                }
                Some(reason) if show_allowed => {
                    let _ = writeln!(
                        out,
                        "{}:{}: [{}] allowed ({reason}): {}",
                        f.file, f.line, f.rule, f.message
                    );
                }
                Some(_) => {}
            }
        }
        let bad = self.undocumented().count();
        let ok = self.allowed().count();
        let _ = writeln!(
            out,
            "{} file(s) scanned, {bad} undocumented finding(s), {ok} allowed",
            self.files_scanned.len()
        );
        out
    }

    /// Machine-readable JSON rendering, two-space indented: `findings`
    /// (each with `rule`, `file`, `line`, `message`, and `allowed` — the
    /// reason, or `null`), then the `files_scanned`, `undocumented` and
    /// `allowed` counts and the `clean` verdict.
    pub fn to_json(&self) -> String {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                let mut o = Json::obj();
                o.set("rule", Json::Str(f.rule.to_string()))
                    .set("file", Json::Str(f.file.clone()))
                    .set("line", Json::Num(f64::from(f.line)))
                    .set("message", Json::Str(f.message.clone()))
                    .set("allowed", f.allowed.clone().map_or(Json::Null, Json::Str));
                o
            })
            .collect();
        let count = |n: usize| Json::Num(n as f64);
        let mut doc = Json::obj();
        doc.set("findings", Json::Arr(findings))
            .set("files_scanned", count(self.files_scanned.len()))
            .set("undocumented", count(self.undocumented().count()))
            .set("allowed", count(self.allowed().count()))
            .set("clean", Json::Bool(self.is_clean()));
        doc.render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, allowed: Option<&str>) -> Finding {
        Finding {
            rule,
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            message: "msg with \"quotes\"".into(),
            allowed: allowed.map(String::from),
        }
    }

    #[test]
    fn clean_logic() {
        let mut r = Report::default();
        assert!(r.is_clean());
        r.findings.push(finding("L1", Some("fine")));
        assert!(r.is_clean());
        r.findings.push(finding("L2", None));
        assert!(!r.is_clean());
        assert_eq!(r.undocumented().count(), 1);
        assert_eq!(r.allowed().count(), 1);
    }

    #[test]
    fn json_escapes() {
        let mut r = Report::default();
        r.findings.push(finding("L1", None));
        let j = r.to_json();
        assert!(j.contains("\\\"quotes\\\""), "{j}");
        let doc = Json::parse(&j).expect("well-formed JSON");
        assert_eq!(doc.get("clean"), Some(&Json::Bool(false)));
        let Some(Json::Arr(findings)) = doc.get("findings") else { panic!("{j}") };
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("message").and_then(Json::as_str),
            Some("msg with \"quotes\"")
        );
        assert_eq!(findings[0].get("allowed"), Some(&Json::Null));
    }
}
