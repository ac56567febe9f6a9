//! Report rendering: human text and the `freerider-lint/3` JSON document.
//!
//! The JSON mirrors the telemetry crate's reporting conventions: emitted
//! by [`freerider_telemetry::json::JsonWriter`], fully deterministic
//! (sorted findings, no timestamps), schema-tagged so CI can assert shape.

use crate::rules::{Analysis, Rule, ALL_RULES};
use freerider_telemetry::json::JsonWriter;
use std::fmt::Write as _;

/// Schema tag of the JSON report.
pub const SCHEMA: &str = "freerider-lint/3";

/// Renders the human-readable report: one line per finding, then a
/// one-line summary.
pub fn text(analysis: &Analysis) -> String {
    let mut out = String::new();
    for f in &analysis.findings {
        // lint: allow(panic) — write! to a String cannot fail
        writeln!(out, "{}", f.render()).expect("write to String");
    }
    writeln!(
        out,
        "freerider-lint: {} file(s), {} finding(s)",
        analysis.files_scanned,
        analysis.findings.len(),
    )
    .expect("write to String"); // lint: allow(panic) — write! to a String cannot fail
    out
}

/// Renders the machine-readable report.
pub fn json(root: &str, analysis: &Analysis) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string(SCHEMA);
    w.key("root").string(root);
    w.key("filesScanned").u64(analysis.files_scanned as u64);
    w.key("registry").begin_array();
    for name in &analysis.registry {
        w.string(name);
    }
    w.end_array();
    w.key("rules").begin_array();
    for rule in ALL_RULES {
        w.begin_object();
        w.key("id").string(rule.id());
        w.key("slug").string(rule.slug());
        w.key("description").string(rule.description());
        w.key("findings").begin_array();
        for f in analysis.findings.iter().filter(|f| f.rule == rule) {
            w.begin_object();
            w.key("file").string(&f.path);
            w.key("line").u64(f.line as u64);
            w.key("message").string(&f.message);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("totalFindings").u64(analysis.findings.len() as u64);
    w.key("ok").bool(analysis.ok());
    w.end_object();
    w.finish()
}

/// Renders the `--list-rules` catalogue.
pub fn rule_catalogue() -> String {
    let mut out = String::new();
    for rule in ALL_RULES {
        if rule == Rule::Pragma {
            continue;
        }
        writeln!(
            out,
            "{:>2}  {:<17} {}",
            rule.id(),
            rule.slug(),
            rule.description()
        )
        .expect("write to String"); // lint: allow(panic) — write! to a String cannot fail
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    fn sample() -> Analysis {
        Analysis {
            findings: vec![Finding {
                rule: Rule::Panic,
                path: "crates/x/src/lib.rs".to_string(),
                line: 7,
                message: "boom".to_string(),
            }],
            files_scanned: 3,
            registry: ["FREERIDER_THREADS".to_string()].into(),
        }
    }

    #[test]
    fn text_report_has_canonical_finding_lines() {
        let t = text(&sample());
        assert!(t.contains("crates/x/src/lib.rs:7: panic: boom"));
        assert!(t.contains("3 file(s), 1 finding(s)"));
    }

    #[test]
    fn json_report_is_valid_and_tagged() {
        let j = json("/ws", &sample());
        assert!(j.starts_with(&format!(r#"{{"schema":"{SCHEMA}""#)));
        assert!(j.contains(r#""slug":"panic""#));
        assert!(
            j.contains(r#""findings":[{"file":"crates/x/src/lib.rs","line":7,"message":"boom"}]"#)
        );
        assert!(j.contains(r#""totalFindings":1"#));
        assert!(j.contains(r#""ok":false"#));
        // Balanced delimiters (JsonWriter::finish already asserts this,
        // but check the output survived formatting).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
