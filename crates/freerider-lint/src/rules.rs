//! The rule engine: repo-specific invariants over the token stream and
//! the [`crate::items`] item tree.
//!
//! | id | slug | invariant |
//! |----|------|-----------|
//! | D1 | `wallclock` | no `Instant` / `SystemTime` outside the telemetry stopwatch (`timer.rs`) and the bench harness |
//! | D2 | `hash-collections` | no `HashMap` / `HashSet` in non-test code (iteration order is nondeterministic) |
//! | D3 | `env-registry` | every `FREERIDER_*` name in a string literal must be listed in `freerider-core/src/env.rs` |
//! | P1 | `panic` | no `.unwrap()` / `.expect(…)` / `panic!` in library non-test code |
//! | U1 | `unsafe-audit` | every `unsafe` is preceded by a `// SAFETY:` comment; unsafe-free crates carry `#![forbid(unsafe_code)]` |
//! | A1 | `hot-path-alloc` | no heap allocation (`Vec::new`, `vec!`, `Box::new`, `.collect()`, …) inside designated hot-path functions |
//! | O1 | `atomic-ordering` | `Relaxed` only in sanctioned telemetry/metrics counter sites; `SeqCst` always needs a justification pragma |
//! | T1 | `thread-containment` | `std::thread::spawn` / `scope` / `Builder` only inside `freerider-rt` and `freerider-serve` |
//! | E1 | `wire-exhaustive` | every `FrameType` variant has a decode arm in `from_byte` and an encode site somewhere in non-test code |
//! | —  | `pragma` | `// lint:` comments must parse (unknown rule / missing reason is itself a finding) |
//!
//! Findings can be waived per line with
//! `// lint: allow(<slug>) — <reason>` (trailing on the offending line, or
//! alone on the line above it); the reason is mandatory. Rules with a
//! catalogue id also accept the lowercase id (`allow(a1)`). Test code —
//! `#[cfg(test)]` / `#[test]` items and `tests/` files — is exempt from
//! D1, D2, P1, A1, O1 and T1 but not from D3 or U1.
//!
//! A1 designations come from two places: the built-in [`HOT_PATHS`] table
//! (the workspace's RX/DSP/coding kernels), and an in-source
//! `// lint: hot-path` marker comment placed directly above a function.

use crate::items::ItemTree;
use crate::lexer::{lex, Tok, Token};
use crate::walk::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// The rules, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1 — wall-clock reads break run-to-run determinism.
    Wallclock,
    /// D2 — hashed collections iterate in nondeterministic order.
    HashCollections,
    /// D3 — undocumented `FREERIDER_*` knobs drift silently.
    EnvRegistry,
    /// P1 — library code must return errors, not abort the process.
    Panic,
    /// U1 — unsafe requires a written safety argument (or a crate ban).
    UnsafeAudit,
    /// A1 — designated hot-path functions must not allocate.
    HotPathAlloc,
    /// O1 — atomic orderings are audited: Relaxed is for counters only.
    AtomicOrdering,
    /// T1 — threads may only be spawned in the runtime and server crates.
    ThreadContainment,
    /// E1 — wire-protocol frame types must round-trip encode/decode.
    WireExhaustive,
    /// Malformed `// lint:` pragma.
    Pragma,
}

/// All rules, in the order reports list them.
pub const ALL_RULES: [Rule; 10] = [
    Rule::Wallclock,
    Rule::HashCollections,
    Rule::EnvRegistry,
    Rule::Panic,
    Rule::UnsafeAudit,
    Rule::HotPathAlloc,
    Rule::AtomicOrdering,
    Rule::ThreadContainment,
    Rule::WireExhaustive,
    Rule::Pragma,
];

impl Rule {
    /// The slug used in findings, pragmas, and reports.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::Wallclock => "wallclock",
            Rule::HashCollections => "hash-collections",
            Rule::EnvRegistry => "env-registry",
            Rule::Panic => "panic",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::ThreadContainment => "thread-containment",
            Rule::WireExhaustive => "wire-exhaustive",
            Rule::Pragma => "pragma",
        }
    }

    /// The short catalogue id (`D1`…`E1`; the pragma check has none).
    pub fn id(self) -> &'static str {
        match self {
            Rule::Wallclock => "D1",
            Rule::HashCollections => "D2",
            Rule::EnvRegistry => "D3",
            Rule::Panic => "P1",
            Rule::UnsafeAudit => "U1",
            Rule::HotPathAlloc => "A1",
            Rule::AtomicOrdering => "O1",
            Rule::ThreadContainment => "T1",
            Rule::WireExhaustive => "E1",
            Rule::Pragma => "-",
        }
    }

    /// One-line description for `--list-rules` and the JSON report.
    pub fn description(self) -> &'static str {
        match self {
            Rule::Wallclock => {
                "no Instant/SystemTime outside the freerider-telemetry stopwatch and the bench harness"
            }
            Rule::HashCollections => {
                "no HashMap/HashSet in non-test code (use BTreeMap/BTreeSet or sort before emit)"
            }
            Rule::EnvRegistry => {
                "every FREERIDER_* env var must be listed in freerider-core/src/env.rs"
            }
            Rule::Panic => "no unwrap()/expect()/panic! in library non-test code",
            Rule::UnsafeAudit => {
                "unsafe requires a preceding // SAFETY: comment; unsafe-free crates \
                 must carry #![forbid(unsafe_code)]"
            }
            Rule::HotPathAlloc => {
                "designated hot-path functions must not heap-allocate \
                 (Vec::new, vec!, Box::new, .collect(), .to_vec(), String::from, format!)"
            }
            Rule::AtomicOrdering => {
                "Relaxed atomics only in sanctioned telemetry/metrics counter sites; \
                 SeqCst always requires a justification pragma"
            }
            Rule::ThreadContainment => {
                "std::thread::spawn/scope/Builder only inside freerider-rt and freerider-serve"
            }
            Rule::WireExhaustive => {
                "every FrameType variant needs a decode arm in from_byte and an \
                 encode site in non-test code"
            }
            Rule::Pragma => "// lint: pragmas must name a known rule and give a reason",
        }
    }

    /// Parses a slug — or a lowercase catalogue id like `a1` — back to a
    /// rule (pragmas may name any except `pragma`).
    pub fn from_slug(s: &str) -> Option<Rule> {
        ALL_RULES
            .into_iter()
            .find(|r| *r != Rule::Pragma && (r.slug() == s || r.id().to_ascii_lowercase() == s))
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The canonical `file:line: rule: message` rendering.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.path,
            self.line,
            self.rule.slug(),
            self.message
        )
    }
}

/// The result of analyzing a workspace.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// The registered `FREERIDER_*` names found in the env registry.
    pub registry: BTreeSet<String>,
}

impl Analysis {
    /// True when the run passes: no findings at all.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Path (workspace-relative) of the central env-var registry D3 reads.
pub const REGISTRY_PATH: &str = "crates/freerider-core/src/env.rs";

/// Files D1 exempts: the telemetry stopwatch is the *only* library code
/// allowed to read the clock. The stage profiler, the flight recorder and
/// the server's latency rows all read time through it, and their output
/// is reported separately from the deterministic sections.
const WALLCLOCK_EXEMPT_FILES: [&str; 1] = ["crates/freerider-telemetry/src/timer.rs"];

/// Crates exempt from D1 and P1 wholesale: the bench harness exists to
/// measure wall-clock time, and the lint's own fixtures never ship.
const BENCH_CRATE: &str = "freerider-bench";

/// A1's built-in designations: `(workspace-relative file, function
/// names)`. Names match [`crate::items::Item::named`] — either the bare
/// qualified name or an `Impl::method` suffix. A name that resolves to no
/// function in an existing designated file is itself an A1 finding, so
/// renames can't silently drop a kernel from enforcement.
pub const HOT_PATHS: &[(&str, &[&str])] = &[
    (
        "crates/freerider-dsp/src/fft.rs",
        &["process64", "fft64", "ifft64"],
    ),
    (
        "crates/freerider-dsp/src/corr.rs",
        &["normalized_correlation_into", "peak", "first_above"],
    ),
    (
        "crates/freerider-coding/src/convolutional.rs",
        &[
            "parity",
            "depuncture_soft_into",
            "viterbi_decode_soft_scratch",
        ],
    ),
    (
        "crates/freerider-coding/src/crc.rs",
        &["crc32", "crc16_itu", "crc24_ble"],
    ),
    (
        "crates/freerider-coding/src/interleaver.rs",
        &["Interleaver::deinterleave_symbol_soft_into"],
    ),
    (
        "crates/freerider-wifi/src/rx.rs",
        &[
            "Receiver::receive_with",
            "Receiver::detect_with",
            "Receiver::decode_at_with",
            "Receiver::equalize_symbol_into",
            "dc_ensure",
        ],
    ),
    ("crates/freerider-zigbee/src/rx.rs", &["Receiver::receive"]),
    ("crates/freerider-ble/src/rx.rs", &["Receiver::receive"]),
];

/// O1: file prefixes where `Relaxed` is sanctioned — the telemetry
/// sink switches (one relaxed load per disabled hook) and the flight
/// recorder's lane counter, plus the server's per-instance
/// `ServerMetrics` counters and subscriber-queue tallies. Everywhere else
/// a Relaxed load/store needs a pragma arguing why no ordering is
/// required.
const O1_RELAXED_SANCTIONED_PREFIXES: [&str; 1] = ["crates/freerider-telemetry/src/"];

/// O1: individual sanctioned files outside the prefix list.
const O1_RELAXED_SANCTIONED_FILES: [&str; 2] = [
    "crates/freerider-serve/src/metrics.rs",
    "crates/freerider-serve/src/queue.rs",
];

/// T1: the only crates allowed to create threads — the deterministic
/// runtime (owns the worker pool) and the server (session-per-connection).
const THREAD_CRATES: [&str; 2] = ["freerider-rt", "freerider-serve"];

/// E1: the wire-protocol enum the exhaustiveness check anchors on.
const WIRE_ENUM: &str = "FrameType";

/// E1: the decoder every variant must appear in (as a match-arm ident).
const WIRE_DECODE_FN: &str = "from_byte";

/// Runs every rule over the given files (as discovered by
/// [`crate::walk::discover`]). `root` is the workspace root.
pub fn analyze(root: &Path, files: &[SourceFile]) -> io::Result<Analysis> {
    let registry = load_registry(root);
    let mut findings = Vec::new();
    // Per-crate U1 state: does the lib target contain `unsafe`, and does
    // its crate root carry `#![forbid(unsafe_code)]`?
    let mut lib_unsafe: BTreeMap<String, bool> = BTreeMap::new();
    let mut lib_forbid: BTreeMap<String, (String, bool)> = BTreeMap::new();
    // E1 accumulates across files: the wire enum's variants, every decode
    // arm, and every encode site, then settles after the loop.
    let mut wire = WireScan::default();

    for file in files {
        let src = fs::read_to_string(&file.abs)?;
        let ctx = FileCtx::new(file, &src, &registry);
        ctx.check(&mut findings);
        ctx.scan_wire(&mut wire);
        if file.kind == FileKind::Lib {
            let has_unsafe = ctx.has_unsafe();
            *lib_unsafe.entry(file.crate_name.clone()).or_insert(false) |= has_unsafe;
            if file.is_lib_root {
                lib_forbid.insert(
                    file.crate_name.clone(),
                    (file.rel.clone(), ctx.has_forbid_unsafe()),
                );
            }
        }
    }

    // U1, crate half: a crate with no unsafe in its library target must
    // ban it outright, so the audit burden can never grow silently.
    for (crate_name, (lib_rel, has_forbid)) in &lib_forbid {
        let has_unsafe = lib_unsafe.get(crate_name).copied().unwrap_or(false);
        if !has_unsafe && !has_forbid {
            findings.push(Finding {
                rule: Rule::UnsafeAudit,
                path: lib_rel.clone(),
                line: 1,
                message: format!(
                    "crate `{crate_name}` has no unsafe code but its crate root \
                     lacks #![forbid(unsafe_code)]"
                ),
            });
        }
    }

    // E1, settle: every declared variant must decode and encode somewhere.
    wire.settle(&mut findings);

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Analysis {
        findings,
        files_scanned: files.len(),
        registry,
    })
}

/// One declared wire-enum variant: `(name, line, e1-waived)`.
type WireVariant = (String, u32, bool);

/// E1 working state, accumulated file by file.
#[derive(Debug, Default)]
struct WireScan {
    /// Each declaration of the wire enum: file, then its variants.
    enums: Vec<(String, Vec<WireVariant>)>,
    /// Idents appearing inside any `FrameType::from_byte` body.
    decode_idents: BTreeSet<String>,
    /// Whether a `from_byte` decoder was seen at all.
    saw_decoder: bool,
    /// Variants referenced as `FrameType::X` in non-test code outside the
    /// declaration and the decoder.
    encode_refs: BTreeSet<String>,
}

impl WireScan {
    /// Emits the cross-file findings once every file has been scanned.
    fn settle(&self, out: &mut Vec<Finding>) {
        for (path, variants) in &self.enums {
            for (name, line, waived) in variants {
                if *waived {
                    continue;
                }
                if !self.saw_decoder {
                    out.push(Finding {
                        rule: Rule::WireExhaustive,
                        path: path.clone(),
                        line: *line,
                        message: format!(
                            "`{WIRE_ENUM}::{name}` has no decoder: no \
                             `{WIRE_ENUM}::{WIRE_DECODE_FN}` function found"
                        ),
                    });
                } else if !self.decode_idents.contains(name) {
                    out.push(Finding {
                        rule: Rule::WireExhaustive,
                        path: path.clone(),
                        line: *line,
                        message: format!(
                            "`{WIRE_ENUM}::{name}` has no decode arm in \
                             `{WIRE_ENUM}::{WIRE_DECODE_FN}` — a peer sending this \
                             frame type would be rejected"
                        ),
                    });
                }
                if !self.encode_refs.contains(name) {
                    out.push(Finding {
                        rule: Rule::WireExhaustive,
                        path: path.clone(),
                        line: *line,
                        message: format!(
                            "`{WIRE_ENUM}::{name}` is never encoded: no \
                             `{WIRE_ENUM}::{name}` reference outside the declaration \
                             and the decoder"
                        ),
                    });
                }
            }
        }
    }
}

/// Loads the registered env-var names: every `FREERIDER_*` string literal
/// in non-test code of [`REGISTRY_PATH`] (its tests look up near-miss
/// names that must not count as registered). A missing registry file
/// means an empty registry (so every knob is flagged until one is
/// created).
fn load_registry(root: &Path) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    if let Ok(src) = fs::read_to_string(root.join(REGISTRY_PATH)) {
        let tokens = lex(&src);
        for (tok, in_test) in tokens.iter().zip(test_mask(&tokens)) {
            if let (Tok::Str(s), false) = (&tok.kind, in_test) {
                names.extend(freerider_names(s));
            }
        }
    }
    names
}

/// Extracts every maximal `FREERIDER_[A-Z0-9_]+` run from a string.
pub fn freerider_names(s: &str) -> Vec<String> {
    const PREFIX: &str = "FREERIDER_";
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(off) = s[i..].find(PREFIX) {
        let start = i + off;
        let mut end = start + PREFIX.len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        if end > start + PREFIX.len() {
            out.push(s[start..end].to_string());
        }
        i = end;
    }
    out
}

/// Everything the per-file checks need, computed once per file.
struct FileCtx<'a> {
    file: &'a SourceFile,
    registry: &'a BTreeSet<String>,
    tokens: Vec<Token>,
    /// The item tree: module/impl structure, fn bodies, enum variants.
    items: ItemTree,
    /// True for tokens inside `#[cfg(test)]` / `#[test]` items.
    in_test: Vec<bool>,
    /// Per rule: lines waived by a parsed `// lint: allow(…)` pragma.
    allowed: BTreeMap<Rule, BTreeSet<u32>>,
    /// Malformed-pragma findings discovered while parsing comments.
    pragma_errors: Vec<(u32, String)>,
    /// End lines of `SAFETY:` comments (for U1 adjacency).
    safety_lines: BTreeSet<u32>,
    /// A1: token spans of designated hot-path fn bodies, with the
    /// function's qualified name (built-ins plus `// lint: hot-path`
    /// markers).
    hot_spans: Vec<(usize, usize, String)>,
    /// A1: built-in designations that resolved to no function here.
    unresolved_hot: Vec<&'static str>,
}

impl<'a> FileCtx<'a> {
    fn new(file: &'a SourceFile, src: &str, registry: &'a BTreeSet<String>) -> Self {
        let tokens = lex(src);
        let in_test = test_mask(&tokens);
        let items = ItemTree::parse(&tokens);
        let mut ctx = FileCtx {
            file,
            registry,
            in_test,
            allowed: BTreeMap::new(),
            pragma_errors: Vec::new(),
            safety_lines: BTreeSet::new(),
            hot_spans: Vec::new(),
            unresolved_hot: Vec::new(),
            items,
            tokens,
        };
        ctx.scan_comments();
        ctx.resolve_hot_paths();
        ctx
    }

    /// Parses pragmas, hot-path markers and SAFETY markers out of the
    /// comment tokens.
    fn scan_comments(&mut self) {
        for i in 0..self.tokens.len() {
            let (text, line, end_line) = match &self.tokens[i].kind {
                Tok::LineComment(t) => (t.clone(), self.tokens[i].line, self.tokens[i].end_line),
                Tok::BlockComment(t) => (t.clone(), self.tokens[i].line, self.tokens[i].end_line),
                _ => continue,
            };
            let trimmed = text.trim_start_matches(['/', '!', '*', ' ', '\t']);
            if trimmed.starts_with("SAFETY:") {
                self.safety_lines.insert(end_line);
            }
            match parse_pragma(&text) {
                Ok(None) => {}
                Ok(Some(Pragma::Allow(rule, _reason))) => {
                    let target = self.pragma_target(i, line);
                    self.allowed.entry(rule).or_default().insert(target);
                }
                Ok(Some(Pragma::HotPath)) => {
                    let target = self.pragma_target(i, line);
                    // Designate the first function at or below the marker
                    // (attributes between marker and `fn` are fine: items
                    // record the `fn` keyword's line).
                    let marked = self
                        .items
                        .fns()
                        .filter(|f| f.line >= target)
                        .min_by_key(|f| f.line)
                        .map(|f| (f.body, f.qual.clone()));
                    match marked {
                        Some((Some((s, e)), qual)) => self.hot_spans.push((s, e, qual)),
                        Some((None, _)) => {} // bodyless decl: nothing to check
                        None => self.pragma_errors.push((
                            line,
                            "`lint: hot-path` marker precedes no function".to_string(),
                        )),
                    }
                }
                Err(msg) => self.pragma_errors.push((line, msg)),
            }
        }
    }

    /// Resolves this file's built-in [`HOT_PATHS`] designations.
    fn resolve_hot_paths(&mut self) {
        for (rel, names) in HOT_PATHS {
            if *rel != self.file.rel {
                continue;
            }
            for name in *names {
                let mut resolved = false;
                for f in self.items.fns().filter(|f| f.named(name)) {
                    resolved = true;
                    if let Some((s, e)) = f.body {
                        self.hot_spans.push((s, e, f.qual.clone()));
                    }
                }
                if !resolved {
                    self.unresolved_hot.push(name);
                }
            }
        }
    }

    /// The qualified name of the designated hot fn owning token `idx`.
    fn hot_owner(&self, idx: usize) -> Option<&str> {
        self.hot_spans
            .iter()
            .find(|(s, e, _)| *s <= idx && idx <= *e)
            .map(|(_, _, q)| q.as_str())
    }

    /// E1 contributions of this file: wire-enum declarations, decode-arm
    /// idents, and encode references.
    fn scan_wire(&self, wire: &mut WireScan) {
        // Declarations.
        let mut excluded: Vec<(usize, usize)> = Vec::new();
        for e in self.items.enums().filter(|e| e.name == WIRE_ENUM) {
            excluded.push(e.span);
            let waived = self.allowed.get(&Rule::WireExhaustive);
            wire.enums.push((
                self.file.rel.clone(),
                e.variants
                    .iter()
                    .map(|v| {
                        (
                            v.name.clone(),
                            v.line,
                            waived.is_some_and(|w| w.contains(&v.line)),
                        )
                    })
                    .collect(),
            ));
        }
        // Decode arms: idents inside `FrameType::from_byte`'s body.
        let decode_pat = format!("{WIRE_ENUM}::{WIRE_DECODE_FN}");
        for f in self.items.fns().filter(|f| f.named(&decode_pat)) {
            wire.saw_decoder = true;
            if let Some((s, e)) = f.body {
                excluded.push((s, e));
                for t in &self.tokens[s..=e.min(self.tokens.len() - 1)] {
                    if let Tok::Ident(name) = &t.kind {
                        wire.decode_idents.insert(name.clone());
                    }
                }
            }
        }
        // Encode sites: `FrameType :: <Variant>` in non-test code outside
        // the declaration and the decoder.
        let n = self.tokens.len();
        for i in 0..n.saturating_sub(3) {
            if excluded.iter().any(|&(s, e)| s <= i && i <= e) {
                continue;
            }
            if self.file.kind == FileKind::Test || self.in_test[i] {
                continue;
            }
            let quad = (
                &self.tokens[i].kind,
                &self.tokens[i + 1].kind,
                &self.tokens[i + 2].kind,
                &self.tokens[i + 3].kind,
            );
            if let (Tok::Ident(head), Tok::Punct(':'), Tok::Punct(':'), Tok::Ident(v)) = quad {
                if head == WIRE_ENUM {
                    wire.encode_refs.insert(v.clone());
                }
            }
        }
    }

    /// The line a pragma waives: its own line when it trails code, else
    /// the line of the next code token below it.
    fn pragma_target(&self, comment_idx: usize, comment_line: u32) -> u32 {
        let trails_code = self.tokens[..comment_idx]
            .iter()
            .rev()
            .take_while(|t| t.end_line >= comment_line)
            .any(|t| !is_comment(t) && t.end_line == comment_line);
        if trails_code {
            return comment_line;
        }
        self.tokens[comment_idx + 1..]
            .iter()
            .find(|t| !is_comment(t))
            .map(|t| t.line)
            .unwrap_or(comment_line)
    }

    fn is_allowed(&self, rule: Rule, line: u32) -> bool {
        self.allowed.get(&rule).is_some_and(|s| s.contains(&line))
    }

    /// True when the file as a whole is test code.
    fn is_test_file(&self) -> bool {
        self.file.kind == FileKind::Test
    }

    fn has_unsafe(&self) -> bool {
        self.tokens
            .iter()
            .any(|t| matches!(&t.kind, Tok::Ident(s) if s == "unsafe"))
    }

    /// Detects `#![forbid(unsafe_code)]` (possibly with more lints listed).
    fn has_forbid_unsafe(&self) -> bool {
        let code: Vec<&Token> = self.tokens.iter().filter(|t| !is_comment(t)).collect();
        for w in 0..code.len().saturating_sub(4) {
            if matches!(code[w].kind, Tok::Punct('#'))
                && matches!(code[w + 1].kind, Tok::Punct('!'))
                && matches!(code[w + 2].kind, Tok::Punct('['))
                && matches!(&code[w + 3].kind, Tok::Ident(s) if s == "forbid")
            {
                for t in &code[w + 4..] {
                    match &t.kind {
                        Tok::Punct(']') => break,
                        Tok::Ident(s) if s == "unsafe_code" => return true,
                        _ => {}
                    }
                }
            }
        }
        false
    }

    /// Runs all per-file rules, appending to `out`.
    fn check(&self, out: &mut Vec<Finding>) {
        for (line, msg) in &self.pragma_errors {
            self.emit(out, Rule::Pragma, *line, msg.clone());
        }
        for name in &self.unresolved_hot {
            self.emit(
                out,
                Rule::HotPathAlloc,
                1,
                format!(
                    "hot-path designation `{name}` matches no function in this \
                     file (renamed or removed? update rules::HOT_PATHS)"
                ),
            );
        }

        let code: Vec<(usize, &Token)> = self
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !is_comment(t))
            .collect();

        for (pos, &(idx, tok)) in code.iter().enumerate() {
            let test_code = self.is_test_file() || self.in_test[idx];
            match &tok.kind {
                Tok::Ident(name) => {
                    self.check_ident(out, &code, pos, idx, name, tok.line, test_code);
                }
                Tok::Str(s) => self.check_string(out, s, tok.line),
                _ => {}
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // one site; splitting loses clarity
    fn check_ident(
        &self,
        out: &mut Vec<Finding>,
        code: &[(usize, &Token)],
        pos: usize,
        idx: usize,
        name: &str,
        line: u32,
        test_code: bool,
    ) {
        let next_is = |c: char| {
            code.get(pos + 1)
                .is_some_and(|(_, t)| matches!(t.kind, Tok::Punct(p) if p == c))
        };
        let prev_is_dot = pos > 0 && matches!(code[pos - 1].1.kind, Tok::Punct('.'));
        // `name::member` — the member ident after a `::` path separator.
        let path_member = || -> Option<&str> {
            if code.get(pos + 1).map(|(_, t)| &t.kind) == Some(&Tok::Punct(':'))
                && code.get(pos + 2).map(|(_, t)| &t.kind) == Some(&Tok::Punct(':'))
            {
                match code.get(pos + 3).map(|(_, t)| &t.kind) {
                    Some(Tok::Ident(m)) => Some(m.as_str()),
                    _ => None,
                }
            } else {
                None
            }
        };
        // `prefix :: name` — the path head two puncts back.
        let path_head = || -> Option<&str> {
            if pos >= 3
                && matches!(code[pos - 1].1.kind, Tok::Punct(':'))
                && matches!(code[pos - 2].1.kind, Tok::Punct(':'))
            {
                match &code[pos - 3].1.kind {
                    Tok::Ident(h) => Some(h.as_str()),
                    _ => None,
                }
            } else {
                None
            }
        };

        // A1 — heap allocation inside a designated hot-path function.
        if !test_code {
            if let Some(owner) = self.hot_owner(idx) {
                let owner = owner.to_string();
                let construct: Option<String> = match name {
                    "Vec" | "String" => path_member()
                        .filter(|m| matches!(*m, "new" | "with_capacity" | "from"))
                        .map(|m| format!("{name}::{m}")),
                    "Box" => path_member()
                        .filter(|m| *m == "new")
                        .map(|m| format!("Box::{m}")),
                    "vec" | "format" if next_is('!') => Some(format!("{name}!")),
                    "collect" | "to_vec" | "to_owned" | "to_string"
                        if prev_is_dot && (next_is('(') || next_is(':')) =>
                    {
                        Some(format!(".{name}()"))
                    }
                    _ => None,
                };
                if let Some(c) = construct {
                    self.emit_unless_allowed(
                        out,
                        Rule::HotPathAlloc,
                        line,
                        format!(
                            "`{c}` allocates inside designated hot-path function \
                             `{owner}`; reuse scratch/arena buffers, or annotate \
                             `// lint: allow(a1) — <why this allocation is cold>`"
                        ),
                    );
                }
            }
        }

        // O1 — atomic-ordering audit.
        if !test_code {
            match name {
                "Relaxed" if !self.relaxed_sanctioned() => {
                    self.emit_unless_allowed(
                        out,
                        Rule::AtomicOrdering,
                        line,
                        "`Ordering::Relaxed` outside the sanctioned telemetry/metrics \
                         counter sites; use Acquire/Release for synchronization, or \
                         annotate `// lint: allow(o1) — <why no ordering is needed>`"
                            .to_string(),
                    );
                }
                "SeqCst" => {
                    self.emit_unless_allowed(
                        out,
                        Rule::AtomicOrdering,
                        line,
                        "`Ordering::SeqCst` is a red flag in this codebase (usually a \
                         stand-in for reasoning); justify it with \
                         `// lint: allow(o1) — <why sequential consistency is required>` \
                         or weaken the ordering"
                            .to_string(),
                    );
                }
                _ => {}
            }
        }

        // T1 — thread containment: `thread::{spawn,scope,Builder}` outside
        // the runtime and server crates.
        if !test_code
            && matches!(name, "spawn" | "scope" | "Builder")
            && path_head() == Some("thread")
            && !THREAD_CRATES.contains(&self.file.crate_name.as_str())
        {
            self.emit_unless_allowed(
                out,
                Rule::ThreadContainment,
                line,
                format!(
                    "`thread::{name}` outside freerider-rt/freerider-serve: all \
                     parallelism must go through the deterministic runtime \
                     (freerider_rt::map) so results stay thread-count-invariant"
                ),
            );
        }

        match name {
            // D1 — wall-clock.
            "Instant" | "SystemTime" if !test_code && self.wallclock_applies() => {
                self.emit_unless_allowed(
                    out,
                    Rule::Wallclock,
                    line,
                    format!(
                        "`{name}` is wall-clock time; deterministic code must not read the \
                     clock (the telemetry stopwatch and the bench harness are the exemptions)"
                    ),
                );
            }
            // D2 — hashed collections.
            "HashMap" | "HashSet" if !test_code => {
                self.emit_unless_allowed(
                    out,
                    Rule::HashCollections,
                    line,
                    format!(
                        "`{name}` iterates in nondeterministic order; use BTreeMap/BTreeSet, \
                     or sort before emitting and annotate \
                     `// lint: allow(hash-collections) — <why sorted>`"
                    ),
                );
            }
            // P1 — panic policy.
            "unwrap" | "expect"
                if !test_code && self.panic_applies() && prev_is_dot && next_is('(') =>
            {
                self.emit_unless_allowed(
                    out,
                    Rule::Panic,
                    line,
                    format!(
                        ".{name}() can abort the process; return a typed error, or annotate \
                     `// lint: allow(panic) — <why this cannot fail>`"
                    ),
                );
            }
            "panic" if !test_code && self.panic_applies() && next_is('!') => {
                self.emit_unless_allowed(
                    out,
                    Rule::Panic,
                    line,
                    "panic! aborts the process; return a typed error, or annotate \
                     `// lint: allow(panic) — <why this is unreachable>`"
                        .to_string(),
                );
            }
            // U1 — per-site half: every `unsafe` needs an adjacent SAFETY
            // comment (applies to test code too — audits don't stop at
            // #[cfg(test)]).
            "unsafe" => {
                let documented = self.safety_lines.contains(&line)
                    || self.safety_lines.contains(&line.saturating_sub(1));
                if !documented {
                    self.emit(
                        out,
                        Rule::UnsafeAudit,
                        line,
                        "`unsafe` without an immediately preceding // SAFETY: comment \
                         stating why the invariants hold"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }

    /// D3 — every `FREERIDER_*` name mentioned in a string literal must be
    /// registered. Applies everywhere (tests reading an unregistered knob
    /// are still drift); the registry file itself is exempt.
    fn check_string(&self, out: &mut Vec<Finding>, s: &str, line: u32) {
        if self.file.rel == REGISTRY_PATH {
            return;
        }
        for name in freerider_names(s) {
            if !self.registry.contains(&name) {
                self.emit_unless_allowed(
                    out,
                    Rule::EnvRegistry,
                    line,
                    format!(
                        "`{name}` is not listed in the env-var registry \
                     ({REGISTRY_PATH}); register it so knobs stay documented"
                    ),
                );
            }
        }
    }

    fn wallclock_applies(&self) -> bool {
        self.file.crate_name != BENCH_CRATE
            && !WALLCLOCK_EXEMPT_FILES.contains(&self.file.rel.as_str())
    }

    fn panic_applies(&self) -> bool {
        self.file.kind == FileKind::Lib && self.file.crate_name != BENCH_CRATE
    }

    /// O1: is `Relaxed` sanctioned in this file (counter sites)?
    fn relaxed_sanctioned(&self) -> bool {
        O1_RELAXED_SANCTIONED_PREFIXES
            .iter()
            .any(|p| self.file.rel.starts_with(p))
            || O1_RELAXED_SANCTIONED_FILES.contains(&self.file.rel.as_str())
    }

    fn emit_unless_allowed(&self, out: &mut Vec<Finding>, rule: Rule, line: u32, msg: String) {
        if !self.is_allowed(rule, line) {
            self.emit(out, rule, line, msg);
        }
    }

    fn emit(&self, out: &mut Vec<Finding>, rule: Rule, line: u32, message: String) {
        out.push(Finding {
            rule,
            path: self.file.rel.clone(),
            line,
            message,
        });
    }
}

fn is_comment(t: &Token) -> bool {
    matches!(t.kind, Tok::LineComment(_) | Tok::BlockComment(_))
}

/// A parsed `// lint:` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pragma {
    /// `lint: allow(<rule>) — <reason>`: waive `rule` on the target line.
    Allow(Rule, String),
    /// `lint: hot-path`: designate the next function as an A1 hot path.
    HotPath,
}

/// Parses one comment as a pragma.
///
/// Grammar: `lint: allow(<slug>) <sep> <reason>` where `<slug>` is a rule
/// slug or lowercase catalogue id (`a1`), `<sep>` is `—`, `-` or `:`
/// (optional) and `<reason>` is non-empty — or the bare marker
/// `lint: hot-path` (optionally followed by a `<sep> <note>`). Returns
/// `Ok(None)` for comments that are not pragmas at all, and `Err` for
/// comments that start with `lint:` but do not parse — a typo'd pragma
/// silently allowing nothing would be worse than a finding.
pub fn parse_pragma(text: &str) -> Result<Option<Pragma>, String> {
    let t = text.trim();
    let Some(rest) = t.strip_prefix("lint:") else {
        return Ok(None);
    };
    let rest = rest.trim_start();
    if let Some(after) = rest.strip_prefix("hot-path") {
        let after = after.trim_start();
        if after.is_empty() || after.starts_with(['—', '-', ':', '–']) {
            return Ok(Some(Pragma::HotPath));
        }
        return Err(format!(
            "malformed pragma `{t}`: `lint: hot-path` takes no arguments \
             (an optional `— <note>` is allowed)"
        ));
    }
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Err(format!(
            "malformed pragma `{t}`: expected `lint: allow(<rule>) — <reason>` \
             or `lint: hot-path`"
        ));
    };
    let Some(close) = rest.find(')') else {
        return Err(format!("malformed pragma `{t}`: unclosed `allow(`"));
    };
    let slug = rest[..close].trim();
    let Some(rule) = Rule::from_slug(slug) else {
        return Err(format!(
            "pragma names unknown rule `{slug}` (known: wallclock, hash-collections, \
             env-registry, panic, unsafe-audit, hot-path-alloc, atomic-ordering, \
             thread-containment, wire-exhaustive — or ids d1/d2/d3/p1/u1/a1/o1/t1/e1)"
        ));
    };
    let reason: String = rest[close + 1..]
        .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
        .trim()
        .to_string();
    if reason.is_empty() {
        return Err(format!(
            "pragma `allow({slug})` has no reason; write \
             `// lint: allow({slug}) — <why this is sound>`"
        ));
    }
    Ok(Some(Pragma::Allow(rule, reason)))
}

/// Marks tokens belonging to `#[cfg(test)]` / `#[test]` items (the
/// attribute, any stacked attributes after it, and the item body through
/// its closing `}` or `;`).
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !is_comment(&tokens[i]))
        .collect();
    let kind = |ci: usize| -> &Tok { &tokens[code[ci]].kind };

    let mut ci = 0;
    while ci < code.len() {
        if matches!(kind(ci), Tok::Punct('#'))
            && ci + 1 < code.len()
            && matches!(kind(ci + 1), Tok::Punct('['))
        {
            if let Some(close) = matching(&code, tokens, ci + 1, '[', ']') {
                if attr_is_test(tokens, &code[ci + 2..close]) {
                    // Consume stacked attributes after the matching one.
                    let mut end = close;
                    while end + 2 < code.len()
                        && matches!(kind(end + 1), Tok::Punct('#'))
                        && matches!(kind(end + 2), Tok::Punct('['))
                    {
                        match matching(&code, tokens, end + 2, '[', ']') {
                            Some(c) => end = c,
                            None => break,
                        }
                    }
                    let item_end = item_end(&code, tokens, end + 1);
                    for &ti in &code[ci..=item_end.min(code.len() - 1)] {
                        mask[ti] = true;
                    }
                    ci = item_end + 1;
                    continue;
                }
                ci = close + 1;
                continue;
            }
        }
        ci += 1;
    }
    mask
}

/// Finds the code-index of the delimiter matching `code[open_ci]`.
fn matching(
    code: &[usize],
    tokens: &[Token],
    open_ci: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for (ci, &ti) in code.iter().enumerate().skip(open_ci) {
        match tokens[ti].kind {
            Tok::Punct(p) if p == open => depth += 1,
            Tok::Punct(p) if p == close => {
                depth -= 1;
                if depth == 0 {
                    return Some(ci);
                }
            }
            _ => {}
        }
    }
    None
}

/// True when the attribute token span means "test code": `#[test]`, or a
/// `cfg`/`cfg_attr` whose predicate mentions `test` outside any `not(…)`.
fn attr_is_test(tokens: &[Token], inner: &[usize]) -> bool {
    let idents: Vec<&str> = inner
        .iter()
        .filter_map(|&ti| match &tokens[ti].kind {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    if idents.as_slice() == ["test"] {
        return true;
    }
    if idents.first() != Some(&"cfg") {
        return false;
    }
    // Walk the predicate tracking which head ident owns each paren group,
    // so `cfg(not(test))` is recognised as NOT test code.
    let mut heads: Vec<String> = Vec::new();
    let mut last_ident: Option<String> = None;
    for &ti in inner {
        match &tokens[ti].kind {
            Tok::Ident(s) => {
                if s == "test" && !heads.iter().any(|h| h == "not") {
                    return true;
                }
                last_ident = Some(s.clone());
            }
            Tok::Punct('(') => heads.push(last_ident.take().unwrap_or_default()),
            Tok::Punct(')') => {
                heads.pop();
            }
            _ => last_ident = None,
        }
    }
    false
}

/// Code-index of the last token of the item starting at `start_ci`: the
/// first `;` at depth 0, or the `}` matching the first `{`.
fn item_end(code: &[usize], tokens: &[Token], start_ci: usize) -> usize {
    let mut depth = 0usize;
    for (ci, &ti) in code.iter().enumerate().skip(start_ci) {
        match tokens[ti].kind {
            Tok::Punct(';') if depth == 0 => return ci,
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return ci;
                }
            }
            _ => {}
        }
    }
    code.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::SourceFile;
    use std::path::PathBuf;

    fn lib_file(rel: &str, crate_name: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            abs: PathBuf::new(),
            crate_name: crate_name.to_string(),
            kind: FileKind::Lib,
            is_lib_root: rel.ends_with("lib.rs"),
        }
    }

    fn run(src: &str) -> Vec<Finding> {
        let file = lib_file("crates/x/src/m.rs", "x");
        let registry = BTreeSet::from(["FREERIDER_THREADS".to_string()]);
        let ctx = FileCtx::new(&file, src, &registry);
        let mut out = Vec::new();
        ctx.check(&mut out);
        out
    }

    fn slugs(src: &str) -> Vec<&'static str> {
        run(src).into_iter().map(|f| f.rule.slug()).collect()
    }

    #[test]
    fn wallclock_flags_instant_and_systemtime() {
        assert_eq!(
            slugs("use std::time::Instant;\nlet t = SystemTime::now();"),
            vec!["wallclock", "wallclock"]
        );
    }

    #[test]
    fn wallclock_in_comment_or_string_is_fine() {
        assert!(slugs("// Instant::now()\nlet s = \"SystemTime\";").is_empty());
    }

    #[test]
    fn hash_collections_flagged_with_pragma_escape() {
        assert_eq!(
            slugs("use std::collections::HashMap;"),
            vec!["hash-collections"]
        );
        assert!(slugs(
            "// lint: allow(hash-collections) — keys sorted before emit\n\
             use std::collections::HashMap;"
        )
        .is_empty());
    }

    #[test]
    fn env_registry_checks_literals() {
        assert!(slugs(r#"let v = std::env::var("FREERIDER_THREADS");"#).is_empty());
        assert_eq!(
            slugs(r#"let v = std::env::var("FREERIDER_BOGUS");"#), // lint: allow(env-registry) — negative fixture for this very rule
            vec!["env-registry"]
        );
        // Substring inside a usage string counts too.
        assert_eq!(
            slugs(r#"let u = "set FREERIDER_NOPE=1 to break things";"#), // lint: allow(env-registry) — negative fixture for this very rule
            vec!["env-registry"]
        );
    }

    #[test]
    fn panic_policy_on_method_calls_only() {
        assert_eq!(
            slugs("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); }"),
            vec!["panic", "panic", "panic"]
        );
        // unwrap_or / expect-like idents and field accesses don't match.
        assert!(slugs("fn f() { x.unwrap_or(0); let unwrap = 3; s.expected(); }").is_empty());
    }

    #[test]
    fn panic_pragma_trailing_and_preceding() {
        assert!(slugs("x.unwrap(); // lint: allow(panic) — len checked above").is_empty());
        assert!(slugs("// lint: allow(panic) — infallible on String\nx.unwrap();").is_empty());
        // A trailing pragma does not leak onto the next line.
        assert_eq!(
            slugs("x.unwrap(); // lint: allow(panic) — checked\ny.unwrap();"),
            vec!["panic"]
        );
    }

    #[test]
    fn cfg_test_items_are_exempt_from_panic_and_hash_rules() {
        let src = "\
fn prod() { real(); }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { x.unwrap(); let i = Instant::now(); }
}
";
        // D1/D2/P1 all quiet; nothing else fires.
        assert!(slugs(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        assert_eq!(
            slugs("#[cfg(not(test))]\nfn f() { x.unwrap(); }"),
            vec!["panic"]
        );
    }

    #[test]
    fn test_attr_fn_is_exempt_but_following_code_is_not() {
        let src = "\
#[test]
fn t() { x.unwrap(); }
fn prod() { y.unwrap(); }
";
        let found = run(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn unsafe_requires_adjacent_safety_comment() {
        assert_eq!(
            slugs("fn f() { unsafe { danger() } }"),
            vec!["unsafe-audit"]
        );
        assert!(slugs(
            "// SAFETY: index bounded by the loop condition above\n\
             fn f() { unsafe { danger() } }"
        )
        .is_empty());
        // A SAFETY comment two lines up is not "immediately preceding".
        assert_eq!(
            slugs("// SAFETY: stale\n\nlet _pad = 0;\nfn f() { unsafe { danger() } }"),
            vec!["unsafe-audit"]
        );
    }

    #[test]
    fn malformed_pragmas_are_findings() {
        assert_eq!(
            slugs("// lint: allow(panics) — typo'd rule\nf();"),
            vec!["pragma"]
        );
        assert_eq!(
            slugs("// lint: allow(panic)\nx.unwrap();"),
            vec!["pragma", "panic"]
        );
        assert_eq!(
            slugs("// lint: disallow(panic) — nope\nf();"),
            vec!["pragma"]
        );
    }

    #[test]
    fn pragma_parser_accepts_separator_variants() {
        for sep in ["—", "-", ":", ""] {
            let text = format!(" lint: allow(panic) {sep} reason here");
            let p = parse_pragma(&text).expect("parses").expect("is a pragma");
            assert_eq!(p, Pragma::Allow(Rule::Panic, "reason here".to_string()));
        }
        assert_eq!(parse_pragma(" ordinary comment"), Ok(None));
    }

    #[test]
    fn pragma_parser_accepts_lowercase_ids_and_hot_path_marker() {
        assert_eq!(
            parse_pragma(" lint: allow(a1) — scratch reused"),
            Ok(Some(Pragma::Allow(
                Rule::HotPathAlloc,
                "scratch reused".to_string()
            )))
        );
        assert_eq!(parse_pragma(" lint: hot-path"), Ok(Some(Pragma::HotPath)));
        assert_eq!(
            parse_pragma(" lint: hot-path — inner demod kernel"),
            Ok(Some(Pragma::HotPath))
        );
        assert!(parse_pragma(" lint: hot-path(yes)").is_err());
    }

    fn run_in(rel: &str, crate_name: &str, src: &str) -> Vec<Finding> {
        let file = lib_file(rel, crate_name);
        let registry = BTreeSet::from(["FREERIDER_THREADS".to_string()]);
        let ctx = FileCtx::new(&file, src, &registry);
        let mut out = Vec::new();
        ctx.check(&mut out);
        out
    }

    #[test]
    fn a1_fires_only_inside_marker_designated_fns() {
        let src = "\
// lint: hot-path
fn demod(out: &mut Vec<u8>) { let v = Vec::new(); let w = vec![0u8; 4]; }
fn setup() -> Vec<u8> { Vec::with_capacity(64) }
";
        let found = run(src);
        let a1: Vec<u32> = found
            .iter()
            .filter(|f| f.rule == Rule::HotPathAlloc)
            .map(|f| f.line)
            .collect();
        assert_eq!(a1, vec![2, 2], "both allocs in demod, none in setup");
    }

    #[test]
    fn a1_detects_method_call_and_macro_allocations() {
        let src = "\
// lint: hot-path
fn hot(x: &[u8]) -> usize {
    let a: Vec<u8> = x.iter().copied().collect();
    let b = x.to_vec();
    let c = format!(\"{}\", a.len());
    let d = Box::new(b);
    c.len() + d.len()
}
";
        let msgs: Vec<String> = run(src)
            .into_iter()
            .filter(|f| f.rule == Rule::HotPathAlloc)
            .map(|f| f.message)
            .collect();
        assert_eq!(msgs.len(), 4, "{msgs:?}");
        assert!(msgs[0].contains(".collect()") && msgs[0].contains("`hot`"));
        assert!(msgs[1].contains(".to_vec()"));
        assert!(msgs[2].contains("format!"));
        assert!(msgs[3].contains("Box::new"));
    }

    #[test]
    fn a1_pragma_waives_one_line() {
        let src = "\
// lint: hot-path
fn hot() {
    // lint: allow(a1) — first-call growth only; reused thereafter
    let v = Vec::with_capacity(64);
    let w = Vec::new();
}
";
        let a1: Vec<u32> = run(src)
            .into_iter()
            .filter(|f| f.rule == Rule::HotPathAlloc)
            .map(|f| f.line)
            .collect();
        assert_eq!(a1, vec![5], "only the un-waived Vec::new");
    }

    #[test]
    fn a1_builtin_designation_resolves_and_unresolved_is_a_finding() {
        // The built-in table designates Receiver::receive in the zigbee
        // rx file; a Vec::new inside it must fire without any marker.
        let src = "\
pub struct Receiver;
impl Receiver {
    pub fn receive(&self) { let v = Vec::new(); }
}
";
        let found = run_in("crates/freerider-zigbee/src/rx.rs", "freerider-zigbee", src);
        assert!(
            found
                .iter()
                .any(|f| f.rule == Rule::HotPathAlloc && f.line == 3),
            "{found:?}"
        );
        // Same file without the designated fn: the dangling designation
        // itself is the finding.
        let found = run_in(
            "crates/freerider-zigbee/src/rx.rs",
            "freerider-zigbee",
            "pub fn other() {}",
        );
        assert!(
            found
                .iter()
                .any(|f| f.rule == Rule::HotPathAlloc && f.message.contains("matches no function")),
            "{found:?}"
        );
    }

    #[test]
    fn o1_flags_relaxed_outside_sanctioned_files_and_seqcst_everywhere() {
        let src = "\
use std::sync::atomic::Ordering;
fn f(c: &std::sync::atomic::AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
    c.load(Ordering::SeqCst);
    c.store(0, Ordering::Release);
}
";
        let o1: Vec<u32> = run(src)
            .into_iter()
            .filter(|f| f.rule == Rule::AtomicOrdering)
            .map(|f| f.line)
            .collect();
        assert_eq!(o1, vec![3, 4], "Relaxed and SeqCst; Release is fine");
        // The same Relaxed in a sanctioned metrics file is quiet — but
        // SeqCst still needs a pragma even there.
        let found = run_in(
            "crates/freerider-serve/src/metrics.rs",
            "freerider-serve",
            src,
        );
        let o1: Vec<u32> = found
            .into_iter()
            .filter(|f| f.rule == Rule::AtomicOrdering)
            .map(|f| f.line)
            .collect();
        assert_eq!(o1, vec![4], "only the SeqCst");
    }

    #[test]
    fn t1_flags_thread_spawn_outside_runtime_crates() {
        let src = "\
fn f() {
    std::thread::spawn(|| {});
    std::thread::scope(|s| {});
    let b = std::thread::Builder::new();
}
";
        let t1 = run(src)
            .into_iter()
            .filter(|f| f.rule == Rule::ThreadContainment)
            .count();
        assert_eq!(t1, 3);
        // Sanctioned inside freerider-rt; and test code is exempt.
        let found = run_in("crates/freerider-rt/src/executor.rs", "freerider-rt", src);
        assert!(found.iter().all(|f| f.rule != Rule::ThreadContainment));
        let test_src = "#[cfg(test)]\nmod t { fn f() { std::thread::spawn(|| {}); } }";
        assert!(run(test_src)
            .iter()
            .all(|f| f.rule != Rule::ThreadContainment));
    }

    #[test]
    fn e1_cross_file_decode_and_encode_arms() {
        let registry = BTreeSet::new();
        let decl_src = "\
pub enum FrameType { SubmitJob = 1, Progress = 2, Orphan = 3 }
impl FrameType {
    pub fn from_byte(b: u8) -> Option<FrameType> {
        use FrameType::*;
        Some(match b { 1 => SubmitJob, 2 => Progress, _ => return None })
    }
}
";
        let use_src = "fn encode() -> u8 { FrameType::SubmitJob as u8 }\n\
                       fn stream() -> u8 { FrameType::Progress as u8 }\n";
        let decl_file = lib_file("crates/s/src/frame.rs", "s");
        let use_file = lib_file("crates/s/src/wire.rs", "s");
        let mut wire = WireScan::default();
        FileCtx::new(&decl_file, decl_src, &registry).scan_wire(&mut wire);
        FileCtx::new(&use_file, use_src, &registry).scan_wire(&mut wire);
        let mut out = Vec::new();
        wire.settle(&mut out);
        // Orphan: no decode arm AND no encode site → two findings, both
        // anchored at the variant's declaration line.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.rule == Rule::WireExhaustive
            && f.path == "crates/s/src/frame.rs"
            && f.line == 1
            && f.message.contains("Orphan")));
        assert!(out.iter().any(|f| f.message.contains("no decode arm")));
        assert!(out.iter().any(|f| f.message.contains("never encoded")));
    }

    #[test]
    fn e1_missing_decoder_entirely_is_reported() {
        let registry = BTreeSet::new();
        let decl_file = lib_file("crates/s/src/frame.rs", "s");
        let mut wire = WireScan::default();
        FileCtx::new(&decl_file, "pub enum FrameType { A = 1 }", &registry).scan_wire(&mut wire);
        let mut out = Vec::new();
        wire.settle(&mut out);
        assert!(
            out.iter().any(|f| f.message.contains("has no decoder")),
            "{out:?}"
        );
    }
}
