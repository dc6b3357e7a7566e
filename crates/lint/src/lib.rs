//! `mfpa-lint` — a registry-access-free static-analysis pass that
//! enforces the workspace determinism-and-robustness contract
//! (DESIGN.md §6/§8) at the source level, before any test runs.
//!
//! The tool walks every library `.rs` file in the workspace
//! (`crates/*/src/**`, plus the root package's `src/**`), tokenizes it
//! with a small hand-rolled lexer (no `syn` — the build environment has
//! no crates.io), and runs two passes over it:
//!
//! 1. the **token-pattern** scan for d1 and d4 over each file's token
//!    stream ([`rules`]), and
//! 2. the **semantic** layers: a total parser recovers the item tree
//!    ([`parser`]), each function is read once into a shared
//!    per-function IR of statements, patterns and closures ([`ir`]), a
//!    workspace call graph is built with conservative fallback edges
//!    ([`callgraph`]), and per-function facts ([`taint`],
//!    [`dataflow`], [`absint`], each reading the IR) are mapped through
//!    *reachability from the declared deterministic roots*
//!    ([`ROOT_SPECS`]).
//!
//! Every pass tags its sites with a fact family, and one routing table
//! ([`rules::Family::route`]) turns a family into a rule. A taint fact
//! has one detector and two labels: inside a reachable function it
//! becomes a d7/d8/d9 finding carrying the full `root → … → sink` call
//! chain; the same fact in unreachable code becomes the crate-scoped
//! d2/d5/d3 finding.
//!
//! Violations can be suppressed inline with a mandatory justification:
//!
//! ```text
//! let t = Instant::now(); // mfpa-lint: allow(d3, "timing metadata only")
//! ```
//!
//! A standalone suppression comment covers the next line; adjacent
//! standalone suppressions stack. Each allow is consumed by exactly one
//! finding line: suppressions without a reason, with an unknown rule
//! id, or that match nothing are themselves violations — suppression
//! creep must stay visible.

#![warn(missing_docs)]

pub mod absint;
pub mod callgraph;
pub mod dataflow;
pub mod ir;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod taint;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use callgraph::{CallGraph, FileItems, Reachability};
use rules::{Roots, Site, Suppression};

/// The declared deterministic roots (DESIGN §8): every function
/// reachable from one of these must satisfy d7–d9. A spec's last
/// segment is a function name; preceding segments must match the
/// node's `impl` type, trait, module, or crate.
pub const ROOT_SPECS: &[&str] = &[
    "pipeline::prepare",
    "deploy::score_fleet",
    "DriveMonitor::ingest",
    "FleetMonitor::ingest_batch",
    "checkpoint::restore",
    "fleet::generate",
    "Classifier::fit",
    "Classifier::predict_proba",
    "CompiledEnsemble::predict_proba",
    "SequentialScorer::score_rows",
];

/// The decoder roots for the d12 decoder-bounds rule: the entry points
/// hostile bytes flow through. Everything reachable from these must
/// bounds-guard its slice indexing — corrupted input is refused with a
/// structured error, never a panic. Same spec syntax as [`ROOT_SPECS`].
pub const DECODE_ROOT_SPECS: &[&str] = &["checkpoint::restore", "CompiledEnsemble::from_bytes"];

/// The snapshot/JSON schema version. Bumped to 2 when findings gained
/// the `chain` field and the snapshot per-rule `entries`; to 3 when the
/// dataflow rules d10–d12 joined the catalog; to 4 when the value-range
/// rules d13–d15 joined and d6 became a fallback behind the semantic
/// cast judgment.
pub const SCHEMA_VERSION: u32 = 4;

/// One lint finding, suppressed or not.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Catalog rule id (`d1`..`d15`), or `lint` for meta findings.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What was matched.
    pub message: String,
    /// The call chain that makes this finding matter: for d7–d9 the
    /// shortest `root → … → sink` path from a deterministic root; for
    /// lexical findings the enclosing function (or the file label for
    /// module-level hits).
    pub chain: Vec<String>,
    /// The suppression reason when an `allow` covers this finding.
    pub suppressed: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if self.chain.len() > 1 {
            write!(f, "\n    chain: {}", self.chain.join(" → "))?;
        }
        if let Some(reason) = &self.suppressed {
            write!(f, " (allowed: {reason})")?;
        }
        Ok(())
    }
}

/// Tool-level failure (I/O, bad root), distinct from lint findings.
#[derive(Debug)]
pub struct LintError(String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LintError {}

/// Aggregated result of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, suppressed and unsuppressed, in file/line order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub n_files: usize,
}

impl LintReport {
    /// Findings not covered by an `allow`.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Findings covered by an `allow`.
    pub fn suppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_some())
    }

    /// Whether the workspace is clean (CI gate).
    pub fn is_clean(&self) -> bool {
        self.unsuppressed().next().is_none()
    }

    /// Human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in self.unsuppressed() {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        let n_bad = self.unsuppressed().count();
        let n_allowed = self.suppressed().count();
        out.push_str(&format!(
            "mfpa-lint: {} file(s) scanned, {} rule(s), {} violation(s), {} allowed\n",
            self.n_files,
            rules::RULES.len(),
            n_bad,
            n_allowed,
        ));
        out
    }

    /// Machine-readable report (`--format json`).
    pub fn to_json(&self) -> serde_json::Value {
        let finding = |f: &Finding| {
            serde_json::json!({
                "rule": f.rule,
                "file": f.file,
                "line": f.line,
                "message": f.message,
                "chain": f.chain,
                "suppressed": f.suppressed,
            })
        };
        serde_json::json!({
            "schema_version": SCHEMA_VERSION,
            "files_scanned": self.n_files,
            "violations": self.unsuppressed().count(),
            "allowed": self.suppressed().count(),
            "findings": self.findings.iter().map(finding).collect::<Vec<_>>(),
        })
    }

    /// The committed `results/lint_report.json` snapshot: per rule, the
    /// suppressions with their reasons and call chains, so suppression
    /// creep shows up in diffs and every waiver stays attributable to a
    /// deterministic root.
    pub fn snapshot_json(&self) -> serde_json::Value {
        let mut per_rule: BTreeMap<&str, Vec<serde_json::Value>> = BTreeMap::new();
        for r in rules::RULES {
            per_rule.insert(r.id, Vec::new());
        }
        for f in self.suppressed() {
            let entry = serde_json::json!({
                "at": format!("{}:{}", f.file, f.line),
                "reason": f.suppressed.clone().unwrap_or_default(),
                "chain": f.chain,
            });
            per_rule.entry(f.rule.as_str()).or_default().push(entry);
        }
        let rules_json: Vec<serde_json::Value> = rules::RULES
            .iter()
            .map(|r| {
                let entries = per_rule.get(r.id).cloned().unwrap_or_default();
                serde_json::json!({
                    "rule": r.id,
                    "name": r.name,
                    "allows": entries.len(),
                    "entries": entries,
                })
            })
            .collect();
        serde_json::json!({
            "schema_version": SCHEMA_VERSION,
            "files_scanned": self.n_files,
            "violations": self.unsuppressed().count(),
            "rules": rules_json,
        })
    }
}

/// Renders a JSON value with two-space indentation (the vendored
/// serde_json only prints compact) so the committed snapshot diffs
/// line-by-line.
pub fn pretty_json(value: &serde_json::Value) -> String {
    let mut out = String::new();
    render(value, 0, &mut out);
    out.push('\n');
    out
}

fn render(value: &serde_json::Value, indent: usize, out: &mut String) {
    use serde_json::Value;
    let (open, close, items): (char, char, Vec<(Option<&String>, &Value)>) = match value {
        Value::Array(a) if !a.is_empty() => ('[', ']', a.iter().map(|v| (None, v)).collect()),
        Value::Object(m) if !m.is_empty() => {
            ('{', '}', m.iter().map(|(k, v)| (Some(k), v)).collect())
        }
        scalar_or_empty => return out.push_str(&scalar_or_empty.to_string()),
    };
    out.push(open);
    for (i, (key, item)) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(indent + 1));
        if let Some(k) = key {
            out.push_str(&Value::String((*k).clone()).to_string());
            out.push_str(": ");
        }
        render(item, indent + 1, out);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(indent));
    out.push(close);
}

/// One source file to lint: crate directory name (`core`, …, `suite`),
/// workspace-relative label, and the source text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Crate directory name under `crates/`, or `suite` for the root
    /// package.
    pub crate_name: String,
    /// Workspace-relative path label used in findings.
    pub label: String,
    /// File contents.
    pub text: String,
}

/// The file-local half of a per-file scan: suppressions, and the fact
/// sites of each function (parallel to the parsed functions) plus the
/// token-pattern sites outside every function. The other half,
/// [`FileItems`], feeds the cross-file passes.
struct FileLocal {
    allows: Vec<Suppression>,
    malformed: Vec<(u32, String)>,
    fn_sites: Vec<Vec<Site>>,
    module_sites: Vec<Site>,
}

pub(crate) fn scan_file(sf: &SourceFile) -> (FileLocal, FileItems) {
    let tokens = lexer::tokenize(&sf.text);
    let kept = rules::strip_test_code(&tokens);
    let (allows, malformed) = rules::extract_suppressions(&kept);
    let code = comment_free(&kept);
    let parsed = parser::parse(&code);
    let irs: Vec<ir::FnIr> = parsed
        .functions
        .iter()
        .map(|f| ir::build(&code, f))
        .collect();
    let mut fn_sites = Vec::with_capacity(irs.len());
    let mut codecs = Vec::new();
    for (ix, (f, ir)) in parsed.functions.iter().zip(&irs).enumerate() {
        let mut sites = Vec::new();
        taint::analyze_fn(&code, f, ir, &parsed.unordered_fields, &mut sites);
        codecs.extend(dataflow::analyze_fn(&code, f, ir, &mut sites).map(|c| (ix, c)));
        fn_sites.push(sites);
    }
    for (ix, site) in dataflow::check_codecs(&codecs) {
        fn_sites[ix].push(site);
    }
    // A token-pattern site belongs to the innermost function around it.
    let mut module_sites = Vec::new();
    for site in rules::scan_rules(&code) {
        let around = parsed.functions.iter().enumerate();
        let around = around.filter(|(_, f)| f.line <= site.line && site.line <= f.end_line);
        match around.min_by_key(|(_, f)| f.end_line - f.line) {
            Some((ix, _)) => fn_sites[ix].push(site),
            None => module_sites.push(site),
        }
    }
    let local = FileLocal {
        allows,
        malformed,
        fn_sites,
        module_sites,
    };
    let items = FileItems {
        crate_name: sf.crate_name.clone(),
        label: sf.label.clone(),
        mod_path: callgraph::module_path_from_label(&sf.label),
        parsed,
        irs,
        code,
    };
    (local, items)
}

/// Builds the workspace call graph for a set of in-memory files.
/// Per-file parsing runs on the deterministic `mfpa_par` pool, so the
/// graph is bit-identical at any `MFPA_THREADS`.
pub fn build_call_graph(files: &[SourceFile]) -> CallGraph {
    let workers = mfpa_par::Workers::from_config(0);
    let scans = mfpa_par::ordered_map(files, workers, |_, sf| scan_file(sf));
    let items: Vec<FileItems> = scans.into_iter().map(|(_, items)| items).collect();
    CallGraph::build(&items)
}

/// Lints a set of in-memory source files as one workspace: per-file
/// scans on the `mfpa_par` pool, then everything cross-file (call
/// graph, reachability, value-range interpretation) plus suppression
/// matching. This is the core entry point; [`lint_workspace`] and
/// [`lint_source`] are thin wrappers.
pub fn lint_files(files: &[SourceFile]) -> LintReport {
    let workers = mfpa_par::Workers::from_config(0);
    let scans = mfpa_par::ordered_map(files, workers, |_, sf| scan_file(sf));
    let (mut locals, items): (Vec<FileLocal>, Vec<FileItems>) = scans.into_iter().unzip();
    let mut graph = CallGraph::build(&items);
    let abs = absint::analyze(&items, &graph);
    let fn_sites = locals
        .iter_mut()
        .flat_map(|l| std::mem::take(&mut l.fn_sites));
    for ((node, sites), fa) in graph.nodes.iter_mut().zip(fn_sites).zip(abs) {
        node.sites = sites;
        node.sites.extend(fa.sites);
    }
    let reach = Reachability::compute(&graph, ROOT_SPECS);
    let reach_decode = Reachability::compute(&graph, DECODE_ROOT_SPECS);

    // Node indices per file label.
    let mut nodes_of_file: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (ix, n) in graph.nodes.iter().enumerate() {
        nodes_of_file.entry(n.file.as_str()).or_default().push(ix);
    }

    let mut report = LintReport {
        findings: Vec::new(),
        n_files: items.len(),
    };
    let reached = |roots: Roots, ix: usize| {
        let r = match roots {
            Roots::None => return None,
            Roots::Deterministic => &reach,
            Roots::Decoder => &reach_decode,
        };
        r.chains.get(ix)?.as_deref()
    };
    for (local, file) in locals.iter().zip(&items) {
        let file_nodes = nodes_of_file
            .get(file.label.as_str())
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        report
            .findings
            .extend(assemble_file(local, file, &graph, reached, file_nodes));
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
}

/// Turns one file's fact sites into findings — each labelled by its
/// family's route and chained through `reached` (the root chain of a
/// node, per root set) — then matches suppressions.
fn assemble_file<'g>(
    local: &FileLocal,
    file: &FileItems,
    graph: &CallGraph,
    reached: impl Fn(Roots, usize) -> Option<&'g [usize]>,
    file_nodes: &[usize],
) -> Vec<Finding> {
    let qname = |ix: usize| graph.nodes[ix].qname.clone();
    let finding = |rule: &str, line, message, chain| Finding {
        rule: rule.to_owned(),
        file: file.label.clone(),
        line,
        message,
        chain,
        suppressed: None,
    };
    let owned = file_nodes
        .iter()
        .map(|&ix| (Some(ix), &graph.nodes[ix].sites));
    let sites = owned
        .chain([(None, &local.module_sites)])
        .flat_map(|(ix, sites)| sites.iter().map(move |s| (ix, s)));
    let mut findings = Vec::new();
    for (ix, site) in sites {
        let route = site.family.route();
        let (label, mut chain) = match ix.and_then(|ix| reached(route.roots, ix)) {
            Some(root_chain) => (
                route.reached,
                root_chain.iter().map(|&i| qname(i)).collect(),
            ),
            None => (
                route.otherwise,
                vec![ix.map_or_else(|| file.label.clone(), qname)],
            ),
        };
        let Some(rule) = label.filter(|id| rules::applies(id, &file.crate_name)) else {
            continue;
        };
        chain.extend(site.pair.and_then(|p| file_nodes.get(p)).map(|&p| qname(p)));
        findings.push(finding(rule, site.line, site.what.clone(), chain));
    }
    findings.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(&b.rule)));

    // Suppression matching: findings of one rule on one line form a
    // group, and each group consumes at most one allow — the nearest
    // unused one (same line first, then upward through a contiguous
    // standalone stack). An allow can never cover two finding lines.
    let mut used = vec![false; local.allows.len()];
    let mut reasons: BTreeMap<(String, u32), Option<String>> = BTreeMap::new();
    for f in &mut findings {
        let reason = reasons
            .entry((f.rule.clone(), f.line))
            .or_insert_with(|| consume_allow(&local.allows, &mut used, &f.rule, f.line));
        f.suppressed = reason.clone();
    }

    let unsuppressible = |line, message| finding("lint", line, message, vec![file.label.clone()]);
    for (line, message) in &local.malformed {
        findings.push(unsuppressible(*line, message.clone()));
    }
    for (allow, used) in local.allows.iter().zip(&used) {
        if !used {
            let message = format!(
                "unused suppression for `{}` (nothing to allow here — remove it)",
                allow.rule
            );
            findings.push(unsuppressible(allow.line, message));
        }
    }
    findings
}

fn comment_free(tokens: &[lexer::Token]) -> Vec<lexer::Token> {
    tokens
        .iter()
        .filter(|t| !matches!(t.kind, lexer::TokenKind::Comment { .. }))
        .cloned()
        .collect()
}

/// Finds and consumes the nearest unused `allow` covering a finding
/// group at (`rule`, `line`): first any allow on the line itself
/// (trailing or same-line block comment), then standalone allows
/// walking upward through a contiguous block. Consumed allows are
/// never reused for another finding line — that is the fix for the
/// stacked-allow accounting bug, where a same-line standalone allow
/// could cover both its own line and the next.
fn consume_allow(
    allows: &[Suppression],
    used: &mut [bool],
    rule: &str,
    line: u32,
) -> Option<String> {
    let mut take = |pred: &dyn Fn(&Suppression) -> bool| -> Option<String> {
        let ix = allows
            .iter()
            .enumerate()
            .position(|(i, a)| !used[i] && a.rule == rule && pred(a))?;
        used[ix] = true;
        Some(allows[ix].reason.clone())
    };
    if let Some(reason) = take(&|a| a.line == line) {
        return Some(reason);
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if !allows.iter().any(|a| a.line == l && a.standalone) {
            break;
        }
        if let Some(reason) = take(&|a| a.line == l && a.standalone) {
            return Some(reason);
        }
    }
    None
}

/// Lints one file's source text as belonging to `crate_name` (the
/// directory name under `crates/`, or `suite` for the root package).
/// The file is treated as a one-file workspace: roots it declares are
/// honored, everything else falls to the crate-scoped lexical rules.
pub fn lint_source(crate_name: &str, file_label: &str, src: &str) -> Vec<Finding> {
    let files = [SourceFile {
        crate_name: crate_name.to_owned(),
        label: file_label.to_owned(),
        text: src.to_owned(),
    }];
    lint_files(&files).findings
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Collects every library source file under the workspace root: each
/// `crates/<name>/src/**/*.rs` plus the root package's `src/**/*.rs`.
/// `tests/`, `benches/`, `examples/`, `vendor/` and `target/` are out
/// of scope — the contract governs shipping code.
///
/// # Errors
///
/// Returns [`LintError`] on I/O failures (unreadable directories or
/// files).
pub fn collect_workspace(root: &Path) -> Result<Vec<SourceFile>, LintError> {
    let mut units: Vec<(String, PathBuf)> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries = std::fs::read_dir(&crates_dir)
            .map_err(|e| LintError(format!("read {}: {e}", crates_dir.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| LintError(format!("read crates/: {e}")))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                let name = entry.file_name().to_string_lossy().into_owned();
                units.push((name, src));
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        units.push(("suite".to_owned(), root_src));
    }
    units.sort();

    let mut out = Vec::new();
    for (crate_name, src_dir) in units {
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| LintError(format!("read {}: {e}", path.display())))?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                crate_name: crate_name.clone(),
                label,
                text,
            });
        }
    }
    Ok(out)
}

/// Lints every library source file under the workspace root.
///
/// # Errors
///
/// Returns [`LintError`] on I/O failures (unreadable directories or
/// files), never on lint findings.
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    let files = collect_workspace(root)?;
    Ok(lint_files(&files))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| LintError(format!("read {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError(format!("read {}: {e}", dir.display())))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_allow_covers_its_line() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // mfpa-lint: allow(d5, \"test invariant\")\n}\n";
        let findings = lint_source("core", "f.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].suppressed.as_deref(), Some("test invariant"));
    }

    #[test]
    fn standalone_allow_covers_next_line_and_stacks() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n    // mfpa-lint: allow(d2, \"order normalized downstream\")\n    // mfpa-lint: allow(d5, \"checked above\")\n    m.values().map(|v| v.checked_add(1).unwrap()).collect()\n}\n";
        let findings = lint_source("core", "f.rs", src);
        assert!(
            findings.iter().all(|f| f.suppressed.is_some()),
            "{findings:?}"
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn one_allow_covers_exactly_one_finding_line() {
        // A same-line block-comment allow is standalone (no code before
        // it on its line); it must not also cover the next line.
        let src = "fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n    /* mfpa-lint: allow(d5, \"first\") */ let a = x.unwrap();\n    let b = y.unwrap();\n    a + b\n}\n";
        let findings = lint_source("core", "f.rs", src);
        let suppressed: Vec<u32> = findings
            .iter()
            .filter(|f| f.suppressed.is_some())
            .map(|f| f.line)
            .collect();
        let open: Vec<u32> = findings
            .iter()
            .filter(|f| f.suppressed.is_none())
            .map(|f| f.line)
            .collect();
        assert_eq!(suppressed, vec![2], "{findings:?}");
        assert_eq!(open, vec![3], "{findings:?}");
    }

    #[test]
    fn stacked_same_rule_allows_distribute_by_line() {
        // Two stacked d5 allows above one finding line: the nearest is
        // consumed, the farther one is reported unused — not silently
        // masked.
        let src = "fn f(x: Option<u32>) -> u32 {\n    // mfpa-lint: allow(d5, \"outer\")\n    // mfpa-lint: allow(d5, \"inner\")\n    x.unwrap()\n}\n";
        let findings = lint_source("core", "f.rs", src);
        let d5: Vec<_> = findings.iter().filter(|f| f.rule == "d5").collect();
        assert_eq!(d5.len(), 1);
        assert_eq!(d5[0].suppressed.as_deref(), Some("inner"));
        let unused: Vec<_> = findings.iter().filter(|f| f.rule == "lint").collect();
        assert_eq!(unused.len(), 1, "{findings:?}");
        assert_eq!(unused[0].line, 2);
    }

    #[test]
    fn reasonless_allow_is_a_violation() {
        let src = "// mfpa-lint: allow(d5)\nfn f() {}\n";
        let findings = lint_source("core", "f.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "lint");
        assert!(findings[0].message.contains("reason"), "{findings:?}");
    }

    #[test]
    fn unused_allow_is_a_violation() {
        let src = "fn f() {} // mfpa-lint: allow(d5, \"nothing here\")\n";
        let findings = lint_source("core", "f.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "lint");
        assert!(findings[0].message.contains("unused"), "{findings:?}");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(lint_source("core", "f.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let findings = lint_source("core", "f.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "d5");
    }

    #[test]
    fn out_of_scope_crate_is_silent() {
        // bench may panic and take wall-clock time freely (as long as
        // nothing reachable from a deterministic root lives there).
        let src = "fn f(x: Option<u32>) -> u32 { let _t = Instant::now(); x.unwrap() }\n";
        assert!(lint_source("bench", "f.rs", src).is_empty());
    }

    #[test]
    fn reachable_panic_is_d8_with_chain() {
        let src = "
            pub struct MfpaConfig;
            impl MfpaConfig {
                pub fn prepare(&self) { step(); }
            }
            fn step(x: Option<u32>) -> u32 { x.unwrap() }
        ";
        let findings = lint_source("core", "crates/core/src/pipeline.rs", src);
        let d8: Vec<_> = findings.iter().filter(|f| f.rule == "d8").collect();
        assert_eq!(d8.len(), 1, "{findings:?}");
        assert_eq!(
            d8[0].chain,
            vec![
                "core::pipeline::MfpaConfig::prepare".to_owned(),
                "core::pipeline::step".to_owned(),
            ]
        );
        // The same fact is reported once, under its reachable label.
        assert!(findings.iter().all(|f| f.rule != "d5"), "{findings:?}");
    }

    #[test]
    fn unordered_iteration_reaching_a_root_is_d7() {
        let src = "
            pub fn score_fleet(m: &HashMap<String, f64>) -> Vec<f64> {
                collect_scores(m)
            }
            fn collect_scores(m: &HashMap<String, f64>) -> Vec<f64> {
                m.values().cloned().collect()
            }
            fn lookup_only(m: &HashMap<String, f64>) -> f64 {
                *m.get(\"a\").unwrap_or(&0.0)
            }
        ";
        let findings = lint_source("core", "crates/core/src/deploy.rs", src);
        let d7: Vec<_> = findings.iter().filter(|f| f.rule == "d7").collect();
        assert_eq!(d7.len(), 1, "{findings:?}");
        assert_eq!(d7[0].chain.len(), 2);
        assert!(d7[0].chain[0].ends_with("score_fleet"));
    }

    #[test]
    fn clock_escape_reaching_a_root_is_d9() {
        let src = "
            pub struct DriveMonitor;
            impl DriveMonitor {
                pub fn ingest(&mut self) -> u64 { seed() }
            }
            fn seed() -> u64 {
                let t = Instant::now();
                hash_of(t)
            }
        ";
        let findings = lint_source("telemetry", "crates/telemetry/src/drive.rs", src);
        let d9: Vec<_> = findings.iter().filter(|f| f.rule == "d9").collect();
        assert_eq!(d9.len(), 1, "{findings:?}");
        assert_eq!(d9[0].chain.len(), 2);
    }

    #[test]
    fn unreachable_facts_fall_back_to_crate_scoped_rules() {
        let src = "
            fn helper(m: &HashMap<String, f64>) -> Vec<f64> {
                m.values().cloned().collect()
            }
        ";
        let findings = lint_source("core", "crates/core/src/util.rs", src);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, vec!["d2"], "{findings:?}");
        // Same fact in a crate outside the d2 scope: silent.
        assert!(lint_source("lint", "crates/lint/src/util.rs", src)
            .iter()
            .all(|f| f.rule != "d2"));
    }

    #[test]
    fn workspace_root_is_found() {
        let here = std::env::current_dir().expect("cwd exists");
        let root = find_workspace_root(&here).expect("inside the workspace");
        assert!(root.join("crates").is_dir());
    }
}
