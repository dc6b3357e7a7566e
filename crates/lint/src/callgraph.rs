//! Workspace-wide, name-resolved call graph over the parsed item
//! trees, with conservative fallback edges where name resolution
//! cannot pin a callee down.
//!
//! Resolution is deliberately sound-leaning rather than precise:
//!
//! - `a::b::f(..)` resolves by suffix against every workspace function
//!   whose name, type/trait and module segments match; `crate::` pins
//!   the caller's crate, `mfpa_x::` pins crate `x`, `Self::` is
//!   substituted with the caller's `impl` type.
//! - an unqualified `f(..)` resolves to a free function in the
//!   caller's own module, then through the file's `use` imports, and
//!   otherwise **falls back** to every free function named `f` in the
//!   workspace.
//! - `recv.method(..)` cannot be typed at this level: `self.method()`
//!   resolves against the caller's `impl` block when possible, and
//!   everything else gets a fallback edge to *every* workspace method
//!   of that name.
//!
//! Fallback edges over-approximate reachability, which is the safe
//! direction for the d7–d9 rules: a function is only ever wrongly
//! *included* in the deterministic perimeter, never wrongly excluded.

use crate::ir::FnIr;
use crate::lexer::Token;
use crate::parser::{Callee, ParsedFile};
use crate::rules::Site;
use std::collections::BTreeMap;

/// One function in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Fully qualified display name
    /// (`crate::module::Type::fn` / `crate::module::fn`).
    pub qname: String,
    /// Crate directory name (`core`, `ml`, …, `suite`).
    pub crate_name: String,
    /// Module segments: file-derived path plus in-file `mod`s.
    pub modules: Vec<String>,
    /// `impl` type, when the fn is an inherent or trait method.
    pub type_name: Option<String>,
    /// Trait, for `impl Trait for Type` methods and trait defaults.
    pub trait_name: Option<String>,
    /// Bare function name.
    pub name: String,
    /// Workspace-relative file label.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace.
    pub end_line: u32,
    /// Every fact site inside the function, from every pass, tagged
    /// with its family. Empty until the lint run fills it in.
    pub sites: Vec<Site>,
}

/// One call edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Caller node index.
    pub caller: usize,
    /// Callee node index.
    pub callee: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// Whether this edge comes from conservative fallback resolution
    /// (unresolvable method call or unqualified name) rather than an
    /// exact match.
    pub fallback: bool,
}

/// One parsed file plus the context the graph builder needs.
#[derive(Debug, Clone)]
pub struct FileItems {
    /// Crate directory name (`core`, …, `suite`).
    pub crate_name: String,
    /// Workspace-relative file label.
    pub label: String,
    /// Module segments derived from the file's path under `src/`.
    pub mod_path: Vec<String>,
    /// The parsed item tree.
    pub parsed: ParsedFile,
    /// Per-function IR, parallel to `parsed.functions`: built once per
    /// scan and read again by the value-range interpreter.
    pub irs: Vec<FnIr>,
    /// The comment-free token stream the items were parsed from, for
    /// downstream token-level passes (the value-range interpreter).
    pub code: Vec<Token>,
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All functions, in deterministic (file, source) order.
    pub nodes: Vec<FnNode>,
    /// All edges, sorted by (caller, callee, line), deduplicated.
    pub edges: Vec<Edge>,
    /// Adjacency: for each node, indices of outgoing edges.
    pub out_edges: Vec<Vec<usize>>,
}

/// Derives the module path of a library source file from its
/// workspace-relative label: `crates/ml/src/nn/cnn_lstm.rs` →
/// `["nn", "cnn_lstm"]`; `lib.rs`, `main.rs` and `mod.rs` contribute
/// no segment of their own.
pub fn module_path_from_label(label: &str) -> Vec<String> {
    let rel = label
        .split_once("src/")
        .map(|(_, rest)| rest)
        .unwrap_or(label);
    let mut segs: Vec<String> = rel.split('/').map(str::to_owned).collect();
    let Some(last) = segs.pop() else {
        return segs;
    };
    match last.strip_suffix(".rs") {
        Some("lib") | Some("main") | Some("mod") => {}
        Some(stem) => segs.push(stem.to_owned()),
        None => {}
    }
    segs
}

/// Maps a path segment that names a workspace crate (`mfpa_ml`,
/// `mfpa_core`, …) to its crate directory name.
fn crate_of_segment(seg: &str) -> Option<&str> {
    seg.strip_prefix("mfpa_")
}

impl CallGraph {
    /// Builds the graph from every parsed file. Deterministic in its
    /// input order; files should be pre-sorted by label.
    pub fn build(files: &[FileItems]) -> CallGraph {
        let mut g = CallGraph::default();
        // File index parallel to nodes, for import lookup.
        let mut node_file: Vec<usize> = Vec::new();
        for (fx, file) in files.iter().enumerate() {
            for f in &file.parsed.functions {
                let mut modules = file.mod_path.clone();
                modules.extend(f.modules.iter().cloned());
                let mut qparts: Vec<&str> = vec![file.crate_name.as_str()];
                qparts.extend(modules.iter().map(String::as_str));
                if let Some(t) = &f.impl_type {
                    qparts.push(t);
                } else if let Some(t) = &f.trait_name {
                    qparts.push(t);
                }
                qparts.push(&f.name);
                g.nodes.push(FnNode {
                    qname: qparts.join("::"),
                    crate_name: file.crate_name.clone(),
                    modules,
                    type_name: f.impl_type.clone(),
                    trait_name: f.trait_name.clone(),
                    name: f.name.clone(),
                    file: file.label.clone(),
                    line: f.line,
                    end_line: f.end_line,
                    sites: Vec::new(),
                });
                node_file.push(fx);
            }
        }

        // Name → node indices, for all resolution strategies.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (ix, n) in g.nodes.iter().enumerate() {
            by_name.entry(n.name.as_str()).or_default().push(ix);
        }

        let mut raw_edges: Vec<Edge> = Vec::new();
        let mut caller_ix = 0usize;
        for file in files {
            for f in &file.parsed.functions {
                for call in &f.calls {
                    let targets = resolve(&g, &by_name, files, caller_ix, &call.callee);
                    for (callee, fallback) in targets {
                        raw_edges.push(Edge {
                            caller: caller_ix,
                            callee,
                            line: call.line,
                            fallback,
                        });
                    }
                }
                caller_ix += 1;
            }
        }
        raw_edges.sort_by(|a, b| {
            (a.caller, a.callee, a.line, a.fallback).cmp(&(b.caller, b.callee, b.line, b.fallback))
        });
        raw_edges.dedup_by(|a, b| (a.caller, a.callee, a.line) == (b.caller, b.callee, b.line));
        g.out_edges = vec![Vec::new(); g.nodes.len()];
        for (ex, e) in raw_edges.iter().enumerate() {
            if let Some(out) = g.out_edges.get_mut(e.caller) {
                out.push(ex);
            }
        }
        g.edges = raw_edges;
        g
    }

    /// Serializes the graph for the golden-snapshot test: nodes in
    /// order with their resolved edges as qualified names.
    pub fn to_json(&self) -> serde_json::Value {
        let nodes: Vec<serde_json::Value> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(ix, n)| {
                let calls: Vec<serde_json::Value> = self
                    .out_edges
                    .get(ix)
                    .map(|edges| {
                        edges
                            .iter()
                            .filter_map(|&ex| self.edges.get(ex))
                            .map(|e| {
                                serde_json::json!({
                                    "to": self
                                        .nodes
                                        .get(e.callee)
                                        .map(|c| c.qname.clone())
                                        .unwrap_or_default(),
                                    "line": e.line,
                                    "kind": if e.fallback { "fallback" } else { "resolved" },
                                })
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                serde_json::json!({
                    "fn": n.qname,
                    "file": n.file,
                    "line": n.line,
                    "calls": calls,
                })
            })
            .collect();
        serde_json::json!({ "functions": nodes })
    }
}

/// Resolves one call site to zero or more target nodes; the bool marks
/// fallback (over-approximate) edges.
fn resolve(
    g: &CallGraph,
    by_name: &BTreeMap<&str, Vec<usize>>,
    files: &[FileItems],
    caller_ix: usize,
    callee: &Callee,
) -> Vec<(usize, bool)> {
    let Some(caller) = g.nodes.get(caller_ix) else {
        return Vec::new();
    };
    match callee {
        Callee::Method(name, recv) => {
            // `self.method()` first tries the caller's own impl type.
            if recv.as_deref() == Some("self") {
                if let Some(own_type) = &caller.type_name {
                    let own: Vec<(usize, bool)> = named(by_name, name)
                        .iter()
                        .filter(|&&ix| g.nodes[ix].type_name.as_deref() == Some(own_type))
                        .map(|&ix| (ix, false))
                        .collect();
                    if !own.is_empty() {
                        return own;
                    }
                }
            }
            // Conservative fallback: every workspace method of that
            // name could be the callee.
            named(by_name, name)
                .iter()
                .filter(|&&ix| g.nodes[ix].type_name.is_some() || g.nodes[ix].trait_name.is_some())
                .map(|&ix| (ix, true))
                .collect()
        }
        Callee::Path(segs) => resolve_path(g, by_name, files, caller_ix, segs, true),
    }
}

fn named<'a>(by_name: &'a BTreeMap<&str, Vec<usize>>, name: &str) -> &'a [usize] {
    by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
}

/// Resolves a path call after normalizing `crate`/`self`/`super`/
/// `Self`/`mfpa_x` prefixes.
fn resolve_path(
    g: &CallGraph,
    by_name: &BTreeMap<&str, Vec<usize>>,
    files: &[FileItems],
    caller_ix: usize,
    segs: &[String],
    follow_imports: bool,
) -> Vec<(usize, bool)> {
    let Some(caller) = g.nodes.get(caller_ix) else {
        return Vec::new();
    };
    let mut pin_crate: Option<String> = None;
    let mut path: Vec<String> = Vec::new();
    for (k, seg) in segs.iter().enumerate() {
        match seg.as_str() {
            "crate" | "self" if k == 0 => pin_crate = Some(caller.crate_name.clone()),
            "super" => {} // approximate: drop the segment, keep suffix matching
            "Self" => {
                if let Some(t) = &caller.type_name {
                    path.push(t.clone());
                } else {
                    path.push(seg.clone());
                }
            }
            s => {
                if k == 0 {
                    if let Some(c) = crate_of_segment(s) {
                        pin_crate = Some(c.to_owned());
                        continue;
                    }
                }
                path.push(seg.clone());
            }
        }
    }
    let Some(name) = path.last().cloned() else {
        return Vec::new();
    };
    let quals = &path[..path.len().saturating_sub(1)];

    if quals.is_empty() && pin_crate.is_none() {
        // Unqualified `f()`: same-module free fn, then imports, then
        // workspace-wide fallback.
        let same_module: Vec<(usize, bool)> = named(by_name, &name)
            .iter()
            .filter(|&&ix| {
                let n = &g.nodes[ix];
                n.type_name.is_none()
                    && n.trait_name.is_none()
                    && n.crate_name == caller.crate_name
                    && n.modules == caller.modules
            })
            .map(|&ix| (ix, false))
            .collect();
        if !same_module.is_empty() {
            return same_module;
        }
        // An import is followed once: a path that reduces to the bare
        // name again (`use super::f`) would otherwise recurse forever.
        let file = files.iter().find(|f| f.label == caller.file);
        if let Some(file) = file.filter(|_| follow_imports) {
            for imp in &file.parsed.imports {
                if imp.alias == name && imp.path.len() > 1 {
                    let resolved = resolve_path(g, by_name, files, caller_ix, &imp.path, false);
                    if !resolved.is_empty() {
                        return resolved;
                    }
                }
            }
        }
        return named(by_name, &name)
            .iter()
            .filter(|&&ix| {
                let n = &g.nodes[ix];
                n.type_name.is_none() && n.trait_name.is_none()
            })
            .map(|&ix| (ix, true))
            .collect();
    }

    // Qualified path: every remaining qualifier must match the
    // candidate's type/trait (uppercase segments) or appear among its
    // crate/module segments.
    named(by_name, &name)
        .iter()
        .filter(|&&ix| {
            let n = &g.nodes[ix];
            if let Some(pin) = &pin_crate {
                if n.crate_name != *pin {
                    return false;
                }
            }
            quals.iter().all(|q| {
                n.type_name.as_deref() == Some(q)
                    || n.trait_name.as_deref() == Some(q)
                    || n.modules.iter().any(|m| m == q)
                    || n.crate_name == *q
            })
        })
        .map(|&ix| (ix, false))
        .collect()
}

/// A reachability result: per node, the shortest call chain from a
/// deterministic root (inclusive of both ends), when one exists.
#[derive(Debug, Clone, Default)]
pub struct Reachability {
    /// `chains[ix]` is `Some(root → … → node)` iff node `ix` is
    /// reachable from a declared root.
    pub chains: Vec<Option<Vec<usize>>>,
}

impl Reachability {
    /// Breadth-first reachability from every node matching a root
    /// spec. Deterministic: roots and adjacency are visited in node
    /// order, so ties in chain length break identically on every run.
    pub fn compute(g: &CallGraph, root_specs: &[&str]) -> Reachability {
        let mut parent: Vec<Option<usize>> = vec![None; g.nodes.len()];
        let mut seen: Vec<bool> = vec![false; g.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for (ix, n) in g.nodes.iter().enumerate() {
            if root_specs.iter().any(|spec| matches_root(n, spec)) {
                seen[ix] = true;
                queue.push_back(ix);
            }
        }
        while let Some(ix) = queue.pop_front() {
            let Some(out) = g.out_edges.get(ix) else {
                continue;
            };
            for &ex in out {
                let Some(e) = g.edges.get(ex) else { continue };
                if let Some(s) = seen.get_mut(e.callee) {
                    if !*s {
                        *s = true;
                        parent[e.callee] = Some(ix);
                        queue.push_back(e.callee);
                    }
                }
            }
        }
        let chains = (0..g.nodes.len())
            .map(|ix| {
                if !seen[ix] {
                    return None;
                }
                let mut chain = vec![ix];
                let mut cur = ix;
                // Bounded by node count: parent links form a forest.
                for _ in 0..g.nodes.len() {
                    match parent.get(cur).copied().flatten() {
                        Some(p) => {
                            chain.push(p);
                            cur = p;
                        }
                        None => break,
                    }
                }
                chain.reverse();
                Some(chain)
            })
            .collect();
        Reachability { chains }
    }
}

/// Whether a node matches a root spec such as `pipeline::prepare`,
/// `DriveMonitor::ingest` or `Classifier::fit`: the last segment must
/// equal the fn name and every preceding segment must match the node's
/// type, trait, or a module/crate segment.
pub fn matches_root(n: &FnNode, spec: &str) -> bool {
    let mut segs: Vec<&str> = spec.split("::").collect();
    let Some(name) = segs.pop() else {
        return false;
    };
    if n.name != name {
        return false;
    }
    segs.iter().all(|q| {
        n.type_name.as_deref() == Some(*q)
            || n.trait_name.as_deref() == Some(*q)
            || n.modules.iter().any(|m| m == q)
            || n.crate_name == *q
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, label: &str, src: &str) -> FileItems {
        let sf = crate::SourceFile {
            crate_name: crate_name.to_owned(),
            label: label.to_owned(),
            text: src.to_owned(),
        };
        crate::scan_file(&sf).1
    }

    fn edge_names(g: &CallGraph) -> Vec<(String, String, bool)> {
        g.edges
            .iter()
            .map(|e| {
                (
                    g.nodes[e.caller].qname.clone(),
                    g.nodes[e.callee].qname.clone(),
                    e.fallback,
                )
            })
            .collect()
    }

    #[test]
    fn module_paths_from_labels() {
        assert!(module_path_from_label("crates/core/src/lib.rs").is_empty());
        assert_eq!(
            module_path_from_label("crates/core/src/pipeline.rs"),
            vec!["pipeline"]
        );
        assert_eq!(
            module_path_from_label("crates/ml/src/nn/mod.rs"),
            vec!["nn"]
        );
        assert_eq!(
            module_path_from_label("crates/ml/src/nn/cnn_lstm.rs"),
            vec!["nn", "cnn_lstm"]
        );
    }

    #[test]
    fn import_that_names_itself_again_is_followed_once() {
        // `use super::f` reduces to the bare `f` the import lookup
        // started from; the call still gets its fallback edge.
        let g = CallGraph::build(&[
            file(
                "core",
                "crates/core/src/a.rs",
                "use super::helper;\npub fn entry() { helper(); }\n",
            ),
            file("core", "crates/core/src/b.rs", "pub fn helper() {}\n"),
        ]);
        assert_eq!(
            edge_names(&g),
            vec![(
                "core::a::entry".to_owned(),
                "core::b::helper".to_owned(),
                true
            )]
        );
    }

    #[test]
    fn same_module_call_resolves_exactly() {
        let g = CallGraph::build(&[file(
            "core",
            "crates/core/src/a.rs",
            "pub fn entry() { helper(); }\nfn helper() {}\n",
        )]);
        assert_eq!(
            edge_names(&g),
            vec![(
                "core::a::entry".to_owned(),
                "core::a::helper".to_owned(),
                false
            )]
        );
    }

    #[test]
    fn cross_module_call_resolves_via_path_and_import() {
        let a = file(
            "core",
            "crates/core/src/a.rs",
            "use crate::b::helper;\npub fn entry() { helper(); crate::b::other(); }\n",
        );
        let b = file(
            "core",
            "crates/core/src/b.rs",
            "pub fn helper() {}\npub fn other() {}\n",
        );
        let g = CallGraph::build(&[a, b]);
        assert_eq!(
            edge_names(&g),
            vec![
                (
                    "core::a::entry".to_owned(),
                    "core::b::helper".to_owned(),
                    false
                ),
                (
                    "core::a::entry".to_owned(),
                    "core::b::other".to_owned(),
                    false
                ),
            ]
        );
    }

    #[test]
    fn self_method_resolves_within_impl() {
        let g = CallGraph::build(&[file(
            "core",
            "crates/core/src/a.rs",
            "impl W { pub fn run(&self) { self.step(); } fn step(&self) {} }\n",
        )]);
        assert_eq!(
            edge_names(&g),
            vec![(
                "core::a::W::run".to_owned(),
                "core::a::W::step".to_owned(),
                false
            )]
        );
    }

    #[test]
    fn unresolvable_method_gets_fallback_edges_to_all_candidates() {
        let a = file(
            "core",
            "crates/core/src/a.rs",
            "pub fn entry(x: &dyn Any) { x.score(); }\n",
        );
        let b = file(
            "ml",
            "crates/ml/src/m.rs",
            "impl A { pub fn score(&self) {} }\nimpl B { pub fn score(&self) {} }\n",
        );
        let g = CallGraph::build(&[a, b]);
        let got = edge_names(&g);
        assert_eq!(
            got,
            vec![
                (
                    "core::a::entry".to_owned(),
                    "ml::m::A::score".to_owned(),
                    true
                ),
                (
                    "core::a::entry".to_owned(),
                    "ml::m::B::score".to_owned(),
                    true
                ),
            ]
        );
    }

    #[test]
    fn cross_crate_path_pins_the_crate() {
        let a = file(
            "core",
            "crates/core/src/a.rs",
            "pub fn entry() { mfpa_ml::grid::search(); }\n",
        );
        let b = file("ml", "crates/ml/src/grid.rs", "pub fn search() {}\n");
        let decoy = file(
            "dataset",
            "crates/dataset/src/grid.rs",
            "pub fn search() {}\n",
        );
        let g = CallGraph::build(&[a, b, decoy]);
        assert_eq!(
            edge_names(&g),
            vec![(
                "core::a::entry".to_owned(),
                "ml::grid::search".to_owned(),
                false
            )]
        );
    }

    #[test]
    fn reachability_produces_shortest_chains() {
        let src = "
            pub struct MfpaConfig;
            impl MfpaConfig {
                pub fn prepare(&self) { step_one(); }
            }
            fn step_one() { step_two(); }
            fn step_two() {}
            fn unrelated() { step_two(); }
        ";
        let g = CallGraph::build(&[file("core", "crates/core/src/pipeline.rs", src)]);
        let r = Reachability::compute(&g, &["pipeline::prepare"]);
        let chain_of = |name: &str| -> Option<Vec<String>> {
            let ix = g.nodes.iter().position(|n| n.name == name)?;
            r.chains[ix]
                .as_ref()
                .map(|c| c.iter().map(|&i| g.nodes[i].qname.clone()).collect())
        };
        assert_eq!(
            chain_of("step_two"),
            Some(vec![
                "core::pipeline::MfpaConfig::prepare".to_owned(),
                "core::pipeline::step_one".to_owned(),
                "core::pipeline::step_two".to_owned(),
            ])
        );
        assert_eq!(chain_of("unrelated"), None);
    }

    #[test]
    fn trait_root_matches_every_impl() {
        let src = "
            impl Classifier for Gbdt { fn fit(&mut self) { helper(); } }
            impl Classifier for Svm { fn fit(&mut self) {} }
            fn helper() {}
        ";
        let g = CallGraph::build(&[file("ml", "crates/ml/src/m.rs", src)]);
        let r = Reachability::compute(&g, &["Classifier::fit"]);
        let reachable: Vec<&str> = g
            .nodes
            .iter()
            .enumerate()
            .filter(|(ix, _)| r.chains[*ix].is_some())
            .map(|(_, n)| n.qname.as_str())
            .collect();
        assert_eq!(
            reachable,
            vec!["ml::m::Gbdt::fit", "ml::m::Svm::fit", "ml::m::helper"]
        );
    }
}
