//! Workspace symbol table and over-approximate call graph.
//!
//! [`Workspace::build`] lexes and item-parses every source file, flattens all
//! functions into one id space, and resolves each call site to the set of
//! workspace functions it *may* target. Resolution is name-based and
//! deliberately over-approximate (no type inference):
//!
//! - `Qualifier::name(…)` resolves through the qualifier: `Self` → the
//!   caller's impl type; `self`/`crate`/`super` → the caller's crate; a crate
//!   identifier (`lec_core`) → that crate; a module name (`verify`) → files
//!   of that module; an impl-type name (`Distribution`) → methods of that
//!   type. A qualifier matching *nothing* in the workspace (`String`, `fs`,
//!   `thread`) is external and produces no edge — this is what keeps
//!   `String::new()` from aliasing every workspace `new`.
//!   A trait name as qualifier (`Rule::score(…)`) reaches the trait's
//!   default body and every impl of the trait.
//! - `.name(…)` method calls resolve to **every** trait method of that
//!   name, in any crate — the trait-dispatch over-approximation: a
//!   `dyn Rule::score(…)` call reaches every `score` impl and trait
//!   default body, including those in crates downstream of the caller —
//!   and to every inherent method of that name the caller's crate can
//!   name (next item).
//! - Bare `name(…)` calls resolve to every workspace function of that name
//!   *that the caller's crate can name*: its own crate and its dependency
//!   closure, read from the packages' `Cargo.toml` `[dependencies]` (plus
//!   `[dev-dependencies]` for test code). A crate with no manifest in view
//!   can name the whole workspace.
//!
//! The over-approximation is sound in the direction reachability passes
//! need: a panic can be reported reachable when it is not, never missed
//! because an edge was dropped. Test functions (and whole `tests/` files)
//! never resolve as call targets, so test-only panics cannot pollute
//! production reachability.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

use crate::items::{self, FileItems, FnItem};
use crate::lexer::{self, FileLex};
use crate::pragma::{self, Pragma};

/// One analyzed source file: lexed view, parsed items, pragmas.
pub struct SourceFile {
    /// Lexed view (blanked code lines, comment lines, test regions).
    pub lex: FileLex,
    /// Raw source lines (for snippets and string-literal checks; code lines
    /// have literal contents blanked).
    pub raw_lines: Vec<String>,
    /// Parsed items.
    pub items: FileItems,
    /// Suppression pragmas found in the file.
    pub pragmas: Vec<Pragma>,
    /// True when the whole file is test code (`tests/`, `benches/` trees).
    pub file_is_test: bool,
}

/// Locator of one function: file index + index within that file's items.
#[derive(Debug, Clone, Copy)]
pub struct FnLoc {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub item: usize,
}

/// How a reached function was entered during BFS: predecessor id and the
/// zero-based line of the call site in the predecessor.
#[derive(Debug, Clone, Copy)]
pub enum Provenance {
    /// The function is itself a root.
    Root,
    /// Reached via a call edge.
    Edge {
        /// Caller function id.
        from: usize,
        /// Zero-based line of the call site.
        line: usize,
    },
}

/// The workspace-wide symbol table and call graph.
pub struct Workspace {
    /// All analyzed files, in input order (input is sorted by path).
    pub files: Vec<SourceFile>,
    /// Flattened function id space.
    pub fns: Vec<FnLoc>,
    /// Resolved edges per function: sorted, deduped `(callee, call_line)`.
    pub edges: Vec<Vec<(usize, usize)>>,
    crate_idents: BTreeSet<String>,
    module_names: BTreeSet<String>,
    impl_types: BTreeSet<String>,
}

/// The crates each crate can name, itself included: `(library code, test
/// code)` closures over the manifests' dependency tables, keyed by crate
/// identifier.
type Closures = BTreeMap<String, (BTreeSet<String>, BTreeSet<String>)>;

/// The `[dependencies]` and `[dev-dependencies]` of every manifest, as
/// crate identifiers (`lec-core` → `lec_core`), keyed by the crate
/// identifier of the manifest's package. Packages that share an identifier
/// (the root package and `perfbench`) are merged.
fn dependency_closures(manifests: &[(String, String)]) -> Closures {
    let mut direct: BTreeMap<String, [BTreeSet<String>; 2]> = BTreeMap::new();
    for (path, text) in manifests {
        let dir = Path::new(path)
            .parent()
            .and_then(Path::to_str)
            .unwrap_or("");
        let src = if dir.is_empty() {
            "src/lib.rs".to_string()
        } else {
            format!("{dir}/src/lib.rs")
        };
        let deps = direct.entry(items::crate_ident_of(&src)).or_default();
        let mut table = None;
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                table = match line {
                    "[dependencies]" => Some(0),
                    "[dev-dependencies]" => Some(1),
                    _ => None,
                };
            } else if let (Some(t), Some(name)) = (table, line.split(['=', '.']).next()) {
                let name = name.trim();
                if !name.is_empty() && !name.starts_with('#') {
                    deps[t].insert(name.replace('-', "_"));
                }
            }
        }
    }
    let closure = |start: &BTreeSet<String>, own: &str| {
        let mut seen: BTreeSet<String> = BTreeSet::from([own.to_string()]);
        let mut queue: Vec<&String> = start.iter().collect();
        while let Some(name) = queue.pop() {
            if seen.insert(name.clone()) {
                queue.extend(direct.get(name).into_iter().flat_map(|d| &d[0]));
            }
        }
        seen
    };
    direct
        .iter()
        .map(|(name, [deps, dev])| {
            let lib = closure(deps, name);
            let test = closure(&deps.union(dev).cloned().collect(), name);
            (name.clone(), (lib, test))
        })
        .collect()
}

impl Workspace {
    /// Build the workspace from `(relative_path, source_text)` pairs and
    /// the `(relative_path, text)` of the packages' `Cargo.toml` manifests,
    /// which bound bare-call resolution (see the module docs).
    pub fn build(sources: &[(String, String)], manifests: &[(String, String)]) -> Workspace {
        let mut files = Vec::with_capacity(sources.len());
        for (rel, text) in sources {
            let lex = lexer::lex(text);
            let items = items::parse_items(rel, &lex);
            let pragmas = pragma::parse_pragmas(&lex.comment_lines);
            let file_is_test =
                rel.contains("/tests/") || rel.starts_with("tests/") || rel.contains("/benches/");
            files.push(SourceFile {
                lex,
                raw_lines: text.lines().map(str::to_string).collect(),
                items,
                pragmas,
                file_is_test,
            });
        }

        let mut fns = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut crate_idents = BTreeSet::new();
        let mut module_names = BTreeSet::new();
        let mut impl_types = BTreeSet::new();
        for (fi, file) in files.iter().enumerate() {
            crate_idents.insert(file.items.crate_ident.clone());
            module_names.insert(file.items.module.clone());
            for (ii, f) in file.items.fns.iter().enumerate() {
                let id = fns.len();
                fns.push(FnLoc { file: fi, item: ii });
                if let Some(t) = &f.impl_type {
                    impl_types.insert(t.clone());
                }
                if !f.is_test && !file.file_is_test {
                    by_name.entry(f.name.as_str()).or_default().push(id);
                }
            }
        }

        let closures = dependency_closures(manifests);
        let resolver = Resolver {
            files: &files,
            fns: &fns,
            by_name: &by_name,
            crate_idents: &crate_idents,
            module_names: &module_names,
            impl_types: &impl_types,
            closures: &closures,
        };
        let edges: Vec<Vec<(usize, usize)>> =
            (0..fns.len()).map(|id| resolver.edges_of(id)).collect();

        Workspace {
            files,
            fns,
            edges,
            crate_idents,
            module_names,
            impl_types,
        }
    }

    /// The function item for a flattened id.
    pub fn item(&self, id: usize) -> &FnItem {
        let loc = self.fns[id];
        &self.files[loc.file].items.fns[loc.item]
    }

    /// Workspace-relative path of the file a function lives in.
    pub fn path_of(&self, id: usize) -> &str {
        &self.files[self.fns[id].file].items.path
    }

    /// True when the function is test code (its own flag or a test file).
    pub fn is_test_fn(&self, id: usize) -> bool {
        let loc = self.fns[id];
        self.files[loc.file].file_is_test || self.files[loc.file].items.fns[loc.item].is_test
    }

    /// Ids of all non-test functions satisfying `pred`, in id order.
    pub fn find_fns(&self, mut pred: impl FnMut(&str, &FnItem) -> bool) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&id| !self.is_test_fn(id) && pred(self.path_of(id), self.item(id)))
            .collect()
    }

    /// Multi-source BFS over call edges. Returns, for every reached function,
    /// how it was first entered; iteration over roots and adjacency is in id
    /// order, so the parent forest (and thus every witness) is deterministic.
    pub fn reachable_from(&self, roots: &[usize]) -> BTreeMap<usize, Provenance> {
        let mut seen: BTreeMap<usize, Provenance> = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for &r in &sorted_roots {
            seen.insert(r, Provenance::Root);
            queue.push_back(r);
        }
        while let Some(id) = queue.pop_front() {
            for &(callee, line) in &self.edges[id] {
                if self.is_test_fn(callee) {
                    continue;
                }
                seen.entry(callee).or_insert_with(|| {
                    queue.push_back(callee);
                    Provenance::Edge { from: id, line }
                });
            }
        }
        seen
    }

    /// Render the root→target call path recorded by [`Self::reachable_from`]
    /// as a witness string: `root (file:line) → … → target (file:line)` with
    /// 1-based signature lines.
    pub fn witness(&self, reach: &BTreeMap<usize, Provenance>, target: usize) -> String {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(Provenance::Edge { from, .. }) = reach.get(&cur) {
            cur = *from;
            chain.push(cur);
            if chain.len() > self.fns.len() {
                break; // cycle guard; cannot happen with a BFS parent forest
            }
        }
        chain.reverse();
        chain
            .iter()
            .map(|&id| {
                format!(
                    "{} ({}:{})",
                    self.qualified_name(id),
                    self.path_of(id),
                    self.item(id).sig_line + 1
                )
            })
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// `Type::name` for methods, `name` for free functions.
    pub fn qualified_name(&self, id: usize) -> String {
        let f = self.item(id);
        match &f.impl_type {
            Some(t) => format!("{t}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Reason of a pragma allowing `rule` at `line` (zero-based) of the
    /// function `id`, if any. A pragma covers the site when its covered line
    /// is the site line, or when it sits on the function's signature (any
    /// line from the signature to the opening of the body) — fn-scope
    /// coverage, so one pragma with one written reason can vouch for a whole
    /// small function instead of being repeated per site.
    pub fn allowed_reason(&self, id: usize, rule: &str, line: usize) -> Option<String> {
        let loc = self.fns[id];
        let file = &self.files[loc.file];
        let f = &file.items.fns[loc.item];
        for p in &file.pragmas {
            if !p.rules.iter().any(|r| r == rule) {
                continue;
            }
            let Some(reason) = &p.reason else { continue };
            let covered = pragma::covered_line(p, &file.lex.code_lines);
            if covered == line || (covered >= f.sig_line && covered <= f.body_lines.0) {
                return Some(reason.clone());
            }
        }
        None
    }

    /// True when the workspace knows `name` as a crate, module, or impl type
    /// (used by tests and diagnostics).
    pub fn knows_scope(&self, name: &str) -> bool {
        self.crate_idents.contains(name)
            || self.module_names.contains(name)
            || self.impl_types.contains(name)
    }
}

/// Borrow-only view used during `build` to resolve call edges before the
/// `Workspace` value exists.
struct Resolver<'a> {
    files: &'a [SourceFile],
    fns: &'a [FnLoc],
    by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    crate_idents: &'a BTreeSet<String>,
    module_names: &'a BTreeSet<String>,
    impl_types: &'a BTreeSet<String>,
    closures: &'a Closures,
}

impl Resolver<'_> {
    fn item(&self, id: usize) -> &FnItem {
        let loc = self.fns[id];
        &self.files[loc.file].items.fns[loc.item]
    }

    fn file_items(&self, id: usize) -> &FileItems {
        &self.files[self.fns[id].file].items
    }

    fn edges_of(&self, id: usize) -> Vec<(usize, usize)> {
        let loc = self.fns[id];
        let caller_file = &self.files[loc.file];
        let caller = &caller_file.items.fns[loc.item];
        let mut out: Vec<(usize, usize)> = Vec::new();
        let test_code = caller_file.file_is_test || caller.is_test;
        for call in &caller.calls {
            for callee in self.resolve_call(&caller_file.items, caller, test_code, call) {
                if callee != id {
                    out.push((callee, call.line));
                }
            }
        }
        out.sort_unstable();
        out.dedup_by_key(|e| e.0);
        out
    }

    fn resolve_call(
        &self,
        file: &FileItems,
        caller: &FnItem,
        test_code: bool,
        call: &items::Call,
    ) -> Vec<usize> {
        let Some(cands) = self.by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        let keep = |pred: &dyn Fn(usize) -> bool| -> Vec<usize> {
            cands.iter().copied().filter(|&id| pred(id)).collect()
        };
        match &call.qualifier {
            Some(q) if q == "Self" => {
                if caller.impl_type.is_none() {
                    return Vec::new();
                }
                keep(&|id| self.item(id).impl_type == caller.impl_type)
            }
            Some(q) if q == "self" || q == "crate" || q == "super" => {
                keep(&|id| self.file_items(id).crate_ident == file.crate_ident)
            }
            Some(q) => {
                if let Some(v) = self.resolve_scope(q, cands) {
                    return v;
                }
                // `use lec_core::pareto as front; front::push(…)` — retry
                // through the aliased path, innermost segment first.
                if let Some((_, path)) = file.uses.iter().find(|(a, _)| a == q) {
                    for seg in path.rsplit("::").map(str::trim) {
                        if let Some(v) = self.resolve_scope(seg, cands) {
                            return v;
                        }
                    }
                }
                // Unknown qualifier: external item (std, core, …); no edge.
                Vec::new()
            }
            // Trait dispatch can reach a trait impl of the name in any
            // crate, downstream ones included; an inherent method needs a
            // receiver type the caller's crate can name.
            None if call.is_method => keep(&|id| {
                let f = self.item(id);
                f.impl_type.is_some()
                    && (f.trait_name.is_some() || self.visible(file, test_code, id))
            }),
            None => keep(&|id| self.visible(file, test_code, id)),
        }
    }

    /// True when `id` lives in a crate the caller's crate (`file`'s) can
    /// name: itself or its dependency closure, dev-dependencies included
    /// for test code. Everything is visible to a crate without a manifest.
    fn visible(&self, file: &FileItems, test_code: bool, id: usize) -> bool {
        self.closures
            .get(&file.crate_ident)
            .is_none_or(|(lib, test)| {
                let names = if test_code { test } else { lib };
                names.contains(&self.file_items(id).crate_ident)
            })
    }

    /// Resolve a scope name against crates, then modules, then impl types.
    fn resolve_scope(&self, name: &str, cands: &[usize]) -> Option<Vec<usize>> {
        if self.crate_idents.contains(name) {
            return Some(
                cands
                    .iter()
                    .copied()
                    .filter(|&id| self.file_items(id).crate_ident == name)
                    .collect(),
            );
        }
        if self.module_names.contains(name) {
            return Some(
                cands
                    .iter()
                    .copied()
                    .filter(|&id| self.file_items(id).module == name)
                    .collect(),
            );
        }
        if self.impl_types.contains(name) {
            return Some(
                cands
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let f = self.item(id);
                        f.impl_type.as_deref() == Some(name)
                            || f.trait_name.as_deref() == Some(name)
                    })
                    .collect(),
            );
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        Workspace::build(&sources, &[])
    }

    fn id_of(ws: &Workspace, name: &str) -> usize {
        (0..ws.fns.len())
            .find(|&id| ws.item(id).name == name)
            .unwrap_or_else(|| panic!("no fn named {name}"))
    }

    #[test]
    fn bare_calls_resolve_within_workspace() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "fn top() { helper(); }\nfn helper() {}\n",
        )]);
        let top = id_of(&w, "top");
        let helper = id_of(&w, "helper");
        assert_eq!(w.edges[top], vec![(helper, 0)]);
    }

    #[test]
    fn unknown_qualifier_is_external() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "fn top() { String::new(); }\nfn new() {}\n",
        )]);
        let top = id_of(&w, "top");
        assert!(w.edges[top].is_empty());
    }

    #[test]
    fn turbofish_type_qualifier_resolves_to_its_impl() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "struct Table<const ONE: bool>; struct Other;\n\
             impl<const ONE: bool> Table<ONE> { fn new() {} }\n\
             impl Other { fn new() {} }\n\
             fn top() { Table::<ONE>::new(); }\n",
        )]);
        let top = id_of(&w, "top");
        assert_eq!(w.edges[top].len(), 1);
        let (callee, _) = w.edges[top][0];
        assert_eq!(w.item(callee).impl_type.as_deref(), Some("Table"));
    }

    #[test]
    fn qualified_self_type_over_approximates() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "struct A; struct B;\n\
             impl A { fn new() {} }\n\
             impl B { fn new() {} }\n\
             fn top() { <A as Make>::new(); }\n",
        )]);
        let top = id_of(&w, "top");
        assert_eq!(w.edges[top].len(), 2);
    }

    #[test]
    fn crate_qualifier_crosses_crates() {
        let w = ws(&[
            (
                "crates/serve/src/service.rs",
                "fn serve() { lec_core::optimize(); }\n",
            ),
            ("crates/core/src/lib.rs", "pub fn optimize() {}\n"),
        ]);
        let serve = id_of(&w, "serve");
        let opt = id_of(&w, "optimize");
        assert_eq!(w.edges[serve], vec![(opt, 0)]);
    }

    #[test]
    fn method_calls_over_approximate_across_impls() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "struct A; struct B;\n\
             impl A { fn score(&self) {} }\n\
             impl B { fn score(&self) {} }\n\
             fn top(x: &dyn Fn()) { y.score(); }\n",
        )]);
        let top = id_of(&w, "top");
        assert_eq!(w.edges[top].len(), 2);
    }

    #[test]
    fn trait_default_bodies_are_call_targets() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "trait T { fn with_default(&self) { x.unwrap(); } }\n\
             struct A;\n\
             impl T for A { fn with_default(&self) {} }\n\
             fn top() { y.with_default(); }\n\
             fn qualified() { T::with_default(&y); }\n",
        )]);
        let default = (0..w.fns.len())
            .find(|&id| w.item(id).impl_type.as_deref() == Some("T"))
            .expect("default body parsed");
        let top = id_of(&w, "top");
        let qualified = id_of(&w, "qualified");
        // Both reach the default body and the impl's override.
        assert_eq!(w.edges[top].len(), 2);
        assert!(w.edges[top].iter().any(|&(callee, _)| callee == default));
        assert_eq!(w.edges[qualified].len(), 2);
        assert!(w.edges[qualified]
            .iter()
            .any(|&(callee, _)| callee == default));
        assert_eq!(w.qualified_name(default), "T::with_default");
    }

    #[test]
    fn test_fns_are_not_call_targets() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "fn top() { helper(); }\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n",
        )]);
        let top = id_of(&w, "top");
        assert!(w.edges[top].is_empty());
    }

    #[test]
    fn bfs_witness_renders_full_path() {
        let w = ws(&[(
            "crates/serve/src/service.rs",
            "fn serve() { step_one(); }\n\
             fn step_one() { step_two(); }\n\
             fn step_two() { x.unwrap(); }\n",
        )]);
        let serve = id_of(&w, "serve");
        let two = id_of(&w, "step_two");
        let reach = w.reachable_from(&[serve]);
        assert!(reach.contains_key(&two));
        let witness = w.witness(&reach, two);
        assert_eq!(
            witness,
            "serve (crates/serve/src/service.rs:1) → step_one (crates/serve/src/service.rs:2) \
             → step_two (crates/serve/src/service.rs:3)"
        );
    }

    #[test]
    fn cycles_terminate() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "fn ping() { pong(); }\nfn pong() { ping(); }\n",
        )]);
        let ping = id_of(&w, "ping");
        let reach = w.reachable_from(&[ping]);
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn bare_calls_resolve_within_the_dependency_closure() {
        // lec-exec depends on lec-core; both define `walk`. lec-core's bare
        // `walk()` cannot name lec-exec's, lec-exec's may name either, and
        // lec-core's tests, which dev-depend on lec-exec, may too.
        let sources: Vec<(String, String)> = [
            (
                "crates/core/src/dp.rs",
                "pub fn walk() {}\nfn core_top() { walk(); }\n",
            ),
            (
                "crates/exec/src/executor.rs",
                "pub fn walk() {}\nfn exec_top() { walk(); }\n",
            ),
            ("crates/core/tests/t.rs", "fn test_top() { walk(); }\n"),
        ]
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
        let manifests: Vec<(String, String)> = [
            (
                "crates/core/Cargo.toml",
                "[package]\nname = \"lec-core\"\n\n[dependencies]\n# none\n\n\
                 [dev-dependencies]\nlec-exec.workspace = true\n",
            ),
            (
                "crates/exec/Cargo.toml",
                "[dependencies]\nlec-core = { path = \"../core\" }\n\n[lints]\nworkspace = true\n",
            ),
        ]
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
        let w = Workspace::build(&sources, &manifests);
        let walks: Vec<usize> = (0..w.fns.len())
            .filter(|&id| w.item(id).name == "walk")
            .collect();
        let crate_of = |id: usize| w.files[w.fns[id].file].items.crate_ident.clone();
        let targets = |caller: &str| -> Vec<String> {
            w.edges[id_of(&w, caller)]
                .iter()
                .map(|&(callee, _)| crate_of(callee))
                .collect()
        };
        assert_eq!(walks.len(), 2);
        assert_eq!(targets("core_top"), ["lec_core"]);
        assert_eq!(targets("exec_top"), ["lec_core", "lec_exec"]);
        assert_eq!(targets("test_top"), ["lec_core", "lec_exec"]);

        // Without manifests every crate is in view.
        let unbounded = Workspace::build(&sources, &[]);
        let core_top = id_of(&unbounded, "core_top");
        assert_eq!(unbounded.edges[core_top].len(), 2);
    }

    #[test]
    fn inherent_methods_need_a_nameable_receiver_trait_impls_do_not() {
        // lec-core cannot name lec-exec's `Writer`, so `w.push()` cannot
        // reach its inherent `push`; a `Render` impl in lec-exec is still
        // reachable through trait dispatch.
        let sources: Vec<(String, String)> = [
            (
                "crates/core/src/a.rs",
                "fn core_top() { w.push(); p.render(); }\n",
            ),
            (
                "crates/exec/src/b.rs",
                "impl Writer { fn push(&self) {} }\nimpl Render for Page { fn render(&self) {} }\n",
            ),
        ]
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
        let manifests = vec![
            (
                "crates/core/Cargo.toml".to_string(),
                "[dependencies]\n".to_string(),
            ),
            (
                "crates/exec/Cargo.toml".to_string(),
                "[dependencies]\nlec-core.workspace = true\n".to_string(),
            ),
        ];
        let w = Workspace::build(&sources, &manifests);
        let callees: Vec<&str> = w.edges[id_of(&w, "core_top")]
            .iter()
            .map(|&(callee, _)| w.item(callee).name.as_str())
            .collect();
        assert_eq!(callees, ["render"]);
    }
}
