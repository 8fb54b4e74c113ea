//! Item-level parsing: a brace-tree walk over blanked source (see
//! [`crate::lexer`]) that extracts `fn`/`impl`/`mod`/`use` items, the calls
//! each function body makes, and the potential panic sites it contains.
//!
//! This is the front end of the `lec-audit` semantic passes: where the lint
//! rules in [`crate::rules`] work line-by-line, the audit needs to know
//! *which function* a token lives in and *what that function calls*, so the
//! call graph in [`crate::callgraph`] can reason about reachability from the
//! serving and optimizer entry points.
//!
//! The parser is deliberately an over-approximation: it does not resolve
//! types, so a method call `.price(…)` is recorded by name only and the call
//! graph later resolves it to **every** workspace method of that name (the
//! sound direction for reachability analyses — we may report a panic as
//! reachable when it is not, never the reverse). See DESIGN.md §10.

use crate::lexer::FileLex;

/// What kind of potential panic a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()` on an `Option`/`Result`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// Indexing with arithmetic in the index expression (`v[i + 1]`), the
    /// classic off-by-one shape. Plain `v[i]` is not flagged — the codebase
    /// indexes bitset-sized tables pervasively and the arithmetic shape is
    /// where the historical bugs live; `assert!` guards are likewise
    /// deliberate self-checks, not accidents. The contract is documented in
    /// DESIGN.md §10.
    IndexArith,
}

impl PanicKind {
    /// Human-readable label for diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "`.unwrap()`",
            PanicKind::Expect => "`.expect(…)`",
            PanicKind::PanicMacro => "panicking macro",
            PanicKind::IndexArith => "arithmetic index (off-by-one shape)",
        }
    }
}

/// One potential panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Zero-based source line.
    pub line: usize,
    /// Site kind.
    pub kind: PanicKind,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Zero-based source line.
    pub line: usize,
    /// Callee name (last path segment).
    pub name: String,
    /// Path qualifier immediately before the name (`alg_c::optimize` →
    /// `alg_c`; `Type::method` → `Type`), if any.
    pub qualifier: Option<String>,
    /// True for `.name(…)` receiver-method syntax.
    pub is_method: bool,
}

/// One parsed function item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl` block, if any; for a default
    /// method body in a `trait` block, the trait's name.
    pub impl_type: Option<String>,
    /// Trait name when the enclosing block is `impl Trait for Type` or the
    /// `trait` block itself.
    pub trait_name: Option<String>,
    /// Zero-based line of the `fn` keyword.
    pub sig_line: usize,
    /// Zero-based inclusive line range of the body (`{` to `}`).
    pub body_lines: (usize, usize),
    /// True when the function sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Calls made anywhere in the body (innermost-fn attribution).
    pub calls: Vec<Call>,
    /// Potential panic sites in the body.
    pub panic_sites: Vec<PanicSite>,
}

/// Parsed view of one file's items.
#[derive(Debug)]
pub struct FileItems {
    /// Workspace-relative path.
    pub path: String,
    /// Crate identifier the path belongs to (`crates/core` → `lec_core`).
    pub crate_ident: String,
    /// Module name of the file (file stem; `lib.rs` → crate ident).
    pub module: String,
    /// All functions found.
    pub fns: Vec<FnItem>,
    /// `use` aliases: imported-or-renamed last segment → full path text.
    pub uses: Vec<(String, String)>,
}

/// Crate identifier for a workspace-relative path.
pub fn crate_ident_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        let dir = rest.split('/').next().unwrap_or(rest);
        let dir = dir.strip_prefix("compat-").unwrap_or(dir);
        if rest.starts_with("compat-") {
            return dir.replace('-', "_");
        }
        return format!("lec_{}", dir.replace('-', "_"));
    }
    "lecopt".to_string()
}

/// Module name for a workspace-relative path.
pub fn module_of(path: &str) -> String {
    let stem = path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(path);
    if stem == "lib" || stem == "main" {
        return crate_ident_of(path);
    }
    if stem == "mod" {
        let parts: Vec<&str> = path.split('/').collect();
        if parts.len() >= 2 {
            return parts[parts.len() - 2].to_string();
        }
    }
    stem.to_string()
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "where",
];

/// Parse one lexed file into its items.
pub fn parse_items(rel_path: &str, lx: &FileLex) -> FileItems {
    let mut text = String::new();
    let mut line_starts = Vec::with_capacity(lx.code_lines.len());
    for line in &lx.code_lines {
        line_starts.push(text.len());
        text.push_str(line);
        text.push('\n');
    }
    let bytes = text.as_bytes();
    let line_of = |off: usize| match line_starts.binary_search(&off) {
        Ok(l) => l,
        Err(ins) => ins.saturating_sub(1),
    };

    struct PendingFn {
        name: String,
        sig_line: usize,
        paren_depth: i32,
    }
    struct OpenFn {
        idx: usize,
        depth: i32,
    }

    let mut fns: Vec<FnItem> = Vec::new();
    let mut uses: Vec<(String, String)> = Vec::new();
    let mut pending_fn: Option<PendingFn> = None;
    let mut pending_mod: Option<()> = None;
    let mut pending_impl: Option<usize> = None;
    let mut pending_trait: Option<String> = None;
    let mut impl_stack: Vec<(Option<String>, Option<String>, i32)> = Vec::new();
    let mut open_fns: Vec<OpenFn> = Vec::new();
    let mut depth: i32 = 0;

    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if is_ident_start(c) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            let tok = &text[start..i];
            match tok {
                "fn" => {
                    if let Some((name, end)) = next_ident(&text, i) {
                        pending_fn = Some(PendingFn {
                            name,
                            sig_line: line_of(start),
                            paren_depth: 0,
                        });
                        i = end;
                    }
                }
                "mod" if pending_fn.is_none() => {
                    pending_mod = Some(());
                }
                "impl" if pending_fn.is_none() && pending_impl.is_none() && open_fns.is_empty() => {
                    pending_impl = Some(i);
                }
                "trait"
                    if pending_fn.is_none() && pending_impl.is_none() && open_fns.is_empty() =>
                {
                    if let Some((name, end)) = next_ident(&text, i) {
                        pending_trait = Some(name);
                        i = end;
                    }
                }
                "use" if open_fns.is_empty() && pending_fn.is_none() => {
                    let end = bytes[i..]
                        .iter()
                        .position(|&b| b == b';')
                        .map_or(bytes.len(), |p| i + p);
                    collect_uses(&text[i..end], &mut uses);
                    i = end;
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if next_sig(bytes, i) == Some(b'!') =>
                {
                    if let Some(open) = open_fns.last() {
                        fns[open.idx].panic_sites.push(PanicSite {
                            line: line_of(start),
                            kind: PanicKind::PanicMacro,
                        });
                    }
                }
                _ if !NON_CALL_KEYWORDS.contains(&tok) => {
                    // Call shape: ident (possibly with a turbofish) followed
                    // by `(`.
                    let after = skip_turbofish(bytes, i);
                    if next_sig(bytes, after) == Some(b'(') {
                        if let Some(open) = open_fns.last() {
                            let (qualifier, is_method) = call_context(&text, start);
                            let line = line_of(start);
                            if (tok == "unwrap" || tok == "expect") && is_method {
                                fns[open.idx].panic_sites.push(PanicSite {
                                    line,
                                    kind: if tok == "unwrap" {
                                        PanicKind::Unwrap
                                    } else {
                                        PanicKind::Expect
                                    },
                                });
                            }
                            fns[open.idx].calls.push(Call {
                                line,
                                name: tok.to_string(),
                                qualifier,
                                is_method,
                            });
                        }
                    }
                }
                _ => {}
            }
            continue;
        }
        match c {
            b'{' => {
                depth += 1;
                if let Some(pf) = pending_fn.take() {
                    if pf.paren_depth == 0 {
                        let (impl_type, trait_name) = impl_stack
                            .last()
                            .map(|(t, tr, _)| (t.clone(), tr.clone()))
                            .unwrap_or((None, None));
                        let body_line = line_of(i);
                        fns.push(FnItem {
                            name: pf.name,
                            impl_type,
                            trait_name,
                            sig_line: pf.sig_line,
                            body_lines: (body_line, body_line),
                            is_test: lx.in_test.get(pf.sig_line).copied().unwrap_or(false),
                            calls: Vec::new(),
                            panic_sites: Vec::new(),
                        });
                        open_fns.push(OpenFn {
                            idx: fns.len() - 1,
                            depth,
                        });
                    } else {
                        // `{` inside a signature (should not happen); keep
                        // the pending fn so a later body brace can claim it.
                        pending_fn = Some(pf);
                        depth -= 1;
                        i += 1;
                        depth += 1;
                        continue;
                    }
                } else if let Some(hdr_start) = pending_impl.take() {
                    let (self_ty, trait_name) = parse_impl_header(&text[hdr_start..i]);
                    impl_stack.push((self_ty, trait_name, depth));
                } else if let Some(name) = pending_trait.take() {
                    // Default method bodies belong to the trait.
                    impl_stack.push((Some(name.clone()), Some(name), depth));
                } else if pending_mod.take().is_some() {
                    // In-file modules only matter for the test flag, which
                    // the lexer already tracks; nothing else to record.
                }
            }
            b'}' => {
                while let Some(open) = open_fns.last() {
                    if open.depth == depth {
                        fns[open.idx].body_lines.1 = line_of(i);
                        open_fns.pop();
                    } else {
                        break;
                    }
                }
                while let Some(&(_, _, d)) = impl_stack.last() {
                    if d == depth {
                        impl_stack.pop();
                    } else {
                        break;
                    }
                }
                depth -= 1;
            }
            b'(' => {
                if let Some(pf) = pending_fn.as_mut() {
                    pf.paren_depth += 1;
                }
            }
            b')' => {
                if let Some(pf) = pending_fn.as_mut() {
                    pf.paren_depth -= 1;
                }
            }
            b'[' => {
                if let Some(pf) = pending_fn.as_mut() {
                    pf.paren_depth += 1;
                } else if let Some(open) = open_fns.last() {
                    if is_index_open(bytes, i) {
                        if let Some(close) = matching_bracket(bytes, i) {
                            if index_has_arithmetic(&text[i + 1..close]) {
                                fns[open.idx].panic_sites.push(PanicSite {
                                    line: line_of(i),
                                    kind: PanicKind::IndexArith,
                                });
                            }
                        }
                    }
                }
            }
            b']' => {
                if let Some(pf) = pending_fn.as_mut() {
                    pf.paren_depth -= 1;
                }
            }
            b';' => {
                if let Some(pf) = pending_fn.as_ref() {
                    if pf.paren_depth == 0 {
                        // Bodyless signature (trait method / extern decl).
                        pending_fn = None;
                    }
                }
                pending_mod = None;
                pending_trait = None;
            }
            _ => {}
        }
        i += 1;
    }

    FileItems {
        path: rel_path.to_string(),
        crate_ident: crate_ident_of(rel_path),
        module: module_of(rel_path),
        fns,
        uses,
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Next identifier at or after `from`, skipping whitespace; returns the
/// identifier and the offset one past its end.
fn next_ident(text: &str, from: usize) -> Option<(String, usize)> {
    let bytes = text.as_bytes();
    let mut i = from;
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    if i >= bytes.len() || !is_ident_start(bytes[i]) {
        return None;
    }
    let start = i;
    while i < bytes.len() && is_ident_byte(bytes[i]) {
        i += 1;
    }
    Some((text[start..i].to_string(), i))
}

/// Next significant (non-whitespace) byte at or after `from`.
fn next_sig(bytes: &[u8], from: usize) -> Option<u8> {
    let mut i = from;
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    bytes.get(i).copied()
}

/// Previous significant (non-whitespace) byte strictly before `at`.
fn prev_sig(bytes: &[u8], at: usize) -> Option<(usize, u8)> {
    let mut i = at;
    while i > 0 {
        i -= 1;
        if !(bytes[i] as char).is_whitespace() {
            return Some((i, bytes[i]));
        }
    }
    None
}

/// Skip a turbofish (`::<…>`) directly after an identifier ending at `end`.
fn skip_turbofish(bytes: &[u8], end: usize) -> usize {
    if bytes.get(end) == Some(&b':')
        && bytes.get(end + 1) == Some(&b':')
        && bytes.get(end + 2) == Some(&b'<')
    {
        let mut depth = 0i32;
        let mut i = end + 2;
        while i < bytes.len() {
            match bytes[i] {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    end
}

/// Qualifier and method-ness of a call whose name starts at `name_start`.
fn call_context(text: &str, name_start: usize) -> (Option<String>, bool) {
    let bytes = text.as_bytes();
    match prev_sig(bytes, name_start) {
        Some((i, b'.')) => {
            // `.name(` — but `..name` is a range, not a method call.
            if i > 0 && bytes[i - 1] == b'.' {
                (None, false)
            } else {
                (None, true)
            }
        }
        Some((i, b':')) if i > 0 && bytes[i - 1] == b':' => {
            match prev_sig(bytes, i - 1) {
                Some((j, b)) if is_ident_byte(b) => (Some(ident_ending_at(text, j)), false),
                // `Type::<T>::name(`: the type before the turbofish is the
                // qualifier. `<T as Trait>::name(` and friends: unknown
                // receiver type — treat like a method call (resolve by
                // name, over-approx).
                Some((close, b'>')) => {
                    let open = matching_angle_back(bytes, close);
                    match open.and_then(|open| prev_sig(bytes, open)) {
                        Some((c, b':')) if c > 0 && bytes[c - 1] == b':' => {
                            match prev_sig(bytes, c - 1) {
                                Some((j, b)) if is_ident_byte(b) => {
                                    (Some(ident_ending_at(text, j)), false)
                                }
                                _ => (None, true),
                            }
                        }
                        _ => (None, true),
                    }
                }
                _ => (None, false),
            }
        }
        _ => (None, false),
    }
}

/// The identifier whose last byte is at `end`.
fn ident_ending_at(text: &str, end: usize) -> String {
    let bytes = text.as_bytes();
    let mut s = end;
    while s > 0 && is_ident_byte(bytes[s - 1]) {
        s -= 1;
    }
    text[s..end + 1].to_string()
}

/// The `<` opening the balanced `<…>` that the `>` at `close` ends, if
/// any; an `->` inside is an arrow, not a bracket. Gives up at a statement
/// or block boundary.
fn matching_angle_back(bytes: &[u8], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = close + 1;
    while i > 0 {
        i -= 1;
        match bytes[i] {
            b'>' if i == 0 || bytes[i - 1] != b'-' => depth += 1,
            b'<' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            b';' | b'{' | b'}' => return None,
            _ => {}
        }
    }
    None
}

/// Keywords that can directly precede a `[`: what follows is an array
/// literal (`for p in [a, b]`, `return [x + y]`), never an index.
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "in", "return", "else", "match", "if", "while", "loop", "move", "mut", "ref", "let", "as",
    "break", "continue",
];

/// True when `[` at `at` opens an *index* expression (previous significant
/// byte ends a value: identifier, `)`, or `]`), rather than an attribute,
/// array literal, or type. An identifier that is a keyword (`in`, `return`,
/// …) ends a *construct*, not a value, so `for p in [a, a + b]` is a
/// literal.
fn is_index_open(bytes: &[u8], at: usize) -> bool {
    match prev_sig(bytes, at) {
        Some((j, b)) if is_ident_byte(b) => {
            let mut s = j;
            while s > 0 && is_ident_byte(bytes[s - 1]) {
                s -= 1;
            }
            let word = std::str::from_utf8(&bytes[s..j + 1]).unwrap_or("");
            !NON_INDEX_KEYWORDS.contains(&word)
        }
        Some((_, b')' | b']')) => true,
        _ => false,
    }
}

/// Matching `]` for the `[` at `open`, tracking nesting.
fn matching_bracket(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// True when an index expression contains top-level binary arithmetic
/// (`+`, binary `-`, binary `*`) — the off-by-one panic shape.
fn index_has_arithmetic(inner: &str) -> bool {
    let bytes = inner.as_bytes();
    let mut depth = 0i32;
    for (k, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'+' if depth == 0 => {
                // `+=` cannot appear in an index; any `+` is arithmetic.
                return true;
            }
            b'-' | b'*' if depth == 0 => {
                // Binary only: something value-like on the left.
                if let Some((_, p)) = prev_sig(bytes, k) {
                    if is_ident_byte(p) || p == b')' || p == b']' {
                        return true;
                    }
                }
            }
            _ => {}
        }
    }
    false
}

/// Record `use` aliases from one (possibly braced) use declaration.
fn collect_uses(decl: &str, out: &mut Vec<(String, String)>) {
    // `use a::b::{c, d as e};` — record c → a::b::c, e → a::b::d.
    let body = decl.trim_start_matches("use").trim();
    fn walk(prefix: &str, part: &str, out: &mut Vec<(String, String)>) {
        let part = part.trim();
        if part.is_empty() || part == "*" {
            return;
        }
        if let Some(brace) = part.find('{') {
            let head = part[..brace].trim().trim_end_matches("::");
            let inner = part[brace + 1..].trim_end_matches(['}', ';']).trim();
            let joined = if prefix.is_empty() {
                head.to_string()
            } else {
                format!("{prefix}::{head}")
            };
            let mut depth = 0i32;
            let mut start = 0usize;
            let bytes = inner.as_bytes();
            for (k, &b) in bytes.iter().enumerate() {
                match b {
                    b'{' => depth += 1,
                    b'}' => depth -= 1,
                    b',' if depth == 0 => {
                        walk(&joined, &inner[start..k], out);
                        start = k + 1;
                    }
                    _ => {}
                }
            }
            walk(&joined, &inner[start..], out);
            return;
        }
        let full = if prefix.is_empty() {
            part.to_string()
        } else {
            format!("{prefix}::{part}")
        };
        if let Some((path, alias)) = part.split_once(" as ") {
            let full = if prefix.is_empty() {
                path.trim().to_string()
            } else {
                format!("{prefix}::{}", path.trim())
            };
            out.push((alias.trim().to_string(), full));
            return;
        }
        if let Some(last) = part.rsplit("::").next() {
            out.push((last.trim().to_string(), full));
        }
    }
    walk("", body, out);
}

/// Parse an `impl` header (the text between the `impl` keyword and the body
/// `{`) into `(self_type, trait_name)`.
fn parse_impl_header(header: &str) -> (Option<String>, Option<String>) {
    let h = header.trim_start();
    // Strip leading generic parameter list.
    let h = if let Some(rest) = h.strip_prefix('<') {
        let bytes = rest.as_bytes();
        let mut depth = 1i32;
        let mut cut = rest.len();
        for (k, &b) in bytes.iter().enumerate() {
            match b {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        &rest[cut..]
    } else {
        h
    };
    // Split `Trait for Type` on the standalone word `for` at depth 0.
    let split = find_word_at_depth0(h, "for");
    let (trait_text, self_text) = match split {
        Some(pos) => (&h[..pos], &h[pos + 3..]),
        None => ("", h),
    };
    let self_ty = first_type_ident(self_text);
    let trait_name = if trait_text.is_empty() {
        None
    } else {
        let head = trait_text.split('<').next().unwrap_or(trait_text);
        head.rsplit("::")
            .next()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    };
    (self_ty, trait_name)
}

fn find_word_at_depth0(s: &str, word: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    let mut k = 0usize;
    while k < bytes.len() {
        match bytes[k] {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' => depth -= 1,
            b if depth == 0 && is_ident_start(b) => {
                let start = k;
                while k < bytes.len() && is_ident_byte(bytes[k]) {
                    k += 1;
                }
                if &s[start..k] == word
                    && (start == 0 || !is_ident_byte(bytes[start - 1]))
                    && (k >= bytes.len() || !is_ident_byte(bytes[k]))
                {
                    return Some(start);
                }
                continue;
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// First type-ish identifier in a self-type expression, skipping sigils and
/// the keywords that can precede the type (`&mut Type`, `dyn Type`).
fn first_type_ident(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut k = 0usize;
    while k < bytes.len() {
        if is_ident_start(bytes[k]) {
            let start = k;
            while k < bytes.len() && is_ident_byte(bytes[k]) {
                k += 1;
            }
            let tok = &s[start..k];
            if matches!(tok, "mut" | "dyn" | "const") {
                continue;
            }
            return Some(tok.to_string());
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(src: &str) -> FileItems {
        parse_items("crates/core/src/sample.rs", &lexer::lex(src))
    }

    #[test]
    fn extracts_free_and_impl_fns() {
        let src = "pub fn alpha() { beta(); }\n\
                   impl<M: Clone> Widget<M> {\n    pub fn beta(&self) { self.gamma(); }\n}\n\
                   impl Pricer for Widget<f64> {\n    fn price(&self) -> f64 { 1.0 }\n}\n";
        let items = parse(src);
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "price"]);
        assert_eq!(items.fns[1].impl_type.as_deref(), Some("Widget"));
        assert_eq!(items.fns[2].impl_type.as_deref(), Some("Widget"));
        assert_eq!(items.fns[2].trait_name.as_deref(), Some("Pricer"));
        assert_eq!(items.fns[0].calls.len(), 1);
        assert_eq!(items.fns[0].calls[0].name, "beta");
        assert!(!items.fns[0].calls[0].is_method);
        assert!(items.fns[1].calls[0].is_method);
    }

    #[test]
    fn qualified_calls_carry_their_qualifier() {
        let src = "fn top() { alg_c::optimize(q); Dist::new(); crate::verify::check(p); }\n";
        let items = parse(src);
        let calls = &items.fns[0].calls;
        assert_eq!(calls[0].qualifier.as_deref(), Some("alg_c"));
        assert_eq!(calls[1].qualifier.as_deref(), Some("Dist"));
        assert_eq!(calls[2].qualifier.as_deref(), Some("verify"));
    }

    #[test]
    fn panic_sites_detected() {
        let src = "fn f(v: &[f64], i: usize) -> f64 {\n\
                   let a = v.first().unwrap();\n\
                   let b = v.last().expect(\"nonempty\");\n\
                   if i > v.len() { panic!(\"bad\"); }\n\
                   v[i + 1] + a + b\n}\n";
        let items = parse(src);
        let kinds: Vec<PanicKind> = items.fns[0].panic_sites.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PanicKind::Unwrap,
                PanicKind::Expect,
                PanicKind::PanicMacro,
                PanicKind::IndexArith
            ]
        );
    }

    #[test]
    fn plain_indexing_attributes_and_types_are_not_flagged() {
        let src = "#[derive(Clone)]\nstruct S { a: [u8; 4] }\n\
                   fn f(v: &[f64], i: usize) -> f64 { v[i] }\n\
                   fn g() -> [u8; 2] { [1, 2] }\n";
        let items = parse(src);
        assert!(items.fns.iter().all(|f| f.panic_sites.is_empty()));
    }

    #[test]
    fn array_literal_after_keyword_is_not_an_index() {
        let src = "fn f(a: f64, b: f64) -> f64 {\n\
                   \x20   let mut acc = 0.0;\n\
                   \x20   for p in [a, b, a + b] { acc += p; }\n\
                   \x20   acc\n\
                   }\n";
        let items = parse(src);
        assert!(items.fns[0].panic_sites.is_empty());
    }

    #[test]
    fn unwrap_or_is_not_a_panic_site() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(3) }\n";
        let items = parse(src);
        assert!(items.fns[0].panic_sites.is_empty());
    }

    #[test]
    fn test_fns_are_marked() {
        let src =
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        let items = parse(src);
        assert!(!items.fns[0].is_test);
        assert!(items.fns[1].is_test);
    }

    #[test]
    fn bodyless_trait_signatures_are_skipped() {
        let src =
            "trait T {\n    fn sig(&self) -> f64;\n    fn with_default(&self) -> f64 { 1.0 }\n}\n";
        let items = parse(src);
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_default"]);
    }

    #[test]
    fn default_method_bodies_belong_to_their_trait() {
        let src =
            "pub trait Rule: Sized {\n    fn sig(&self);\n    fn pick(&self) { x.unwrap(); }\n}\n\
                   fn free() {}\n";
        let items = parse(src);
        assert_eq!(items.fns[0].impl_type.as_deref(), Some("Rule"));
        assert_eq!(items.fns[0].trait_name.as_deref(), Some("Rule"));
        assert_eq!(items.fns[1].impl_type, None);
    }

    #[test]
    fn use_aliases_collected() {
        let src = "use lec_core::alg_c;\nuse lec_core::{dp, pareto as front};\n";
        let items = parse(src);
        assert!(items
            .uses
            .iter()
            .any(|(a, p)| a == "alg_c" && p == "lec_core::alg_c"));
        assert!(items
            .uses
            .iter()
            .any(|(a, p)| a == "front" && p == "lec_core::pareto"));
        assert!(items.uses.iter().any(|(a, _)| a == "dp"));
    }

    #[test]
    fn crate_and_module_idents() {
        assert_eq!(crate_ident_of("crates/core/src/dp.rs"), "lec_core");
        assert_eq!(crate_ident_of("src/batch.rs"), "lecopt");
        assert_eq!(crate_ident_of("crates/compat-rand/src/lib.rs"), "rand");
        assert_eq!(module_of("crates/core/src/dp.rs"), "dp");
        assert_eq!(module_of("crates/core/src/lib.rs"), "lec_core");
    }

    #[test]
    fn turbofish_type_is_the_qualifier() {
        let src = "fn f() { Table::<ONE>::new(k); Map::<u8, Vec<fn() -> u8>>::with(k); }\n";
        let items = parse(src);
        let quals: Vec<Option<&str>> = items.fns[0]
            .calls
            .iter()
            .map(|c| c.qualifier.as_deref())
            .collect();
        assert_eq!(quals, vec![Some("Table"), Some("Map")]);
        assert!(items.fns[0].calls.iter().all(|c| !c.is_method));
    }

    #[test]
    fn qualified_self_type_stays_a_method_call() {
        let items = parse("fn f() { <T as Trait>::new(k); }\n");
        let call = &items.fns[0].calls[0];
        assert_eq!((call.qualifier.as_deref(), call.is_method), (None, true));
    }

    #[test]
    fn turbofish_calls_still_detected() {
        let src = "fn f() { parse::<u32>(s); v.collect::<Vec<_>>(); }\n";
        let items = parse(src);
        let names: Vec<&str> = items.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["parse", "collect"]);
    }
}
