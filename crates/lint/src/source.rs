//! Source-invariant pass (`kalis-lint --source`, `KL3xx`).
//!
//! The PR-7 boundedness work and the deterministic-replay discipline are
//! *repo invariants*, not type-system facts: a raw `HashMap` keyed by
//! entity in a detection module compiles fine and exhausts RAM under
//! adversarial cardinality; an `Instant::now()` on the dispatch path
//! compiles fine and breaks time-compressed replay. This pass enforces
//! them mechanically with a hand-rolled, dependency-free Rust scanner
//! (no `syn` — the workspace is offline) that understands just enough
//! lexical structure to be trustworthy: string and raw-string literals,
//! char vs. lifetime ticks, nested block comments, `#[cfg(test)]`
//! regions, and `// kalis-lint: allow(KL3xx)` suppression pragmas.
//!
//! Checks:
//!
//! * `KL301` — raw `HashMap`/`BTreeMap`/`HashSet`/`BTreeSet` (or an
//!   entity-keyed `Vec`) in detection/sensing code outside
//!   `kalis_core::bounded`.
//! * `KL302` — wall-clock reads (`Instant::now`, `SystemTime::now`) on
//!   the dispatch hot path (module code, the manager/supervisor, the
//!   node loop).
//! * `KL303` — `format!`-built entity-scoped knowgget keys (a literal
//!   containing `@`) instead of typed `Key::scoped`.
//! * `KL304` — `.unwrap()` / `.expect(` in module dispatch paths
//!   (dispatch must not panic; the supervisor quarantines crash-looping
//!   modules, it should never have to).
//! * `KL305` — iterating a std `HashMap`/`HashSet` (`iter`, `keys`,
//!   `values`, `drain`, `into_iter` and their `_mut`/`into_` kin, or
//!   `for … in &map`) in `kalis-core`, `kalis-telemetry` or
//!   `kalis-scenario`: the order is random per process, and one that
//!   reaches a journal, a bundle or a golden breaks byte-identical runs.
//!   A name counts as a hash container where the file declares it with
//!   one (`name: HashMap<…>`, `let name = HashSet::new()`, …). A walk is
//!   followed across line ends, comments and the parentheses of a
//!   parenthesised receiver (`(self.map).iter()`), not through a call
//!   (`f(map).iter()`).
//!
//! A pragma comment suppresses a code on its own line and the next
//! line, so both styles work:
//!
//! ```text
//! // kalis-lint: allow(KL302): ops rendering is off the dispatch path
//! let started = Instant::now();
//! let started = Instant::now(); // kalis-lint: allow(KL302)
//! ```
//!
//! Diagnostics carry exact line/column spans and render with the same
//! caret style as the configuration lint.

use std::path::Path;

use kalis_core::config::SourcePos;

use crate::diagnostics::{Code, Diagnostic};

/// Whether a `KL3xx` rule applies to the file at `path` (workspace-
/// relative, `/`-separated). Scope is deliberately path-based so the
/// golden fixture corpus exercises real scopes from `tests/`.
fn rule_applies(code: Code, path: &str) -> bool {
    let module_code = path.contains("/detection/") || path.contains("/sensing/");
    let dispatcher =
        path.ends_with("modules/manager.rs") || path.ends_with("modules/supervisor.rs");
    // The node is `node.rs` and the boxes split out beside it.
    let node = path.ends_with("crates/core/src/node.rs") || path.contains("crates/core/src/node/");
    match code {
        Code::RawPerEntityState => module_code && !path.ends_with("bounded.rs"),
        Code::WallClockOnHotPath => module_code || dispatcher || node,
        Code::FormattedKnowggetKey => module_code,
        Code::PanicInDispatchPath => module_code || dispatcher,
        Code::HashIterationOrder => ["core/src/", "telemetry/src/", "scenario/src/"]
            .iter()
            .any(|krate| path.contains(krate)),
        _ => false,
    }
}

/// Per-line facts produced by the lexical sweep.
struct LineInfo {
    /// The line with string-literal and comment *contents* blanked to
    /// spaces (delimiters kept), so token searches cannot match inside
    /// prose. Char-for-char aligned with the original line.
    masked: String,
    /// The original line.
    raw: String,
    /// Codes suppressed on this line by a pragma (on this line or the
    /// line above).
    allowed: Vec<Code>,
    /// Inside a `#[cfg(test)]` region.
    in_test: bool,
}

/// Lexer state carried across characters.
#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u8),
    CharLit,
}

/// Blank string/comment contents while preserving alignment, split into
/// lines. Never panics: operates on `char`s, tolerates unterminated
/// literals and stray control bytes.
fn mask(text: &str) -> Vec<(String, String)> {
    let chars: Vec<char> = text.chars().collect();
    let mut masked = String::with_capacity(text.len());
    let mut state = LexState::Normal;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            LexState::Normal => match c {
                '/' if next == Some('/') => {
                    state = LexState::LineComment;
                    masked.push_str("//");
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = LexState::BlockComment(1);
                    masked.push_str("/*");
                    i += 2;
                    continue;
                }
                '"' => {
                    state = LexState::Str;
                    masked.push('"');
                }
                'r' | 'b' => {
                    // Raw / byte string starts: r", r#", br", b".
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u8;
                    while chars.get(j) == Some(&'#') && hashes < 255 {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw =
                        (c == 'r' || chars.get(i + 1) == Some(&'r')) || (c == 'b' && hashes == 0);
                    if chars.get(j) == Some(&'"') && is_raw && !prev_is_ident(&chars, i) {
                        masked.extend(&chars[i..=j]);
                        state = if c == 'b' && chars.get(i + 1) != Some(&'r') {
                            LexState::Str
                        } else {
                            LexState::RawStr(hashes)
                        };
                        i = j + 1;
                        continue;
                    }
                    masked.push(c);
                }
                '\'' => {
                    // Char literal vs. lifetime: a char literal closes
                    // with a tick after one (possibly escaped) char.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char && !prev_is_ident_or_lt(&chars, i) {
                        state = LexState::CharLit;
                    }
                    masked.push('\'');
                }
                c => masked.push(c),
            },
            LexState::LineComment => {
                if c == '\n' {
                    state = LexState::Normal;
                    masked.push('\n');
                } else {
                    masked.push(blank(c));
                }
            }
            LexState::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        LexState::Normal
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                    masked.push_str("*/");
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = LexState::BlockComment(depth.saturating_add(1));
                    masked.push_str("/*");
                    i += 2;
                    continue;
                }
                masked.push(blank(c));
            }
            LexState::Str => match c {
                '\\' => {
                    masked.push(' ');
                    if next.is_some() {
                        masked.push(if next == Some('\n') { '\n' } else { ' ' });
                        i += 2;
                        continue;
                    }
                }
                '"' => {
                    state = LexState::Normal;
                    masked.push('"');
                }
                '\n' => masked.push('\n'),
                _ => masked.push(' '),
            },
            LexState::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        masked.push('"');
                        for _ in 0..hashes {
                            masked.push('#');
                        }
                        state = LexState::Normal;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                masked.push(if c == '\n' { '\n' } else { ' ' });
            }
            LexState::CharLit => {
                if c == '\\' && next.is_some() {
                    masked.push(' ');
                    masked.push(if next == Some('\n') { '\n' } else { ' ' });
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    state = LexState::Normal;
                    masked.push('\'');
                } else {
                    masked.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
        }
        i += 1;
    }
    masked
        .split('\n')
        .map(str::to_owned)
        .zip(text.split('\n').map(str::to_owned))
        .collect()
}

fn blank(c: char) -> char {
    if c == '\n' {
        '\n'
    } else {
        ' '
    }
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

fn prev_is_ident_or_lt(chars: &[char], i: usize) -> bool {
    // `'` after an identifier char is a postfix (generic) lifetime-ish
    // position; `x'` never starts a char literal in valid Rust either.
    prev_is_ident(chars, i) || (i > 0 && chars[i - 1] == '<')
}

/// Parse `// kalis-lint: allow(KL301, KL304)` pragmas from a raw line.
fn pragma_codes(raw: &str) -> Vec<Code> {
    let Some(idx) = raw.find("kalis-lint: allow(") else {
        return Vec::new();
    };
    let rest = &raw[idx + "kalis-lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Vec::new();
    };
    rest[..close]
        .split(',')
        .filter_map(|tok| match tok.trim() {
            "KL301" => Some(Code::RawPerEntityState),
            "KL302" => Some(Code::WallClockOnHotPath),
            "KL303" => Some(Code::FormattedKnowggetKey),
            "KL304" => Some(Code::PanicInDispatchPath),
            "KL305" => Some(Code::HashIterationOrder),
            _ => None,
        })
        .collect()
}

/// Mark the lines covered by `#[cfg(test)]` items: from the attribute to
/// the matching close brace of the item that follows it.
fn mark_test_regions(lines: &mut [LineInfo]) {
    let joined: Vec<String> = lines.iter().map(|l| l.masked.clone()).collect();
    let mut line = 0;
    while line < joined.len() {
        if let Some(col) = joined[line].find("#[cfg(test)]") {
            // Scan forward from the attribute for the item's braces.
            let mut depth = 0usize;
            let mut entered = false;
            let mut l = line;
            let mut c = col;
            'outer: while l < joined.len() {
                let bytes = joined[l].as_bytes();
                while c < bytes.len() {
                    match bytes[c] {
                        b'{' => {
                            depth += 1;
                            entered = true;
                        }
                        b'}' => {
                            depth = depth.saturating_sub(1);
                            if entered && depth == 0 {
                                for info in lines.iter_mut().take(l + 1).skip(line) {
                                    info.in_test = true;
                                }
                                line = l;
                                break 'outer;
                            }
                        }
                        b';' if !entered => break 'outer, // `#[cfg(test)] use …;`
                        _ => {}
                    }
                    c += 1;
                }
                l += 1;
                c = 0;
            }
            if !entered {
                lines[line].in_test = true;
            }
        }
        line += 1;
    }
}

/// Find `token` in `haystack` with identifier boundaries on both sides,
/// returning 0-based char columns.
fn token_columns(haystack: &str, token: &str) -> Vec<usize> {
    let h: Vec<char> = haystack.chars().collect();
    let t: Vec<char> = token.chars().collect();
    let mut out = Vec::new();
    if t.is_empty() || h.len() < t.len() {
        return out;
    }
    for start in 0..=(h.len() - t.len()) {
        if h[start..start + t.len()] != t[..] {
            continue;
        }
        // A token that starts with a non-word char (`.unwrap`) is its
        // own left boundary — `payload.unwrap()` must match even though
        // an identifier precedes the dot.
        let self_delimited = !(t[0].is_alphanumeric() || t[0] == '_');
        let before_ok = self_delimited
            || start == 0
            || !(h[start - 1].is_alphanumeric() || h[start - 1] == '_');
        let after = h.get(start + t.len());
        let after_ok = !matches!(after, Some(c) if c.is_alphanumeric() || *c == '_');
        if before_ok && after_ok {
            out.push(start);
        }
    }
    out
}

/// Scan one file's text. `path` is the workspace-relative path used both
/// for scope decisions and in diagnostics. Pure and panic-free on
/// arbitrary input.
pub fn scan_source(path: &str, text: &str) -> Vec<Diagnostic> {
    let normalized = path.replace('\\', "/");
    let relevant: Vec<Code> = [
        Code::RawPerEntityState,
        Code::WallClockOnHotPath,
        Code::FormattedKnowggetKey,
        Code::PanicInDispatchPath,
        Code::HashIterationOrder,
    ]
    .into_iter()
    .filter(|&c| rule_applies(c, &normalized))
    .collect();
    if relevant.is_empty() {
        return Vec::new();
    }

    let mut lines: Vec<LineInfo> = mask(text)
        .into_iter()
        .map(|(masked, raw)| LineInfo {
            masked,
            raw,
            allowed: Vec::new(),
            in_test: false,
        })
        .collect();
    // Pragmas: a pragma suppresses on its own line and the next one.
    let pragmas: Vec<Vec<Code>> = lines.iter().map(|l| pragma_codes(&l.raw)).collect();
    for (i, codes) in pragmas.iter().enumerate() {
        if codes.is_empty() {
            continue;
        }
        lines[i].allowed.extend(codes.iter().copied());
        if i + 1 < lines.len() {
            let next = codes.clone();
            lines[i + 1].allowed.extend(next);
        }
    }
    mark_test_regions(&mut lines);
    let hashed = hash_container_names(&lines);
    let uncommented = uncommented(&lines);

    let mut diags = Vec::new();
    for (idx, info) in lines.iter().enumerate() {
        if info.in_test {
            continue;
        }
        let lineno = idx + 1;
        let mut emit = |code: Code, col0: usize, message: String, note: &str| {
            if info.allowed.contains(&code) {
                return;
            }
            let mut d = Diagnostic::at(
                code,
                &normalized,
                SourcePos {
                    line: lineno,
                    column: col0 + 1,
                },
                message,
            );
            if !note.is_empty() {
                d = d.with_note(note.to_owned());
            }
            diags.push(d);
        };

        for &code in &relevant {
            match code {
                Code::RawPerEntityState => {
                    for container in ["HashMap", "BTreeMap", "HashSet", "BTreeSet"] {
                        for col in token_columns(&info.masked, container) {
                            emit(
                                code,
                                col,
                                format!(
                                    "raw `{container}` in detection/sensing code: per-entity state must be bounded"
                                ),
                                "use `kalis_core::bounded` (budgeted, evicting) or annotate `// kalis-lint: allow(KL301): <why>`",
                            );
                        }
                    }
                    // Entity-keyed growable sequences.
                    if info.masked.contains("Entity") {
                        for container in ["Vec", "VecDeque"] {
                            for col in token_columns(&info.masked, container) {
                                emit(
                                    code,
                                    col,
                                    format!(
                                        "entity-keyed `{container}` in detection/sensing code: per-entity state must be bounded"
                                    ),
                                    "use `kalis_core::bounded` (budgeted, evicting) or annotate `// kalis-lint: allow(KL301): <why>`",
                                );
                            }
                        }
                    }
                }
                Code::WallClockOnHotPath => {
                    for clock in ["Instant::now", "SystemTime::now"] {
                        for col in token_columns(&info.masked, clock) {
                            emit(
                                code,
                                col,
                                format!(
                                    "wall-clock `{clock}()` on the dispatch hot path breaks time-compressed replay"
                                ),
                                "thread the dispatch `Timestamp` through instead, or annotate `// kalis-lint: allow(KL302): <why>`",
                            );
                        }
                    }
                }
                Code::FormattedKnowggetKey => {
                    for col in token_columns(&info.masked, "format!") {
                        // The literal lives in the *raw* line; `@` inside
                        // it marks an entity-scoped key being built by
                        // hand.
                        if raw_literal_contains_at(&info.raw, &info.masked) {
                            emit(
                                code,
                                col,
                                "entity-scoped knowgget key built with `format!`".to_owned(),
                                "use `Key::scoped(label, entity)` so the label stays typo-checkable, or annotate `// kalis-lint: allow(KL303): <why>`",
                            );
                        }
                    }
                }
                Code::PanicInDispatchPath => {
                    for (token, shown) in [(".unwrap", ".unwrap()"), (".expect", ".expect(…)")] {
                        for col in token_columns(&info.masked, token) {
                            emit(
                                code,
                                col,
                                format!("`{shown}` in a module dispatch path can panic mid-dispatch"),
                                "return early / use `match`, or annotate `// kalis-lint: allow(KL304): <why>`",
                            );
                        }
                    }
                }
                Code::HashIterationOrder => {
                    for (name, col) in hash_iterations(&uncommented[idx..], &hashed) {
                        emit(
                            code,
                            col,
                            format!("iterating hash-ordered `{name}`: its order differs from process to process"),
                            "iterate a `BTreeMap`/`BoundedMap` or sort first, or annotate `// kalis-lint: allow(KL305): <why the order cannot escape>`",
                        );
                    }
                }
                _ => {}
            }
        }
    }
    diags
}

/// Methods that walk a std hash container in its hash order.
const HASH_ORDER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Whether `c` can be part of an identifier.
fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier `text` ends with (empty if none).
fn trailing_ident(text: &str) -> &str {
    let start = text
        .char_indices()
        .rev()
        .take_while(|&(_, c)| ident_char(c))
        .last()
        .map_or(text.len(), |(i, _)| i);
    &text[start..]
}

/// Names the file declares as a std `HashMap`/`HashSet`, outside test
/// regions: what precedes the type (path prefix, `&`/`&mut` and spaces
/// skipped) is `name:` (a field, parameter, `let` annotation or struct
/// literal field) or `name =` (a `let` or an assignment).
fn hash_container_names(lines: &[LineInfo]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for info in lines.iter().filter(|l| !l.in_test) {
        let chars: Vec<char> = info.masked.chars().collect();
        for container in ["HashMap", "HashSet"] {
            for col in token_columns(&info.masked, container) {
                let before: String = chars[..col].iter().collect();
                let before = before.trim_end_matches(|c: char| ident_char(c) || c == ':');
                let before = before.trim_end();
                let before = (before.strip_suffix("&mut"))
                    .or_else(|| before.strip_suffix('&'))
                    .unwrap_or(before)
                    .trim_end();
                let declared = match before.chars().last() {
                    Some(':') if !before.ends_with("::") => &before[..before.len() - 1],
                    Some('=') if !before.ends_with("==") => &before[..before.len() - 1],
                    _ => continue,
                };
                let name = trailing_ident(declared.trim_end());
                if !name.is_empty() && name != "self" && !names.iter().any(|n| n == name) {
                    names.push(name.to_owned());
                }
            }
        }
    }
    names
}

/// The masked lines with every comment, delimiters included, blanked
/// to spaces, still char-for-char aligned: what is left is code.
fn uncommented(lines: &[LineInfo]) -> Vec<String> {
    let mut depth = 0u32;
    let mut out = Vec::with_capacity(lines.len());
    for info in lines {
        let chars: Vec<char> = info.masked.chars().collect();
        let mut code = String::with_capacity(info.masked.len());
        let mut i = 0;
        while i < chars.len() {
            let pair = (chars[i], chars.get(i + 1).copied());
            if depth == 0 && pair == ('/', Some('/')) {
                code.extend(std::iter::repeat(' ').take(chars.len() - i));
                break;
            }
            let step = match pair {
                ('/', Some('*')) => {
                    depth += 1;
                    2
                }
                ('*', Some('/')) if depth > 0 => {
                    depth -= 1;
                    2
                }
                _ => 1,
            };
            if step == 2 || depth > 0 {
                code.extend(std::iter::repeat(' ').take(step));
            } else {
                code.push(chars[i]);
            }
            i += step;
        }
        out.push(code);
    }
    out
}

/// How many parentheses enclose the path whose last name starts at char
/// `start` of `line` as a parenthesised receiver, opened on that line:
/// each `(` before the path (`&`, `mut`, `*`, `self.` and spaces belong
/// to it) that does not open a call's arguments — one right after a
/// name, `!`, `>`, `)` or `]`.
fn receiver_parens(line: &[char], start: usize) -> usize {
    let mut at = start;
    let path = |c: char| ident_char(c) || matches!(c, '.' | '&' | '*' | ' ');
    while at > 0 && path(line[at - 1]) {
        at -= 1;
    }
    let mut parens = 0;
    while at > 0 && line[at - 1] == '(' {
        at -= 1;
        if at > 0 && (ident_char(line[at - 1]) || matches!(line[at - 1], '!' | '>' | ')' | ']')) {
            break;
        }
        parens += 1;
    }
    parens
}

/// The method called on what ends at char `from` of `code[0]`, reading
/// on across line ends, blanked comments and up to `parens` closing
/// parentheses: `keys` for `).keys()`, `None` where something else
/// follows.
fn method_after(code: &[String], from: usize, mut parens: usize) -> Option<String> {
    // A few lines of lookahead: a chain rustfmt splits puts each link on
    // its own line, a comment between two at most.
    const LOOKAHEAD: usize = 4;
    let mut chars = (code.iter().take(LOOKAHEAD).enumerate())
        .flat_map(|(at, line)| line.chars().skip(if at == 0 { from } else { 0 }))
        .filter(|c| !c.is_whitespace())
        .peekable();
    while parens > 0 && chars.next_if_eq(&')').is_some() {
        parens -= 1;
    }
    chars.next_if_eq(&'.')?;
    let method: String = std::iter::from_fn(|| chars.next_if(|&c| ident_char(c))).collect();
    chars.next_if_eq(&'(').map(|_| method)
}

/// Where `code[0]` (a line of [`uncommented`] code, the lines after it
/// following) iterates one of the `hashed` names: `name.<method>(` for a
/// [`HASH_ORDER_METHODS`] method, the chain read on by [`method_after`]
/// — or `for … in` over a bare path (`&self.name`, `name`) ending in
/// one. Returns `(name, 0-based char column of the name)`.
fn hash_iterations<'n>(code: &[String], hashed: &'n [String]) -> Vec<(&'n str, usize)> {
    let masked = code[0].as_str();
    let chars: Vec<char> = masked.chars().collect();
    let mut found = Vec::new();
    for name in hashed {
        for col in token_columns(masked, name) {
            let end = col + name.chars().count();
            let parens = receiver_parens(&chars, col);
            let method = method_after(code, end, parens);
            if method.is_some_and(|m| HASH_ORDER_METHODS.contains(&m.as_str())) {
                found.push((name.as_str(), col));
            }
        }
    }
    // `for pattern in <path> {`: the loop walks the container itself.
    let ins = token_columns(masked, "in");
    for for_col in token_columns(masked, "for") {
        let Some(in_col) = ins.iter().copied().find(|&c| c > for_col) else {
            continue;
        };
        let from = in_col + 2;
        let to = (chars[from..].iter().position(|&c| c == '{')).map_or(chars.len(), |n| from + n);
        let expr: String = chars[from..to].iter().collect();
        let expr = expr.trim_end();
        let path = expr.trim_start();
        let path = (path.strip_prefix("&mut "))
            .or_else(|| path.strip_prefix('&'))
            .unwrap_or(path);
        if path.is_empty() || !path.chars().all(|c| ident_char(c) || c == '.') {
            continue;
        }
        let last = trailing_ident(path);
        if let Some(name) = hashed.iter().find(|n| n.as_str() == last) {
            let col = from + expr.chars().count() - last.chars().count();
            found.push((name.as_str(), col));
        }
    }
    found.sort_by_key(|&(_, col)| col);
    found
}

/// Whether a string literal on the line contains `@`: compare the raw
/// line against the masked one position-by-position — an `@` blanked in
/// the masked line was inside a literal (or a comment; any `//` still
/// visible in the masked line is a real comment start, since string
/// contents are blanked, so positions past it are ignored).
fn raw_literal_contains_at(raw: &str, masked: &str) -> bool {
    let raw: Vec<char> = raw.chars().collect();
    let masked: Vec<char> = masked.chars().collect();
    let comment_start = masked
        .windows(2)
        .position(|w| w == ['/', '/'])
        .unwrap_or(masked.len());
    raw.iter()
        .zip(masked.iter())
        .take(comment_start)
        .any(|(&r, &m)| r == '@' && m == ' ')
}

/// Scan every `.rs` file under `crates/*/src` relative to `root`.
/// Returns `(workspace-relative path, file text, diagnostics)` per file
/// so callers can render carets; I/O errors are reported as messages.
pub fn scan_workspace(root: &Path) -> Result<Vec<(String, String, Vec<Diagnostic>)>, String> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let diags = scan_source(&rel, &text);
        out.push((rel, text, diags));
    }
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
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

    const DET: &str = "crates/core/src/detection/sample.rs";

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn raw_map_in_detection_is_kl301_with_span() {
        let text = "struct S {\n    table: HashMap<EntityId, u64>,\n}\n";
        let diags = scan_source(DET, text);
        assert_eq!(codes(&diags), vec!["KL301"]);
        let pos = diags[0].pos.unwrap();
        assert_eq!((pos.line, pos.column), (2, 12));
    }

    #[test]
    fn entity_keyed_vec_is_kl301_but_plain_vec_is_not() {
        let flagged = scan_source(DET, "let v: Vec<(EntityId, u64)> = Vec::new();\n");
        assert!(codes(&flagged).contains(&"KL301"));
        let clean = scan_source(DET, "let alerts: Vec<Alert> = Vec::new();\n");
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn scope_gating_is_path_based() {
        let text = "let m: HashMap<u8, u8> = HashMap::new();\n";
        // The Key implementation and bounded containers themselves are
        // out of scope; module code is in scope (both mentions flagged).
        assert!(scan_source("crates/core/src/knowledge/base.rs", text).is_empty());
        assert!(scan_source("crates/core/src/detection/bounded.rs", text).is_empty());
        assert_eq!(scan_source("crates/core/src/sensing/x.rs", text).len(), 2);
    }

    #[test]
    fn hash_iteration_is_kl305_in_core_telemetry_and_scenario() {
        let text = "struct S {\n    seen: HashMap<u32, u32>,\n}\nfn f(s: &S) -> u32 {\n    s.seen.values().sum()\n}\n";
        for path in [
            "crates/core/src/knowledge/base.rs",
            "crates/telemetry/src/journal.rs",
            "crates/scenario/src/exec.rs",
        ] {
            let diags = scan_source(path, text);
            assert_eq!(codes(&diags), vec!["KL305"], "{path}");
            let pos = diags[0].pos.unwrap();
            assert_eq!((pos.line, pos.column), (5, 7));
        }
        assert!(scan_source("crates/bench/src/report.rs", text).is_empty());
        let allowed = text.replace(
            "    s.seen",
            "    // kalis-lint: allow(KL305): summed\n    s.seen",
        );
        assert!(scan_source("crates/core/src/x.rs", &allowed).is_empty());
    }

    #[test]
    fn kl305_flags_each_walk_of_a_declared_hash_container_only() {
        let decl = "let mut set = HashSet::new();\nfn f(m: &HashMap<u8, u8>) {}\n";
        for walk in [
            "set.iter()",
            "m.keys()",
            "m.values()",
            "set.drain()",
            "m.into_iter()",
            "for x in m.iter().take(1) {",
            "for x in &m {",
            "for (k, v) in &mut self.m {",
            "for x in set {",
            "m\n    .keys()",
            "let v = self\n    .set\n    .iter()",
            "(self.m).iter()",
            "((&mut m)).values_mut()",
            "(*m).keys()",
            "let n = (m).len() + (m).values().count();",
            "m // every count\n    .values()",
            "m\n    // in hash order\n    .drain()",
            "m /* all */ .keys()",
            "(self.set\n    )\n    .iter()",
        ] {
            let text = format!("{decl}{walk}\n");
            let diags = scan_source("crates/core/src/x.rs", &text);
            assert_eq!(codes(&diags), vec!["KL305"], "{walk}");
        }
        for other in [
            "m.get(&1)",
            "set.contains(&2)",
            "m.len()",
            "for x in other {",
            "for x in &self.items {",
            "tree.iter()",
            "m\n    .get(&1)",
            "m;\nother.iter()",
            "f(m).iter()",
            "g!(m).iter()",
            "(m, other).0.iter()",
            "(m).get(&1)",
            "m // .iter()\n    .len()",
            "m;\n// .iter()",
        ] {
            let text = format!("{decl}{other}\n");
            assert!(
                scan_source("crates/core/src/x.rs", &text).is_empty(),
                "{other}"
            );
        }
        // A walk in a test region is out of scope.
        let test_only =
            format!("{decl}#[cfg(test)]\nmod tests {{\n    fn t() {{ m.iter(); }}\n}}\n");
        assert!(scan_source("crates/core/src/x.rs", &test_only).is_empty());
    }

    #[test]
    fn wall_clock_is_kl302_in_manager_and_node() {
        let text = "let t = Instant::now();\n";
        for path in [
            "crates/core/src/modules/manager.rs",
            "crates/core/src/modules/supervisor.rs",
            "crates/core/src/node.rs",
            "crates/core/src/node/sync.rs",
            DET,
        ] {
            assert_eq!(codes(&scan_source(path, text)), vec!["KL302"], "{path}");
        }
        assert!(scan_source("crates/bench/src/bin/experiments.rs", text).is_empty());
        // Another crate's `node.rs` is not the Kalis node.
        assert!(scan_source("crates/netsim/src/node.rs", text).is_empty());
        // Test regions stay out of scope in the split-out files too.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { let t = Instant::now(); }\n}\n";
        assert!(scan_source("crates/core/src/node/sync.rs", test_only).is_empty());
    }

    #[test]
    fn formatted_key_is_kl303_only_with_entity_separator() {
        let bad = "let key = format!(\"SignalStrength@{peer}\");\n";
        assert_eq!(codes(&scan_source(DET, bad)), vec!["KL303"]);
        let fine = "let msg = format!(\"saw {n} packets\");\n";
        assert!(scan_source(DET, fine).is_empty());
    }

    #[test]
    fn unwrap_and_expect_are_kl304_in_dispatch_paths() {
        let text = "let v = table.get(&k).unwrap();\nlet w = q.pop().expect(\"non-empty\");\n";
        let diags = scan_source("crates/core/src/modules/manager.rs", text);
        assert_eq!(codes(&diags), vec!["KL304", "KL304"]);
        // But `.expect(` matched as a token, not `anexpect` substring.
        assert!(
            scan_source("crates/core/src/modules/manager.rs", "self.unexpected();\n").is_empty()
        );
    }

    #[test]
    fn pragma_suppresses_own_and_next_line_only() {
        let text = "\
// kalis-lint: allow(KL304): index validated above
let a = t.get(0).unwrap();
let b = t.get(1).unwrap();
let c = t.get(2).unwrap(); // kalis-lint: allow(KL304)
";
        let diags = scan_source("crates/core/src/modules/manager.rs", text);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pos.unwrap().line, 3);
    }

    #[test]
    fn pragma_lists_multiple_codes() {
        let text =
            "let t = Instant::now(); let u = x.unwrap(); // kalis-lint: allow(KL302, KL304)\n";
        assert!(scan_source("crates/core/src/modules/manager.rs", text).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trigger() {
        let text = "\
let s = \"HashMap is mentioned here .unwrap() Instant::now\";
// HashMap in a comment, .unwrap() too
/* block comment Instant::now
   spanning lines BTreeMap */
let r = r#\"raw HashMap .expect( \"#;
";
        assert!(scan_source(DET, text).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let text = "\
fn prod(t: &Table) -> u64 {
    t.len() as u64
}

#[cfg(test)]
mod tests {
    fn helper(m: HashMap<EntityId, u64>) -> u64 {
        m.values().copied().sum::<u64>()
    }
    #[test]
    fn x() {
        let t = Instant::now();
        let v = m.get(&k).unwrap();
    }
}
";
        assert!(scan_source(DET, text).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_lexer() {
        let text = "\
fn f<'a>(x: &'a str) -> char {
    let c = '\"';
    let d = '\\'';
    let m: HashMap<u8, u8> = HashMap::new();
    c
}
";
        let diags = scan_source(DET, text);
        assert_eq!(codes(&diags), vec!["KL301", "KL301"], "{diags:?}");
        assert_eq!(diags[0].pos.unwrap().line, 4);
    }

    #[test]
    fn scanner_is_panic_free_on_garbage() {
        for text in [
            "\"unterminated",
            "r#\"unterminated raw",
            "/* unterminated comment",
            "'",
            "'\\",
            "b'",
            "r####",
            "#[cfg(test)]",
            "#[cfg(test)] mod t {",
            "\u{0}\u{1}\u{2}\"\\\u{3}",
            "🦀'🦀'🦀\"🦀",
        ] {
            let _ = scan_source(DET, text);
            let _ = scan_source("crates/core/src/modules/manager.rs", text);
        }
    }

    #[test]
    fn irrelevant_paths_scan_to_nothing_fast() {
        assert!(scan_source(
            "crates/telemetry/src/lib.rs",
            "let m = HashMap::new(); let t = Instant::now(); x.unwrap();\n"
        )
        .is_empty());
    }
}
