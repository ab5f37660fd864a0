//! The documents' references resolve. Every repository path that README.md,
//! DESIGN.md and EXPERIMENTS.md put in inline code, and every `file.rs:N`
//! they cite, names a file that exists (with at least N lines). Every
//! citation of a DESIGN.md section — with a quoted subsection heading and
//! an item number or range after it, if given — and every quoted
//! EXPERIMENTS.md heading, wherever the tree cites one, names a section,
//! heading or numbered item that exists.

use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose inline paths must resolve.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Where citations of DESIGN.md sections and EXPERIMENTS.md headings are
/// looked for (files, or directories walked whole).
const CITING: [&str; 11] = [
    ".github",
    ".claude",
    "crates",
    "src",
    "tools",
    "examples",
    "tests",
    "Cargo.toml",
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
];

/// File extensions that make a bare word in inline code a path.
const EXTENSIONS: [&str; 9] = ["rs", "md", "json", "toml", "py", "c", "sh", "yml", "lock"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file and directory of the repository, relative to its root, with
/// `/` separators; build outputs and version control are left out.
fn tree(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel) = stack.pop() {
        let Ok(entries) = fs::read_dir(root.join(&rel)) else { continue };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == "target" || name == ".git" {
                continue;
            }
            let path = rel.join(&name);
            out.push(path.to_string_lossy().replace('\\', "/"));
            if entry.file_type().is_ok_and(|t| t.is_dir()) {
                stack.push(path);
            }
        }
    }
    out
}

/// The files of `tree` that `rel` names: itself, or any whose path ends
/// in it at a component boundary (documents cite `coro.rs` and
/// `tests/edges.rs` as often as `crates/sim/src/coro.rs`).
fn resolve<'a>(tree: &'a [String], rel: &str) -> Vec<&'a String> {
    let suffix = format!("/{rel}");
    tree.iter().filter(|p| *p == rel || p.ends_with(&suffix)).collect()
}

/// A document's inline code spans, outside fenced blocks.
fn code_spans(doc: &str) -> Vec<String> {
    let mut text = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            text.push_str(line);
            text.push('\n');
        }
    }
    text.split('`').skip(1).step_by(2).map(str::to_owned).collect()
}

/// Whether a word of inline code is a path into the repository.
fn is_repo_path(word: &str) -> bool {
    let path_chars = word.chars().all(|c| c.is_ascii_alphanumeric() || "_./-".contains(c));
    let ext = word.rsplit_once('.').map(|(_, e)| e);
    path_chars
        && !word.starts_with(['/', '-', '.'])
        && !word.contains("://")
        && !word.starts_with("target/")
        && !word.contains("/target/")
        && (word.contains('/') || ext.is_some_and(|e| EXTENSIONS.contains(&e)))
}

/// Check every path in `doc`'s inline code, and every `file.rs:N` anywhere
/// in it; returns how many it checked.
fn check_paths(
    name: &str,
    doc: &str,
    tree: &[String],
    root: &Path,
    bad: &mut Vec<String>,
) -> usize {
    let mut checked = 0;
    for span in code_spans(doc) {
        for word in span.split_whitespace() {
            let word = word.trim_matches(|c: char| "'\",;()".contains(c));
            if is_repo_path(word) {
                checked += 1;
                if resolve(tree, word.trim_end_matches('/')).is_empty() {
                    bad.push(format!("{name}: `{word}` names no file of the repository"));
                }
            }
        }
    }
    for (at, _) in doc.match_indices(".rs:") {
        let digits: String = doc[at + 4..].chars().take_while(char::is_ascii_digit).collect();
        let Ok(line) = digits.parse::<usize>() else { continue };
        let start = doc[..at]
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
            .map_or(0, |i| i + 1);
        let path = format!("{}.rs", &doc[start..at]);
        checked += 1;
        let lines = |f: &&String| fs::read_to_string(root.join(f)).map_or(0, |t| t.lines().count());
        if !resolve(tree, &path).iter().any(|f| lines(f) >= line) {
            bad.push(format!("{name}: `{path}:{line}` is not a line of a file of the repository"));
        }
    }
    checked
}

/// `s` from its first character that is not white space, a comment marker
/// or a comma: a citation may run on over a comment's line break.
fn skip_sep(s: &str) -> &str {
    s.trim_start_matches(|c: char| c.is_whitespace() || "/!#*,".contains(c))
}

/// The quoted heading at the front of `s`, if there is one, with the white
/// space and comment markers of a line break folded to one space.
fn quoted(s: &str) -> Option<(String, &str)> {
    let rest = s.strip_prefix('"')?;
    let end = rest.find('"')?;
    let words: Vec<&str> =
        rest[..end].split_whitespace().filter(|w| !w.chars().all(|c| "/!#*".contains(c))).collect();
    Some((words.join(" "), &rest[end + 1..]))
}

/// The item numbers of `item K`, `items K–L` or `items K and L` at the
/// front of `s`.
fn items(s: &str) -> Vec<u32> {
    let Some(rest) = s.strip_prefix("items ").or_else(|| s.strip_prefix("item ")) else {
        return Vec::new();
    };
    let number = |s: &str| -> (Option<u32>, usize) {
        let digits: String = s.chars().take_while(char::is_ascii_digit).collect();
        (digits.parse().ok(), digits.len())
    };
    let (Some(first), len) = number(rest) else { return Vec::new() };
    let rest = &rest[len..];
    for sep in ["–", "-", " and ", ", "] {
        if let (Some(last), _) = rest.strip_prefix(sep).map_or((None, 0), number) {
            return if sep == "–" || sep == "-" {
                (first..=last).collect()
            } else {
                vec![first, last]
            };
        }
    }
    vec![first]
}

/// The lines of `doc` from the heading that `is_start` accepts up to the
/// next heading of the same or a higher level, or `None`.
fn section<'a>(doc: &[&'a str], is_start: impl Fn(&str) -> bool) -> Option<Vec<&'a str>> {
    let start = doc.iter().position(|l| is_start(l))?;
    let level = doc[start].chars().take_while(|&c| c == '#').count();
    let ends = |l: &&str| {
        let n = l.chars().take_while(|&c| c == '#').count();
        n > 0 && n <= level
    };
    let len = doc[start + 1..].iter().position(ends).unwrap_or(doc.len() - start - 1);
    Some(doc[start..=start + len].to_vec())
}

/// Check the citation of DESIGN.md that `rest` starts with (the text
/// after the file's name).
fn check_design_ref(at: &str, rest: &str, design: &[&str], bad: &mut Vec<String>) {
    let Some(rest) = skip_sep(rest).strip_prefix('§') else { return };
    let number: String = rest.chars().take_while(char::is_ascii_alphanumeric).collect();
    let cite = format!("DESIGN.md §{number}");
    if !number.starts_with(|c: char| c.is_ascii_digit()) {
        bad.push(format!("{at}: `{cite}…` does not name a section by its number"));
        return;
    }
    let Some(mut lines) = section(design, |l| l.starts_with(&format!("## {number}. "))) else {
        bad.push(format!("{at}: `{cite}` names no section of DESIGN.md"));
        return;
    };
    let mut rest = skip_sep(&rest[number.len()..]);
    let mut cite = cite;
    if let Some((heading, after)) = quoted(rest) {
        cite = format!("{cite} \"{heading}\"");
        let sub =
            section(&lines, |l| l.starts_with("### ") && l[4..].starts_with(heading.as_str()));
        let Some(sub) = sub else {
            bad.push(format!("{at}: `{cite}` names no subsection of that section"));
            return;
        };
        lines = sub;
        rest = skip_sep(after);
    }
    for k in items(rest) {
        if !lines.iter().any(|l| l.starts_with(&format!("{k}. "))) {
            bad.push(format!("{at}: `{cite} item {k}` names no numbered item there"));
        }
    }
}

/// Check the citation of EXPERIMENTS.md that `rest` starts with.
fn check_experiments_ref(at: &str, rest: &str, experiments: &[&str], bad: &mut Vec<String>) {
    if rest.starts_with('"') {
        return; // the end of a string literal that names the file
    }
    let Some((heading, _)) = quoted(skip_sep(rest)) else { return };
    let found = experiments.iter().any(|l| {
        l.starts_with('#') && l.trim_start_matches('#').trim_start().starts_with(&heading)
    });
    if !found {
        bad.push(format!(
            "{at}: `EXPERIMENTS.md \"{heading}\"` names no heading of EXPERIMENTS.md"
        ));
    }
}

#[test]
fn every_path_and_line_the_documents_cite_exists() {
    let root = root();
    let tree = tree(&root);
    let mut bad = Vec::new();
    let mut checked = 0;
    for name in DOCS {
        let doc = fs::read_to_string(root.join(name)).expect("the document is readable");
        checked += check_paths(name, &doc, &tree, &root, &mut bad);
    }
    assert!(checked > 50, "only {checked} paths found: the documents were not read");
    assert!(bad.is_empty(), "unresolved references:\n{}", bad.join("\n"));
}

#[test]
fn every_cited_section_heading_and_item_exists() {
    let root = root();
    let tree = tree(&root);
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let design: Vec<&str> = design.lines().collect();
    let experiments =
        fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md is readable");
    let experiments: Vec<&str> = experiments.lines().collect();
    let mut bad = Vec::new();
    let mut cited = 0;
    for rel in
        tree.iter().filter(|p| CITING.iter().any(|c| *p == c || p.starts_with(&format!("{c}/"))))
    {
        if rel == "crates/check/tests/doc_refs.rs" {
            continue; // its own strings name the syntax, not sections
        }
        let Ok(text) = fs::read_to_string(root.join(rel)) else { continue };
        for (at, _) in text.match_indices("DESIGN.md") {
            let line = text[..at].matches('\n').count() + 1;
            check_design_ref(&format!("{rel}:{line}"), &text[at + 9..], &design, &mut bad);
            cited += 1;
        }
        for (at, _) in text.match_indices("EXPERIMENTS.md") {
            let line = text[..at].matches('\n').count() + 1;
            check_experiments_ref(
                &format!("{rel}:{line}"),
                &text[at + 14..],
                &experiments,
                &mut bad,
            );
            cited += 1;
        }
    }
    assert!(cited > 20, "only {cited} citations found: the walk missed the tree");
    assert!(bad.is_empty(), "unresolved citations:\n{}", bad.join("\n"));
}

#[test]
fn the_citation_parser_reads_what_the_tree_writes() {
    assert_eq!(items("item 3: a"), vec![3]);
    assert_eq!(items("items 4–5)"), vec![4, 5]);
    assert_eq!(items("items 1 and 3"), vec![1, 3]);
    assert_eq!(items("ROADMAP item 2"), Vec::<u32>::new());
    assert_eq!(
        quoted("\"Event\n    //! engine\" item 1"),
        Some(("Event engine".into(), " item 1"))
    );
    assert_eq!(skip_sep(",\n  /// §8"), "§8");
    let design = ["## 8. Performance", "### Event engine", "1. **One.**", "## 9. Substrates"];
    let mut bad = Vec::new();
    check_design_ref("t", " §8 \"Event engine\" item 1", &design, &mut bad);
    check_design_ref("t", "\n/// §8 \"Event engine\"\n/// item 2", &design, &mut bad);
    check_design_ref("t", " §Performance", &design, &mut bad);
    check_design_ref("t", " §7", &design, &mut bad);
    check_design_ref("t", " for the rationale", &design, &mut bad);
    assert_eq!(bad.len(), 3, "{bad:?}");
    assert!(is_repo_path("crates/sim/src/coro.rs") && is_repo_path("BENCH_diff.json"));
    assert!(!is_repo_path("/proc/self/maps") && !is_repo_path("target/prof.out"));
    assert!(!is_repo_path("BENCH_*.json") && !is_repo_path("Kernel::pop_next"));
}
