//! # repseq-bench — the paper's evaluation as committed artifacts
//!
//! Every table of PPoPP'01 §6, the two in-text ablations, a node-count
//! sweep and the two extensions (§2 strategy comparison, KV serving) is a
//! function in [`artifacts`] from nothing to a [`Json`] value: virtual
//! times and counts, the paper's published value beside each measured one,
//! every shape the reproduction claims an assertion. The `bench_json`
//! binary writes them as the `BENCH_*.json` at the repository root and
//! renders their tables into EXPERIMENTS.md ([`Json::markdown`],
//! [`splice_tables`]). There is nothing to configure: the sizes are the
//! committed ones.
//!
//! Every harness runs its applications through one function, [`run`].

use std::fmt::Write as _;

use repseq_core::{RunConfig, Runtime, Stopped, Team};
use repseq_stats::{HostCounters, StatsSnapshot};

pub mod artifacts;

/// One measured system run.
pub struct RunOutcome<R> {
    pub result: R,
    pub snap: StatsSnapshot,
    /// The run's host-side data-plane counts (`Stats::host`).
    pub host: HostCounters,
}

/// Run one application: `setup` allocates and preloads it on a fresh
/// runtime, `body` runs it as the master program (`BarnesHut::run`,
/// `Ilink::run`, `KvStore::run`). Everything else about the run — node
/// count, strategy, TLB, flow control — is `cfg`'s.
pub fn run<A, R>(
    cfg: RunConfig,
    setup: impl FnOnce(&mut Runtime) -> A,
    body: impl FnOnce(&A, &Team) -> Result<R, Stopped> + Send + 'static,
) -> RunOutcome<R>
where
    A: Send + 'static,
    R: Send + 'static,
{
    let mut rt = Runtime::new(cfg);
    let app = setup(&mut rt);
    let stats = rt.stats();
    let (result, _) = rt.run_value(move |team| body(&app, team)).expect("run failed");
    RunOutcome { result, snap: stats.snapshot(), host: stats.host() }
}

/// `hits / (hits + misses)`; 1 when nothing was counted.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 1.0,
        total => hits as f64 / total as f64,
    }
}

/// A JSON value whose rendering is a pure function of the value: object
/// keys keep the order they were given in and every float prints with a
/// stated number of decimals, so an artifact built from deterministic
/// values is deterministic bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// No value: a row the paper does not report, a response time nothing
    /// was measured for.
    Null,
    Str(String),
    Int(u64),
    /// A finite float and the number of decimals it prints with.
    Fixed(f64, usize),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A `u64` as 16 hex digits (fingerprints, XORs).
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// The document: two-space indentation, one member per line (an array
    /// of scalars on one), a final newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// An array of same-keyed objects as a markdown table, one line per
    /// row with no alignment padding (a changed value changes its own line
    /// only). The first row's keys head the columns, `_` read as a space;
    /// numbers print as they do in the JSON but for a `,` between
    /// thousands, an array as `a / b / c`, and `null` as `–`.
    pub fn markdown(&self) -> String {
        fn fields(row: &Json) -> &[(&'static str, Json)] {
            let Json::Obj(fields) = row else { panic!("a table row is an object, not {row:?}") };
            fields
        }
        let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
        let Json::Arr(rows) = self else { panic!("a table is an array of rows, not {self:?}") };
        let head = fields(rows.first().expect("a table has a row"));
        let mut out = line(head.iter().map(|(key, _)| key.replace('_', " ")).collect());
        out += &line(vec!["---".into(); head.len()]);
        for row in rows {
            out += &line(fields(row).iter().map(|(_, value)| value.cell()).collect());
        }
        out
    }

    /// This value as one cell of [`Json::markdown`].
    pub(crate) fn cell(&self) -> String {
        match self {
            Json::Null => "–".into(),
            Json::Str(s) => s.clone(),
            Json::Arr(items) => items.iter().map(Json::cell).collect::<Vec<_>>().join(" / "),
            Json::Obj(_) => panic!("a table cell is not an object: {self:?}"),
            number => {
                let mut out = String::new();
                number.write(&mut out, 0);
                // 5106237.5 reads 5,106,237.5
                let int_len = out.find('.').unwrap_or(out.len());
                for i in (1..int_len).rev().skip(2).step_by(3) {
                    out.insert(i, ',');
                }
                out
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Str(s) => write_json_str(out, s),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Fixed(v, decimals) => {
                assert!(v.is_finite(), "JSON has no spelling for {v}");
                let _ = write!(out, "{v:.decimals$}");
            }
            // An array of scalars — a table cell — stays on its line.
            Json::Arr(items) if !items.iter().any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { ", " });
                    item.write(out, depth);
                }
                out.push(']');
            }
            Json::Arr(items) => {
                write_members(out, depth, ['[', ']'], items, |out, item| {
                    item.write(out, depth + 1)
                });
            }
            Json::Obj(fields) => {
                write_members(out, depth, ['{', '}'], fields, |out, (key, value)| {
                    write_json_str(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                });
            }
        }
    }
}

fn write_members<T>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    members: &[T],
    mut write: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, member) in members.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        write(out, member);
    }
    if !members.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `doc` with `body` put in place of whatever stands between the line
/// `<!-- bench_json:NAME -->` and the next `<!-- /bench_json -->`. A
/// document that does not hold exactly that pair is an error, not
/// something to append to.
pub fn splice(doc: &str, name: &str, body: &str) -> Result<String, String> {
    const CLOSE: &str = "<!-- /bench_json -->";
    let open = format!("<!-- bench_json:{name} -->\n");
    let start = doc.find(&open).ok_or(format!("no marker {}", open.trim_end()))? + open.len();
    let len = doc[start..].find(CLOSE).ok_or(format!("marker {name} is never closed"))?;
    if doc[start..start + len].contains("<!-- bench_json:") {
        return Err(format!("marker {name} is not closed before the next one opens"));
    }
    Ok(format!("{}{body}{}", &doc[..start], &doc[start + len..]))
}

/// `doc` with every member of `artifact`'s `tables` object (if it has one)
/// rendered between the markers of that name.
pub fn splice_tables(mut doc: String, artifact: &Json) -> Result<String, String> {
    let Json::Obj(fields) = artifact else { return Ok(doc) };
    if let Some((_, Json::Obj(tables))) = fields.iter().find(|(key, _)| *key == "tables") {
        for (name, rows) in tables {
            doc = splice(&doc, name, &rows.markdown())?;
        }
    }
    Ok(doc)
}

/// Write `value` to `file` in the current directory.
pub fn write_artifact(file: &str, value: &Json) {
    std::fs::write(file, value.render()).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    println!("wrote {file}");
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn rendering_is_a_pure_function_of_the_value() {
        let doc = Json::Obj(vec![
            ("zeta", Json::str("say \"hi\"\\\n\tbell\u{7}")),
            ("alpha", Json::Int(u64::MAX)),
            ("third", Json::Fixed(1.0 / 3.0, 3)),
            ("whole", Json::Fixed(2.0, 4)),
            ("list", Json::Arr(vec![Json::Fixed(0.2, 2), Json::hex(0xbeef), Json::Arr(vec![])])),
            ("cell", Json::Arr(vec![Json::Null, Json::Fixed(0.2, 2), Json::Int(7)])),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            r#"{
  "zeta": "say \"hi\"\\\n\tbell\u0007",
  "alpha": 18446744073709551615,
  "third": 0.333,
  "whole": 2.0000,
  "list": [
    0.20,
    "0x000000000000beef",
    []
  ],
  "cell": [null, 0.20, 7]
}
"#
        );
        assert_eq!(text, doc.render(), "the same value renders to the same bytes");
    }

    #[test]
    fn a_table_renders_one_unpadded_line_per_row() {
        let row = |label: &str, paper: Json, measured: f64| {
            let measured = Json::Arr(vec![Json::Fixed(measured, 2), Json::Int(1_234_567)]);
            Json::Obj(vec![
                ("row", Json::str(label)),
                ("paper_value", paper),
                ("measured", measured),
            ])
        };
        let table = Json::Arr(vec![
            row("Total time (s)", Json::Fixed(53.6, 1), 4.2249),
            row("a much longer label than the first", Json::Null, 1234.5),
        ]);
        assert_eq!(
            table.markdown(),
            "| row | paper value | measured |\n\
             | --- | --- | --- |\n\
             | Total time (s) | 53.6 | 4.22 / 1,234,567 |\n\
             | a much longer label than the first | – | 1,234.50 / 1,234,567 |\n"
        );
    }
}
