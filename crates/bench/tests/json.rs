//! The JSON the artifacts are written in, through the crate's public
//! renderer: the same value renders to the same bytes, and a table to one
//! markdown line per row.

use repseq_bench::Json;

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
        Json::Obj(vec![("row", Json::str(label)), ("paper_value", paper), ("measured", measured)])
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
