//! Golden values of `repro --scale quick all`: every table the paper
//! reproduction prints, pinned cell by cell, so a refactor cannot quietly
//! change what is answered while the orderings the table runners assert
//! still hold.
//!
//! `tests/fixtures/repro_quick.json` holds each table with one tolerance per
//! cell. A cell matches when its text outside the numbers is identical and
//! each number in it lies within the cell's tolerance of the golden one.
//! Regeneration sets the tolerance to 0 for whole numbers (counts are exact)
//! and to one unit in the last printed place otherwise, which absorbs a
//! rounding flip but not a moved result. Table 14 (wall-clock timings) and
//! `report` (no table) are not pinned.
//!
//! Regenerate deliberately with `KBQA_REGEN_GOLDEN=1 cargo test -p
//! kbqa-bench --test golden_tables`, then review the diff.

use serde::{Deserialize, Serialize};

use kbqa_bench::session::Scale;
use kbqa_bench::targets::{run_target, Sessions, ALL_TARGETS};
use kbqa_bench::Table;

/// Targets whose output is not a deterministic function of the seed.
const UNPINNED: &[&str] = &["table14", "report"];

#[derive(Serialize, Deserialize)]
struct GoldenTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    /// One tolerance per cell of `rows`.
    tol: Vec<Vec<f64>>,
}

/// A cell split into its text skeleton (numbers replaced by `#`) and its
/// numbers, each with the count of digits after its decimal point.
fn split_cell(cell: &str) -> (String, Vec<(f64, u32)>) {
    let mut skeleton = String::new();
    let mut numbers = Vec::new();
    let bytes = cell.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            let ch = cell[i..].chars().next().expect("char boundary");
            skeleton.push(ch);
            i += ch.len_utf8();
            continue;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        let mut decimals = 0;
        if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
                decimals += 1;
            }
        }
        numbers.push((cell[start..i].parse().expect("digits parse"), decimals));
        skeleton.push('#');
    }
    (skeleton, numbers)
}

/// One unit in the last printed place of the cell's least precise decimal
/// number; 0 when every number in it is whole.
fn tolerance(cell: &str) -> f64 {
    split_cell(cell)
        .1
        .iter()
        .filter(|&&(_, decimals)| decimals > 0)
        .map(|&(_, decimals)| 10f64.powi(-(decimals as i32)))
        .fold(0.0, f64::max)
}

fn cell_matches(golden: &str, fresh: &str, tol: f64) -> bool {
    let (golden_skeleton, golden_numbers) = split_cell(golden);
    let (fresh_skeleton, fresh_numbers) = split_cell(fresh);
    // The 1e-9 slack keeps a difference of exactly one printed unit inside.
    golden_skeleton == fresh_skeleton
        && golden_numbers
            .iter()
            .zip(&fresh_numbers)
            .all(|(&(a, _), &(b, _))| (a - b).abs() <= tol + 1e-9)
}

fn fresh_tables() -> Vec<Table> {
    let sessions = Sessions::new(Scale::Quick);
    ALL_TARGETS
        .iter()
        .filter(|target| !UNPINNED.contains(target))
        .flat_map(|target| run_target(target, &sessions))
        .collect()
}

#[test]
fn quick_repro_tables_match_the_golden() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("repro_quick.json");
    let fresh = fresh_tables();

    if std::env::var_os("KBQA_REGEN_GOLDEN").is_some() {
        let golden: Vec<GoldenTable> = fresh
            .iter()
            .map(|t| GoldenTable {
                title: t.title.clone(),
                header: t.header.clone(),
                tol: t
                    .rows
                    .iter()
                    .map(|row| row.iter().map(|c| tolerance(c)).collect())
                    .collect(),
                rows: t.rows.clone(),
            })
            .collect();
        std::fs::create_dir_all(fixture.parent().unwrap()).unwrap();
        std::fs::write(&fixture, serde_json::to_string_pretty(&golden).unwrap()).unwrap();
        eprintln!("regenerated {}", fixture.display());
    }

    let text = std::fs::read_to_string(&fixture)
        .expect("golden tables missing — run with KBQA_REGEN_GOLDEN=1 to create them");
    let golden: Vec<GoldenTable> = serde_json::from_str(&text).expect("golden parses");
    assert_eq!(
        golden.iter().map(|t| &t.title).collect::<Vec<_>>(),
        fresh.iter().map(|t| &t.title).collect::<Vec<_>>(),
        "the set of pinned tables changed"
    );
    let mut moved = Vec::new();
    for (g, f) in golden.iter().zip(&fresh) {
        assert_eq!(g.header, f.header, "{}: header changed", g.title);
        assert_eq!(g.rows.len(), f.rows.len(), "{}: row count changed", g.title);
        for (r, (g_row, f_row)) in g.rows.iter().zip(&f.rows).enumerate() {
            for (c, (cell, fresh_cell)) in g_row.iter().zip(f_row).enumerate() {
                if !cell_matches(cell, fresh_cell, g.tol[r][c]) {
                    moved.push(format!(
                        "{} row {r} `{}` col `{}`: golden {cell:?} (±{}), now {fresh_cell:?}",
                        g.title, g_row[0], g.header[c], g.tol[r][c]
                    ));
                }
            }
        }
    }
    assert!(
        moved.is_empty(),
        "{} cells moved beyond their tolerance; regenerate deliberately \
         (KBQA_REGEN_GOLDEN=1) only if the change is intended:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn cells_split_into_text_and_numbers() {
    assert_eq!(
        split_cell("0.32(+0.29)"),
        ("#(+#)".to_owned(), vec![(0.32, 2), (0.29, 2)])
    );
    assert_eq!(
        split_cell("4000 QA pairs"),
        ("# QA pairs".to_owned(), vec![(4000.0, 0)])
    );
    assert_eq!(tolerance("0.93"), 0.01);
    assert_eq!(tolerance("269"), 0.0);
    assert_eq!(tolerance("KBQA"), 0.0);
    assert!(cell_matches("0.93", "0.94", 0.01));
    assert!(!cell_matches("0.93", "0.95", 0.01));
    assert!(!cell_matches("269", "270", 0.0));
    assert!(!cell_matches("Y", "N", 0.0));
}
