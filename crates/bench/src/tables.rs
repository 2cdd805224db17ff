//! Table formatting for the figure harnesses, plus a dependency-free JSON
//! emitter so benches can drop machine-readable results (`BENCH_*.json`)
//! next to their human tables — giving future PRs a perf trajectory.

use std::io::Write;

/// Prints a banner naming the paper artifact being reproduced.
pub fn banner(id: &str, title: &str, paper: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper reference: {paper}");
    println!("================================================================");
}

/// Formats an optional MB/s cell ("n/a" when a model could not run).
pub fn mb_cell(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:>12.3}"),
        None => format!("{:>12}", "n/a"),
    }
}

/// Formats a count with thousands separators.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A JSON scalar for [`write_json_rows`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// A float (NaN/∞ serialize as `null`).
    Num(f64),
    /// An integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl JsonVal {
    fn emit(&self, out: &mut String) {
        match self {
            JsonVal::Num(v) if v.is_finite() => out.push_str(&format!("{v}")),
            JsonVal::Num(_) => out.push_str("null"),
            JsonVal::Int(v) => out.push_str(&v.to_string()),
            JsonVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonVal::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

fn emit_object(fields: &[(&str, JsonVal)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        JsonVal::Str(k.to_string()).emit(out);
        out.push(':');
        v.emit(out);
    }
    out.push('}');
}

/// Serializes `{"meta": {…}, "rows": [{…}, …]}`.
pub fn json_rows_string(meta: &[(&str, JsonVal)], rows: &[Vec<(&str, JsonVal)>]) -> String {
    let mut out = String::new();
    out.push_str("{\"meta\":");
    emit_object(meta, &mut out);
    out.push_str(",\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        emit_object(row, &mut out);
    }
    out.push_str("]}\n");
    out
}

/// Writes machine-readable bench results to `path` (atomically enough for
/// a bench harness: temp file + rename).
///
/// # Errors
///
/// Propagates I/O failures from the filesystem.
pub fn write_json_rows(
    path: &std::path::Path,
    meta: &[(&str, JsonVal)],
    rows: &[Vec<(&str, JsonVal)>],
) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(json_rows_string(meta, rows).as_bytes())?;
    }
    std::fs::rename(&tmp, path)
}

/// Writes the golden `file` (`BENCH_*.json`) at the workspace root and
/// says so. Exits nonzero if it cannot: CI's gates read these files, and
/// a silent write failure would let them pass on stale data.
pub fn write_golden(file: &str, meta: &[(&str, JsonVal)], rows: &[Vec<(&str, JsonVal)>]) {
    let out = workspace_root().join(file);
    match write_json_rows(&out, meta, rows) {
        Ok(()) => println!("\nwrote {} rows to {}", rows.len(), out.display()),
        Err(e) => {
            eprintln!("\nfailed to write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

/// The workspace root: two levels above this crate's manifest when cargo
/// set `CARGO_MANIFEST_DIR` (as `cargo bench` and `cargo run` do), else
/// the current directory.
fn workspace_root() -> std::path::PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .ok()
        .and_then(|dir| {
            std::path::Path::new(&dir)
                .ancestors()
                .nth(2)
                .map(Into::into)
        })
        .unwrap_or_else(|| std::path::PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_groups_thousands() {
        assert_eq!(count(5), "5");
        assert_eq!(count(1234), "1,234");
        assert_eq!(count(10_000_000), "10,000,000");
    }

    #[test]
    fn mb_cell_handles_na() {
        assert!(mb_cell(None).contains("n/a"));
        assert!(mb_cell(Some(1.5)).contains("1.500"));
    }

    #[test]
    fn json_rows_shape_and_escaping() {
        let s = json_rows_string(
            &[("bench", JsonVal::Str("kv \"x\"\n".into()))],
            &[
                vec![("a", JsonVal::Int(3)), ("b", JsonVal::Num(1.5))],
                vec![("ok", JsonVal::Bool(true)), ("bad", JsonVal::Num(f64::NAN))],
            ],
        );
        assert_eq!(
            s,
            "{\"meta\":{\"bench\":\"kv \\\"x\\\"\\n\"},\"rows\":[{\"a\":3,\"b\":1.5},{\"ok\":true,\"bad\":null}]}\n"
        );
    }

    #[test]
    fn write_json_rows_roundtrips_through_fs() {
        let dir = std::env::temp_dir().join("eveth_bench_tables_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        write_json_rows(&path, &[("v", JsonVal::Int(1))], &[]).unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got, "{\"meta\":{\"v\":1},\"rows\":[]}\n");
        std::fs::remove_file(&path).unwrap();
    }
}
