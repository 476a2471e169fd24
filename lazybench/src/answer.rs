//! Query answers as plain rows: a line format to pass them between
//! processes, and the comparison against a reference.

use lazyetl_store::{Table, Value};
use std::cmp::Ordering;

/// One answer: its rows, in canonical (sorted) order.
pub type Rows = Vec<Vec<Value>>;

/// Absolute float tolerance, as the repository's lazy-vs-eager tests use.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// The rows of `t`, sorted so that answers without `ORDER BY` compare.
pub fn rows_of(t: &Table) -> Rows {
    let mut rows: Rows = (0..t.num_rows())
        .map(|i| t.row(i).expect("row index below num_rows"))
        .collect();
    rows.sort_by(|a, b| cmp_row(a, b));
    rows
}

fn cmp_row(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let o = match (x, y) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Null, _) => Ordering::Less,
            (_, Value::Null) => Ordering::Greater,
            _ => x.sql_cmp(y).unwrap_or(Ordering::Equal),
        };
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// True when `got` matches `want`: same shape, floats within
/// [`FLOAT_TOLERANCE`], everything else equal.
pub fn matches(got: &Rows, want: &Rows) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len()
                && g.iter().zip(w).all(|(a, b)| match (a, b) {
                    (Value::Float64(x), Value::Float64(y)) => {
                        (x - y).abs() < FLOAT_TOLERANCE || (x.is_nan() && y.is_nan())
                    }
                    (Value::Null, Value::Null) => true,
                    _ => a.data_type() == b.data_type() && a.sql_eq(b) == Some(true),
                })
        })
}

/// Encode rows as lines: a `rows <n>` header, then one tab-separated
/// line per row with type-tagged cells.
pub fn encode(rows: &Rows) -> String {
    let mut out = format!("rows {}\n", rows.len());
    for row in rows {
        let cells: Vec<String> = row.iter().map(encode_value).collect();
        out.push_str(&cells.join("\t"));
        out.push('\n');
    }
    out
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "n".into(),
        Value::Bool(b) => format!("b{}", u8::from(*b)),
        Value::Int32(x) => format!("i{x}"),
        Value::Int64(x) => format!("l{x}"),
        Value::Float64(x) => format!("f{:016x}", x.to_bits()),
        Value::Utf8(s) => format!("s{}", s.replace(['\t', '\n'], " ")),
        Value::Timestamp(x) => format!("t{x}"),
    }
}

/// Decode one row line written by [`encode`].
pub fn decode_row(line: &str) -> Option<Vec<Value>> {
    if line.is_empty() {
        return Some(Vec::new());
    }
    line.split('\t').map(decode_value).collect()
}

fn decode_value(cell: &str) -> Option<Value> {
    let (tag, body) = cell.split_at(cell.char_indices().nth(1).map_or(cell.len(), |(i, _)| i));
    Some(match tag {
        "n" => Value::Null,
        "b" => Value::Bool(body == "1"),
        "i" => Value::Int32(body.parse().ok()?),
        "l" => Value::Int64(body.parse().ok()?),
        "f" => Value::Float64(f64::from_bits(u64::from_str_radix(body, 16).ok()?)),
        "s" => Value::Utf8(body.to_string()),
        "t" => Value::Timestamp(body.parse().ok()?),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trips_every_type() {
        let rows = vec![vec![
            Value::Null,
            Value::Bool(true),
            Value::Int32(-3),
            Value::Int64(1 << 40),
            Value::Float64(0.1 + 0.2),
            Value::Utf8("HGN".into()),
            Value::Timestamp(1_263_333_600_000_000),
        ]];
        let text = encode(&rows);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("rows 1"));
        let back = vec![decode_row(lines.next().unwrap()).unwrap()];
        assert!(matches(&back, &rows));
        assert_eq!(back[0][4].as_f64(), Some(0.1 + 0.2));
    }

    #[test]
    fn floats_match_within_tolerance_only() {
        let a = vec![vec![Value::Float64(1.0)]];
        assert!(matches(&a, &vec![vec![Value::Float64(1.0 + 1e-12)]]));
        assert!(!matches(&a, &vec![vec![Value::Float64(1.0 + 1e-6)]]));
        assert!(!matches(&a, &vec![vec![Value::Int64(1)]]));
        assert!(!matches(&a, &Vec::new()));
    }
}
