//! Expected quality values, kept in `perfbench/expected.txt`.

use std::collections::BTreeMap;

/// Expected values by key (`"table1 s838"`, `"scale ring:4096 2003"`),
/// each a list of `(field, value)` in file order.
pub struct Expected(BTreeMap<String, Vec<(String, i64)>>);

impl Expected {
    /// Parses the embedded `expected.txt`. With `corrupt`, every value
    /// is off by one, so that every check against it must fail.
    pub fn load(corrupt: bool) -> Self {
        let mut rows = BTreeMap::new();
        for line in include_str!("../expected.txt").lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, fields): (Vec<&str>, Vec<&str>) =
                line.split_whitespace().partition(|w| !w.contains('='));
            let fields = fields
                .iter()
                .map(|f| {
                    let (k, v) = f.split_once('=').expect("field is k=v");
                    let v: i64 = v.parse().expect("expected.txt values are integers");
                    (k.to_string(), v + i64::from(corrupt))
                })
                .collect();
            rows.insert(key.join(" "), fields);
        }
        Self(rows)
    }

    /// Compares `actual` (looked up by field name) with the row `key`;
    /// returns one message per mismatch. A key without a row checks
    /// nothing.
    pub fn check(&self, key: &str, actual: &[(&str, i64)]) -> Vec<String> {
        let Some(row) = self.0.get(key) else {
            return Vec::new();
        };
        row.iter()
            .filter_map(|(field, want)| {
                let got = actual.iter().find(|(f, _)| f == field).map(|&(_, v)| v);
                (got != Some(*want)).then(|| format!("{key}: {field} is {got:?}, expected {want}"))
            })
            .collect()
    }

    pub fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}
