//! Seeded fuzzing of the serve protocol's line parser and the JSON
//! parser under it: hostile request lines must come back as `Err`, never
//! as a panic or a stack overflow.
//!
//! Driven by the in-repo seeded property harness ([`lacr_prng::properties!`]):
//! every case is deterministic and a failure reports its replay seed.

use lacr::obs::json::{parse_json, Json, MAX_DEPTH};
use lacr::obs::json_escape;
use lacr::serve::protocol::parse_line;
use lacr_prng::{prop_assert, prop_assert_eq, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Well-formed request lines covering every request shape.
const VALID: &[&str] = &[
    r#"{"id":"a","circuit":"s344","budget_ms":50,"seed":7}"#,
    r#"{"id":"b","bench_path":"x.bench"}"#,
    r#"{"id":"c","bench":"INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n","name":"t"}"#,
    r#"{"id":"f","circuit":"s27","fault":{"panic":true,"sleep_ms":9}}"#,
    r#"{"cmd":"stats","id":"probe-1"}"#,
    r#"{"cmd":"shutdown"}"#,
    r#"{"id":"u","circuit":"s27","name":"é\t\"q\"","seed":1.5e3}"#,
];

/// Bytes that steer a mutation toward the parser's branches.
const SPICE: &[u8] = b"{}[]\":,\\u0123456789-+.eEtfn \t\n\xc3\xa9\xff";

/// Parses `line` the way the daemon does (lossy UTF-8), reporting a
/// panic as a failed case instead of aborting the property run.
fn parses_without_panic(bytes: &[u8]) -> Result<(), String> {
    let line = String::from_utf8_lossy(bytes);
    catch_unwind(AssertUnwindSafe(|| parse_line(&line)))
        .map(drop)
        .map_err(|_| format!("parse_line panicked on {line:?}"))
}

/// A random string mixing ASCII, the characters JSON escapes, and
/// multi-byte code points.
fn arb_string(rng: &mut Rng) -> String {
    (0..rng.gen_range(0usize..40))
        .map(|_| match rng.gen_range(0u32..5) {
            0 => char::from(rng.gen_range(0x20u8..0x7f)),
            1 => char::from(rng.gen_range(0u8..0x20)),
            2 => *rng.choose(&['"', '\\', '/', '\u{7f}']).unwrap(),
            3 => char::from_u32(rng.gen_range(0x80u32..0xd800)).unwrap(),
            _ => char::from_u32(rng.gen_range(0x1_0000u32..0x11_0000)).unwrap(),
        })
        .collect()
}

/// Escapes `s` the way Python's `json.dumps` does by default: ASCII
/// stays literal except for the quote, the backslash and control
/// characters, and every other character becomes `\uXXXX` escapes of
/// its UTF-16 code units (a surrogate pair beyond the BMP).
fn python_escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='\u{7f}' => out.push(c),
            _ => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
    out
}

lacr_prng::properties! {
    cases = 256;

    /// Random bytes never panic the request parser.
    fn parse_line_survives_random_bytes(rng) {
        let bytes: Vec<u8> = (0..rng.gen_range(0usize..200))
            .map(|_| match rng.gen_range(0u32..3) {
                0 => *rng.choose(SPICE).unwrap(),
                _ => rng.gen_range(0u8..=255),
            })
            .collect();
        parses_without_panic(&bytes)?;
    }

    /// Truncated and byte-mutated valid requests never panic the request
    /// parser; a valid request itself parses.
    fn parse_line_survives_mutated_requests(rng) {
        let valid = *rng.choose(VALID).unwrap();
        prop_assert!(parse_line(valid).is_ok(), "{valid} does not parse");
        let mut bytes = valid.as_bytes().to_vec();
        bytes.truncate(rng.gen_range(0..=bytes.len()));
        parses_without_panic(&bytes)?;
        let mut bytes = valid.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1usize..6) {
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0u32..3) {
                0 => bytes[at] = *rng.choose(SPICE).unwrap(),
                1 => bytes.insert(at, *rng.choose(SPICE).unwrap()),
                _ => {
                    bytes.remove(at);
                }
            }
            if bytes.is_empty() {
                break;
            }
        }
        parses_without_panic(&bytes)?;
    }

    /// `parse_json` reads back what `json_escape` writes.
    fn json_escape_round_trips(rng) {
        let s = arb_string(rng);
        let quoted = format!("\"{}\"", json_escape(&s));
        prop_assert_eq!(parse_json(&quoted), Ok(Json::Str(s)));
    }

    /// `parse_json` reads back a string escaped the way Python's
    /// `json.dumps` escapes it, surrogate pairs included.
    fn python_escapes_round_trip(rng) {
        let s = arb_string(rng);
        let quoted = format!("\"{}\"", python_escape(&s));
        prop_assert_eq!(parse_json(&quoted), Ok(Json::Str(s)));
    }

    /// Nesting up to the cap parses; one level more, or far more, is an
    /// error and not a stack overflow.
    fn nesting_past_the_cap_is_an_error(rng) {
        // Each level is an array or an object, at random.
        let doc = |depth: usize, rng: &mut Rng| -> String {
            let levels: Vec<bool> = (0..depth).map(|_| rng.gen_bool(0.5)).collect();
            let open = levels.iter().map(|&arr| if arr { "[" } else { "{\"k\":" });
            let close = levels.iter().rev().map(|&arr| if arr { "]" } else { "}" });
            open.chain(std::iter::once("0")).chain(close).collect()
        };
        prop_assert!(parse_json(&doc(MAX_DEPTH, rng)).is_ok());
        let depth = MAX_DEPTH + rng.gen_range(1usize..50_000);
        let line = doc(depth, rng);
        prop_assert!(parse_json(&line).is_err(), "depth {depth} parsed");
        prop_assert!(parse_line(&line).is_err());
    }
}
