//! A minimal recursive-descent JSON parser — the reading half of
//! [`json_escape`](crate::json_escape). It parses the serve protocol's
//! request lines and validates and diffs the workspace's machine-readable
//! artifacts (JSONL metric streams, `BENCH_*.json` / `RUN_*.json` perf
//! records, flight-recorder postmortems). Kept in-repo so the workspace
//! stays dependency-free.
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays and objects: the parser
//! recurses once per level, and a hostile line of a few thousand `[`
//! bytes must come back as an `Err`, not overflow the stack.

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object (`None` for other variants).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse_json`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent JSON parser over a byte slice.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => s.push(self.unicode_escape()?),
                        other => return Err(format!("bad escape \\{}", char::from(other))),
                    }
                    self.pos += 1;
                }
                b @ 0..=0x1f => {
                    return Err(format!(
                        "unescaped control character 0x{b:02x} in string at byte {}",
                        self.pos
                    ))
                }
                _ => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one piece. All are ASCII, so the run
                    // ends on a character boundary, as every token before
                    // it does.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f))
                        .unwrap_or(self.bytes.len() - self.pos);
                    let end = self.pos + run;
                    s.push_str(
                        self.text
                            .get(self.pos..end)
                            .ok_or("string splits a character")?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `self.pos`, joining a
    /// UTF-16 surrogate pair written as two escapes into one character.
    /// Leaves `self.pos` on the last hex digit read.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        let cp = match unit {
            0xd800..=0xdbff => {
                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                    return Err(format!("lone high surrogate at byte {}", self.pos));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(format!("lone high surrogate at byte {}", self.pos));
                }
                0x1_0000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(format!("lone low surrogate at byte {}", self.pos)),
            _ => unit,
        };
        Ok(char::from_u32(cp).expect("surrogates are excluded"))
    }

    /// Reads the four hex digits after the `u` at `self.pos` and moves
    /// `self.pos` onto the last of them.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or("truncated \\u escape")?;
        let mut unit = 0;
        for &d in digits {
            let v = char::from(d).to_digit(16).ok_or_else(|| {
                format!(
                    "bad \\u escape digit {:?} at byte {}",
                    char::from(d),
                    self.pos
                )
            })?;
            unit = unit * 16 + v;
        }
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// A one-line message with the byte offset of the first problem.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes after value at {}", p.pos));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json("true").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            parse_json("\"a\\n\\u0041\"").unwrap(),
            Json::Str("a\nA".into())
        );
        let v = parse_json("{\"a\":[1,2],\"b\":{\"c\":\"d\"}}").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        assert_eq!(v.get("a").unwrap().as_arr().map(<[Json]>::len), Some(2));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        // Python's json.dumps writes U+1F600 as two UTF-16 escapes.
        assert_eq!(
            parse_json("\"\\ud83d\\ude00!\"").unwrap(),
            Json::Str("\u{1f600}!".into())
        );
        assert_eq!(
            parse_json("\"\\uD83D\\uDE00\"").unwrap(),
            Json::Str("\u{1f600}".into())
        );
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for doc in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\n\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\ude00\\ud83d\"",
        ] {
            assert!(parse_json(doc).is_err(), "{doc} parsed");
        }
    }

    #[test]
    fn raw_control_bytes_in_strings_are_rejected() {
        for b in [0u8, 0x09, 0x0a, 0x1f] {
            let doc = format!("\"a{}b\"", char::from(b));
            let err = parse_json(&doc).unwrap_err();
            assert!(err.contains("control character"), "{err}");
        }
    }

    #[test]
    fn unicode_escapes_take_only_hex_digits() {
        for doc in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u 041\"", "\"\\u00g1\""] {
            let err = parse_json(doc).unwrap_err();
            assert!(err.contains("escape digit"), "{doc}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("\"unterminated\\").is_err());
    }

    #[test]
    fn long_strings_parse_whole() {
        let body = "ab\u{e9}\u{1f600}".repeat(100_000);
        let text = format!("[\"{body}\\n{body}\"]");
        let expected = Json::Arr(vec![Json::Str(format!("{body}\n{body}"))]);
        assert_eq!(parse_json(&text).unwrap(), expected);
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        let err = parse_json(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Siblings do not add up: depth is the open levels, not the total.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 4].join(","));
        assert!(parse_json(&wide).is_ok());
    }
}
