//! Minimal JSON *syntax* validator (RFC 8259 grammar, no value model),
//! plus the string [`escape`] every JSON writer in the workspace shares.
//!
//! The workspace is offline-only — no serde — yet the CI smoke job and
//! the exporter tests must prove that emitted Chrome traces parse. This
//! recursive-descent checker accepts exactly the JSON value grammar and
//! reports the byte offset of the first violation. It builds no values,
//! so validating a multi-megabyte trace costs one pass and no allocation.
//! Arrays and objects may nest at most [`MAX_DEPTH`] levels deep, so no
//! input can exhaust the stack.

use std::fmt::{self, Write as _};

/// A syntax violation at a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the violation.
    pub at: usize,
    /// What was expected.
    pub expected: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: expected {}", self.at, self.expected)
    }
}

impl std::error::Error for JsonError {}

/// The deepest array/object nesting [`validate`] accepts (serde_json's
/// default recursion limit).
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &'static str) -> JsonError {
        JsonError { at: self.pos, expected }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("at most 128 nested arrays/objects"));
                }
                self.depth += 1;
                let nested = if self.peek() == Some(b'{') { self.object() } else { self.array() };
                self.depth -= 1;
                nested
            }
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn literal(&mut self, lit: &'static [u8]) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("a literal (true/false/null)"))
        }
    }

    fn object(&mut self) -> Result<(), JsonError> {
        self.expect(b'{', "'{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':', "':'")?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), JsonError> {
        self.expect(b'[', "'['")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), JsonError> {
        self.expect(b'"', "'\"'")?;
        loop {
            match self.peek() {
                None => return Err(self.err("a closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("four hex digits after \\u")),
                                }
                            }
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("no raw control characters")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("a fraction digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("an exponent digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        Ok(())
    }
}

/// Append `s` to `out` escaped for the inside of a JSON string literal.
pub fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Validate that `input` is one syntactically well-formed JSON value
/// (with optional surrounding whitespace).
///
/// # Errors
///
/// Returns the byte offset and expectation of the first violation.
pub fn validate(input: &str) -> Result<(), JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of input"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "\"a \\\"quoted\\\" \\u00e9 string\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":false}",
            "  [ 1 , 2 ]  ",
            "0.5",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad \\x escape\"",
            "[1] trailing",
            "nulL",
            "\"ctrl \u{0}\"",
        ] {
            assert!(validate(doc).is_err(), "{doc:?} must be rejected");
        }
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        validate(&nested(MAX_DEPTH)).expect("MAX_DEPTH levels are accepted");
        let err = validate(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "the first level too deep is reported");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert_eq!(validate(&objects).unwrap_err().at, 5 * MAX_DEPTH);
        // Far past the limit the validator still returns instead of
        // overflowing the stack.
        assert!(validate(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn error_reports_offset() {
        let err = validate("[1, ??]").unwrap_err();
        assert_eq!(err.at, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
