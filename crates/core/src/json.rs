//! A minimal, dependency-free JSON reader/writer.
//!
//! Extracted from the hand-rolled [`crate::Strategy`] codec when the wire
//! protocol (`revmax-http`) arrived: every serialised surface in the
//! workspace — strategies, instances, adoption events — shares this one
//! grammar instead of growing ad-hoc string scanners.
//!
//! The grammar lives in exactly one place, the pull [`Reader`]: a cursor
//! over the input bytes that hands out one token at a time (object keys,
//! array elements, numbers, strings, literals) plus a validating
//! [`Reader::skip`]. The wire decoders ([`crate::wire`]) read their targets
//! straight from it without building a tree; [`parse`] is a small
//! tree-building consumer of the same reader for callers that want a
//! [`JsonValue`]. The reader has two hard safety properties (fuzzed with
//! 10k+ seeded byte mutations per release, see `revmax-http`'s fuzz suite):
//!
//! * **no panics** — every malformed input returns a structured
//!   [`JsonError`] with a byte offset;
//! * **no over-reads** — the reader only ever indexes through the borrowed
//!   input slice, and nesting is capped at [`MAX_DEPTH`] so deeply nested
//!   input cannot exhaust the stack.
//!
//! Input is raw bytes. Outside strings the grammar is pure ASCII, so UTF-8
//! is validated only inside strings (including strings that are skipped);
//! a body never needs a separate whole-document UTF-8 pass.
//!
//! Numbers are IEEE `f64` (the only number type the wire needs), parsed by
//! a strict grammar (no leading zeros, no `+`, no `NaN`/`Infinity`, finite
//! results only). [`Reader::number`] reads each number in one pass: it
//! checks the grammar while it builds a 19-digit decimal significand
//! (eight digits at a time where it can) and a saturating exponent, then
//! converts with Eisel–Lemire over a `const`-built table of the 83 powers of
//! five in the window `10^-27..=10^55`, where nearly every wire number
//! falls. Exponents past the `f64` range give 0 or an overflow; longer
//! significands and the exponents between the window and that range parse
//! the same text again with `str::parse`. Every path rounds correctly, so
//! the result is bit-identical to `str::parse`, with one exception named
//! on [`Reader::number`]. The writer uses Rust's shortest round-trip formatting, so
//! `f64 → text → f64` is bit-exact — the property the 1e-9 protocol-parity
//! suites lean on.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Maximum nesting depth the reader accepts (arrays + objects combined).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Objects preserve key order as a vector of pairs — the wire structs never
/// need hashed lookup, and ordered output keeps golden tests byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite — the parser rejects overflow).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source key order.
    Object(Vec<(String, JsonValue)>),
}

/// `n` as a `u32`, if it is a non-negative integer in range.
pub fn exact_u32(n: f64) -> Option<u32> {
    if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n) {
        Some(n as u32)
    } else {
        None
    }
}

impl JsonValue {
    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u32`, if it is a non-negative integer number in range.
    pub fn as_u32(&self) -> Option<u32> {
        exact_u32(self.as_f64()?)
    }

    /// The value as a `u64`, if it is a non-negative integer number that
    /// `f64` represents exactly (≤ 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's key/value pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Looks up a key in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// A structured parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the parser gave up.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut r = Reader::new(input.as_bytes());
    let value = r.value()?;
    r.finish()?;
    Ok(value)
}

/// What kind of value comes next in a [`Reader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array (`[`).
    Array,
    /// An object (`{`).
    Object,
}

/// A strict pull reader over JSON bytes: the single JSON grammar of the
/// workspace.
///
/// Values are consumed one token at a time. Containers are walked with
/// [`Reader::begin_object`] + [`Reader::next_key`] and
/// [`Reader::begin_array`] + [`Reader::next_element`]; scalars with
/// [`Reader::number`], [`Reader::str`], [`Reader::boolean`] and
/// [`Reader::null`]; anything unwanted with [`Reader::skip`], which still
/// validates it. [`Reader::peek`] tells which kind of value is next, so a
/// decoder can report a type mismatch as its own schema error. After the
/// top-level value, [`Reader::finish`] rejects trailing bytes.
///
/// ```
/// use revmax_core::json::Reader;
///
/// let mut r = Reader::new(br#"{"xs": [1, 2.5], "skip": {"a": null}}"#);
/// r.begin_object().unwrap();
/// let mut sum = 0.0;
/// while let Some(key) = r.next_key().unwrap() {
///     if key == "xs" {
///         r.begin_array().unwrap();
///         while r.next_element().unwrap() {
///             sum += r.number().unwrap();
///         }
///     } else {
///         r.skip().unwrap();
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(sum, 3.5);
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// Whether the innermost open container has not yielded an entry yet
    /// (so the next entry needs no `,`).
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the first value of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Byte offset of the cursor.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// An error at the cursor.
    pub fn error(&self, message: &str) -> JsonError {
        self.error_at(self.pos, message)
    }

    fn error_at(&self, offset: usize, message: &str) -> JsonError {
        JsonError {
            offset,
            message: message.to_string(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// Moves to the start of the next value and returns its first byte,
    /// enforcing [`MAX_DEPTH`].
    fn start(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than MAX_DEPTH"));
        }
        self.peek_byte()
            .ok_or_else(|| self.error("unexpected end of input"))
    }

    /// The kind of the next value, without consuming it.
    pub fn peek(&mut self) -> Result<Kind, JsonError> {
        match self.start()? {
            b'n' => Ok(Kind::Null),
            b't' | b'f' => Ok(Kind::Bool),
            b'"' => Ok(Kind::String),
            b'[' => Ok(Kind::Array),
            b'{' => Ok(Kind::Object),
            b'-' | b'0'..=b'9' => Ok(Kind::Number),
            _ => Err(self.error("unexpected character")),
        }
    }

    /// After the top-level value: only whitespace may remain.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after the JSON value"))
        }
    }

    fn open(&mut self, byte: u8, what: &str) -> Result<(), JsonError> {
        if self.start()? != byte {
            return Err(self.error(what));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Consumes `close` if it is next (ending the innermost container), or
    /// the `,` separating entries; returns whether the container ended.
    fn close_or_separator(&mut self, close: u8, what: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                // The container that just closed was an entry of its parent.
                self.first = false;
                Ok(true)
            }
            _ if self.first => {
                self.first = false;
                Ok(false)
            }
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.error(what)),
        }
    }

    /// Consumes the `{` of an object.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{', "expected an object")
    }

    /// The next key of the innermost object (its `:` consumed, so the value
    /// comes next), or `None` once the object's `}` has been consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.close_or_separator(b'}', "expected `,` or `}` in object")? {
            return Ok(None);
        }
        self.skip_ws();
        if self.peek_byte() != Some(b'"') {
            return Err(self.error("expected a string key in object"));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek_byte() != Some(b':') {
            return Err(self.error("expected `:` after object key"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Consumes the `[` of an array.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[', "expected an array")
    }

    /// Whether the innermost array has another element (positioned before
    /// it); `false` once the array's `]` has been consumed.
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        Ok(!self.close_or_separator(b']', "expected `,` or `]` in array")?)
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), JsonError> {
        self.start()?;
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// Consumes a `null`.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.literal(b"null")
    }

    /// Consumes a `true` or `false`.
    pub fn boolean(&mut self) -> Result<bool, JsonError> {
        if self.start()? == b't' {
            self.literal(b"true").map(|()| true)
        } else {
            self.literal(b"false").map(|()| false)
        }
    }

    /// Consumes a number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`,
    /// which must be finite as an `f64`.
    ///
    /// One pass checks the grammar and builds the value as a decimal
    /// significand `w` (its first 19 significant digits) times `10^q`. An
    /// exact `w` with `q` in the power-of-five window `[-27, 55]` converts
    /// with Eisel–Lemire; `w = 0` is ±0; a `q` below −342 or above 308 is 0
    /// or an overflow for any 19-digit `w`. Anything else — more than 19
    /// significant digits, or `q` between the window and those limits —
    /// parses the same text again with `str::parse`. Every path rounds to
    /// nearest, ties to even, so the result is bit-identical to
    /// `str::parse`, and the number is rejected where that returns infinity.
    /// The one exception: `str::parse` stops adding exponent digits once
    /// the exponent reaches 65,536, which matters only when a run of more
    /// than ~65,000 digits offsets it. `0.{100000 zeros}1e1000000`
    /// overflows here, where `str::parse` reads 0.1.
    pub fn number(&mut self) -> Result<f64, JsonError> {
        self.start()?;
        self.number_here()
    }

    /// Reads the elements of the innermost array into `out` while they are
    /// numbers. Returns `true` once the array's `]` has been consumed, or
    /// `false` with the cursor before the first element that is not a
    /// number, so the caller can report it as its own schema error.
    pub(crate) fn numbers_into(&mut self, out: &mut Vec<f64>) -> Result<bool, JsonError> {
        while self.next_element()? {
            if !matches!(self.start()?, b'-' | b'0'..=b'9') {
                // A byte no value starts with is a JSON error, as in `peek`.
                self.peek()?;
                return Ok(false);
            }
            out.push(self.number_here()?);
        }
        Ok(true)
    }

    /// The number whose first byte is at the cursor (see [`Reader::number`]).
    fn number_here(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek_byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // The value is `w · 10^q`, exactly unless significant digits past
        // the first `MAX_DIGITS` were dropped. Digit counts are bounded by
        // the input's length, so they fit an `i64`.
        let (mut w, mut kept) = (0u64, 0u32);
        let mut q = 0i64;
        let mut exact = true;
        match self.peek_byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                let dropped = self.digit_run(&mut w, &mut kept) - kept as usize;
                q = dropped as i64;
                exact = dropped == 0;
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek_byte() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                return Err(self.error("digit expected after decimal point"));
            }
            if kept == 0 {
                // Zeros before the first significant digit only scale.
                let zeros = self.bytes[self.pos..]
                    .iter()
                    .take_while(|&&b| b == b'0')
                    .count();
                self.pos += zeros;
                q -= zeros as i64;
            }
            let before = kept;
            let run = self.digit_run(&mut w, &mut kept);
            let taken = (kept - before) as usize;
            q -= taken as i64;
            exact &= run == taken;
        }
        if let Some(b'e' | b'E') = self.peek_byte() {
            self.pos += 1;
            let negative_exponent = self.peek_byte() == Some(b'-');
            if let Some(b'+' | b'-') = self.peek_byte() {
                self.pos += 1;
            }
            if !matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                return Err(self.error("digit expected in exponent"));
            }
            // Saturating, not capped: a long run of leading fraction zeros
            // can offset a huge exponent, so every digit must count.
            let mut e = 0i64;
            while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
                e = e.saturating_mul(10).saturating_add(i64::from(b - b'0'));
                self.pos += 1;
            }
            q = q.saturating_add(if negative_exponent { -e } else { e });
        }
        let magnitude = if w == 0 {
            0.0
        } else if exact && (MIN_Q..=MAX_Q).contains(&q) {
            f64::from_bits(eisel_lemire(w, q))
        } else if q < -342 {
            // Below 10¹⁹ · 10⁻³⁴³, under half the least subnormal.
            0.0
        } else if q > 308 {
            return Err(self.error_at(start, "number overflows f64"));
        } else {
            let n: f64 = std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|text| text.parse().ok())
                .ok_or_else(|| self.error_at(start, "number does not parse as f64"))?;
            if !n.is_finite() {
                return Err(self.error_at(start, "number overflows f64"));
            }
            return Ok(n);
        };
        Ok(if negative { -magnitude } else { magnitude })
    }

    /// Scans the run of digits at the cursor, appending them to the
    /// significand `w` (which holds `kept` digits) until it holds
    /// [`MAX_DIGITS`]; returns the length of the run.
    // Inlined so that `w` and `kept` stay in registers: instance decode
    // measured ~12% faster than with the out-of-line call.
    #[inline(always)]
    fn digit_run(&mut self, w: &mut u64, kept: &mut u32) -> usize {
        let run_start = self.pos;
        while *kept + 8 <= MAX_DIGITS {
            let Some(&chunk) = self.bytes[self.pos..].first_chunk::<8>() else {
                break;
            };
            let v = u64::from_le_bytes(chunk);
            if !eight_digits(v) {
                break;
            }
            *w = *w * 100_000_000 + eight_digit_value(v);
            *kept += 8;
            self.pos += 8;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            if *kept < MAX_DIGITS {
                *w = *w * 10 + u64::from(digit);
                *kept += 1;
            }
            self.pos += 1;
        }
        self.pos - run_start
    }

    /// Consumes a string, borrowing it from the input when it holds no
    /// escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.start()? != b'"' {
            return Err(self.error("expected a string"));
        }
        self.string()
    }

    /// The string whose opening quote is at the cursor.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.pos += 1; // opening '"'
        let mut segment = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match self.peek_byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let tail = self.raw_segment(segment)?;
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let raw = self.raw_segment(segment)?;
                    self.pos += 1;
                    let c = self.escape()?;
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(raw);
                    out.push(c);
                    segment = self.pos;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The raw bytes `start..pos` of a string as UTF-8. Segments end at a
    /// quote or backslash, which never sit inside a multi-byte character,
    /// so checking segment by segment validates the whole string.
    fn raw_segment(&self, start: usize) -> Result<&'a str, JsonError> {
        let bytes: &'a [u8] = self.bytes;
        std::str::from_utf8(&bytes[start..self.pos])
            .map_err(|e| self.error_at(start + e.valid_up_to(), "invalid UTF-8 in string"))
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self
            .peek_byte()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => Ok('"'),
            b'\\' => Ok('\\'),
            b'/' => Ok('/'),
            b'b' => Ok('\u{0008}'),
            b'f' => Ok('\u{000C}'),
            b'n' => Ok('\n'),
            b'r' => Ok('\r'),
            b't' => Ok('\t'),
            b'u' => self.unicode_escape(),
            _ => Err(self.error("unknown escape character")),
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek_byte()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a low surrogate escape must follow.
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.error("unpaired high surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else if (0xDC00..0xE000).contains(&hi) {
            return Err(self.error("unpaired low surrogate"));
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u code point"))
    }

    /// Consumes one value of any kind, validating it exactly as reading it
    /// would (grammar, depth, number range, UTF-8 inside strings) without
    /// building anything.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        // Bit `d` says whether the `d`-th container opened here is an
        // object; at most `MAX_DEPTH + 1` can be open at once.
        let mut objects: u128 = 0;
        let mut open = 0u32;
        loop {
            match self.peek()? {
                Kind::Null => self.null()?,
                Kind::Bool => {
                    self.boolean()?;
                }
                Kind::Number => {
                    self.number_here()?;
                }
                Kind::String => {
                    self.str()?;
                }
                Kind::Array => {
                    self.begin_array()?;
                    objects &= !(1 << open);
                    open += 1;
                }
                Kind::Object => {
                    self.begin_object()?;
                    objects |= 1 << open;
                    open += 1;
                }
            }
            // Step to the next value still to read, closing finished
            // containers on the way.
            loop {
                if open == 0 {
                    return Ok(());
                }
                let more = if objects >> (open - 1) & 1 == 1 {
                    self.next_key()?.is_some()
                } else {
                    self.next_element()?
                };
                if more {
                    break;
                }
                open -= 1;
            }
        }
    }

    /// Consumes one value of any kind into a [`JsonValue`] tree.
    pub fn value(&mut self) -> Result<JsonValue, JsonError> {
        Ok(match self.peek()? {
            Kind::Null => {
                self.null()?;
                JsonValue::Null
            }
            Kind::Bool => JsonValue::Bool(self.boolean()?),
            Kind::Number => JsonValue::Number(self.number_here()?),
            Kind::String => JsonValue::String(self.str()?.into_owned()),
            Kind::Array => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                JsonValue::Array(items)
            }
            Kind::Object => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let key = key.into_owned();
                    pairs.push((key, self.value()?));
                }
                JsonValue::Object(pairs)
            }
        })
    }
}

/// Significant digits a number's `u64` significand keeps (10¹⁹ − 1 < 2⁶⁴).
const MAX_DIGITS: u32 = 19;

/// Whether the eight bytes of `v` (loaded little-endian) are all ASCII
/// digits: no byte may carry into bit 7 when 0x46 is added, nor borrow when
/// `'0'` is subtracted.
fn eight_digits(v: u64) -> bool {
    let above = v.wrapping_add(0x4646_4646_4646_4646);
    let below = v.wrapping_sub(0x3030_3030_3030_3030);
    (above | below) & 0x8080_8080_8080_8080 == 0
}

/// The value of eight ASCII digits loaded little-endian (the first digit in
/// the low byte): adjacent digits merge into two-digit bytes, then two
/// multiplies weigh the four pairs into the top half of a sum.
fn eight_digit_value(v: u64) -> u64 {
    const PAIRS: u64 = 0x0000_00FF_0000_00FF;
    const PAIRS_0_2: u64 = 100 + (1_000_000 << 32);
    const PAIRS_1_3: u64 = 1 + (10_000 << 32);
    let v = v.wrapping_sub(0x3030_3030_3030_3030);
    let v = v.wrapping_mul(10).wrapping_add(v >> 8);
    let high = (v & PAIRS).wrapping_mul(PAIRS_0_2);
    let low = ((v >> 16) & PAIRS).wrapping_mul(PAIRS_1_3);
    (high.wrapping_add(low) >> 32) & 0xFFFF_FFFF
}

/// The decimal exponents Eisel–Lemire handles here. Inside this window the
/// 128-bit product always decides the rounding (5^q < 2¹²⁸ for `q ≥ 0`,
/// 5^−q < 2⁶⁴ for `q < 0`), and every `w · 10^q` with `1 ≤ w < 10¹⁹` is a
/// finite normal `f64`, so the conversion has no error, subnormal or
/// overflow branch.
const MIN_Q: i64 = -27;
const MAX_Q: i64 = 55;
const WINDOW: usize = (MAX_Q - MIN_Q + 1) as usize;

/// `5^q` for each `q` in `MIN_Q..=MAX_Q`, as 128 bits `(high, low)` with
/// the top bit set: for `q ≥ 0` the exact power, shifted; for `q < 0`,
/// `⌊2^(z+127) / 5^−q⌋ + 1`, where `z` is the bit length of `5^−q`.
static POW5: [(u64, u64); WINDOW] = pow5_window();

const fn pow5_window() -> [(u64, u64); WINDOW] {
    let mut table = [(0, 0); WINDOW];
    let mut i = 0;
    while i < table.len() {
        let q = MIN_Q + i as i64;
        let mut power = 1u128;
        let mut k = 0;
        while k < q.unsigned_abs() {
            power *= 5;
            k += 1;
        }
        let scaled = if q >= 0 {
            power << power.leading_zeros()
        } else {
            // 2^(z+127) = 2^(z+63) · 2⁶⁴: one long division in base 2⁶⁴.
            let z = 128 - power.leading_zeros();
            let top = 1u128 << (z + 63);
            let (quotient, remainder) = (top / power, top % power);
            ((quotient << 64) | ((remainder << 64) / power)) + 1
        };
        table[i] = ((scaled >> 64) as u64, scaled as u64);
        i += 1;
    }
    table
}

/// `w · 10^q` rounded to nearest, ties to even, as `f64` bits, for `w ≠ 0`
/// and `q` in `MIN_Q..=MAX_Q`: Eisel–Lemire (Lemire, "Number Parsing at a
/// Gigabyte per Second", 2021).
fn eisel_lemire(w: u64, q: i64) -> u64 {
    let (high5, low5) = POW5[(q - MIN_Q) as usize];
    let zeros = w.leading_zeros();
    let w = u128::from(w << zeros);
    let product = w * u128::from(high5);
    let (mut hi, mut lo) = ((product >> 64) as u64, product as u64);
    // The top 55 bits decide the result unless the 9 below them are all
    // ones: then add the low word's share of the product.
    if hi & 0x1FF == 0x1FF {
        let carry = ((w * u128::from(low5)) >> 64) as u64;
        lo = lo.wrapping_add(carry);
        if carry > lo {
            hi += 1;
        }
    }
    let top = (hi >> 63) as i32;
    let mut mantissa = hi >> (top + 9);
    // ⌊q · log₂10⌋ + 63, the binary exponent of the normalised product.
    let log2 = ((q as i32 * (152_170 + 65_536)) >> 16) + 63;
    let mut biased = log2 + top - zeros as i32 + 1023;
    // An exact halfway product (only possible for small `q`) rounds to even.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << (top + 9) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        biased += 1;
    }
    (biased as u64) << 52 | (mantissa & !(1 << 52))
}

/// Appends a JSON string literal (quotes + escapes) for `s` to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    // Writing into a `String` cannot fail.
    let _ = escape_into(out, s);
}

fn escape_into(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut plain = 0;
    for (at, c) in s.char_indices() {
        let escaped = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            '\u{0008}' => "\\b",
            '\u{000C}' => "\\f",
            c if (c as u32) < 0x20 => "",
            _ => continue,
        };
        out.write_str(&s[plain..at])?;
        if escaped.is_empty() {
            write!(out, "\\u{:04x}", c as u32)?;
        } else {
            out.write_str(escaped)?;
        }
        plain = at + c.len_utf8();
    }
    out.write_str(&s[plain..])?;
    out.write_char('"')
}

/// Appends the shortest round-trip decimal form of `v` to `out`
/// (non-finite values, which valid wire data never contains, become `null`).
pub fn write_f64(out: &mut String, v: f64) {
    // Writing into a `String` cannot fail.
    let _ = f64_into(out, v);
}

fn f64_into(out: &mut impl fmt::Write, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v}")
    } else {
        out.write_str("null")
    }
}

/// Appends `n` in decimal — the same text [`write_f64`] writes for
/// `f64::from(n)`.
pub fn write_u32(out: &mut String, n: u32) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{n}");
}

/// Appends `[x0,x1,…]`, each number written by [`write_f64`].
pub fn write_f64_array(out: &mut String, values: impl IntoIterator<Item = f64>) {
    out.push('[');
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(out, v);
    }
    out.push(']');
}

/// Appends `[n0,n1,…]`, each number written by [`write_u32`].
pub fn write_u32_array(out: &mut String, values: impl IntoIterator<Item = u32>) {
    out.push('[');
    for (i, n) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_u32(out, n);
    }
    out.push(']');
}

impl fmt::Display for JsonValue {
    /// Writes the value as compact JSON (no whitespace). The output parses
    /// back to an equal value; numbers round-trip bit-exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => f64_into(f, *n),
            JsonValue::String(s) => escape_into(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape_into(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Convenience: an object value from key/value pairs.
pub fn object(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Convenience: an array of numbers.
pub fn number_array(values: impl IntoIterator<Item = f64>) -> JsonValue {
    JsonValue::Array(values.into_iter().map(JsonValue::Number).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: f64) -> JsonValue {
        JsonValue::Number(v)
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("0").unwrap(), n(0.0));
        assert_eq!(parse("-12.5e2").unwrap(), n(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::String("hi".into()));
        assert_eq!(parse("  42  ").unwrap(), n(42.0));
    }

    #[test]
    fn parses_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_u32(), Some(1));
        assert!(a[2].get("b").unwrap().is_null());
    }

    #[test]
    fn string_escapes_round_trip() {
        let cases = [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand tab\t",
            "unicode: é λ 漢 🦀",
            "control:\u{0001}\u{001f}",
        ];
        for case in cases {
            let mut enc = String::new();
            write_escaped(&mut enc, case);
            assert_eq!(
                parse(&enc).unwrap(),
                JsonValue::String(case.to_string()),
                "round-trip failed for {case:?}"
            );
        }
        assert_eq!(
            parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            JsonValue::String("Aé😀".into())
        );
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.0,
            0.1,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            1e308,
            123_456_789.123_456_78,
            -2.2250738585072014e-308,
            999_999_999_999_999.0,
            9_007_199_254_740_993.0,
        ] {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "round-trip failed for {v}");
        }
    }

    #[test]
    fn hard_numbers_read_like_str_parse() {
        let zeros = |n: usize| "0".repeat(n);
        let agree = [
            // Integers take the q = 0 path; 2⁵³ ± 1.
            "0".to_string(),
            "7".into(),
            "-7".into(),
            "4294967295".into(),
            "999999999999999".into(),
            "1000000000000000".into(),
            "-123456789012345".into(),
            "9007199254740991".into(),
            "9007199254740992".into(),
            "9007199254740993".into(),
            "-9007199254740993".into(),
            "9007199254740993.0".into(),
            "9.007199254740993e15".into(),
            // Halfway between neighbours (ties to even), and just off it.
            "4503599627370496.5".into(),
            "4503599627370497.5".into(),
            "4503599627370496.4999999999".into(),
            "4503599627370496.5000000001".into(),
            "18014398509481986".into(),
            "18014398509481990".into(),
            "0.30000000000000004".into(),
            "2.5e-5".into(),
            // 19 significant digits stay exact; 20 fall back.
            "9999999999999999999".into(),
            "1234567890.123456789".into(),
            "18446744073709551615".into(),
            "18446744073709551616".into(),
            "0.12345678901234567890".into(),
            "123456789012345678901234567890e-10".into(),
            // Leading fraction zeros only scale.
            format!("0.{}123", zeros(12)),
            format!("0.{}123", zeros(300)),
            format!("0.{}1", zeros(330)),
            format!("-0.{}1", zeros(400)),
            // The edges of the power-of-five window.
            "1e-27".into(),
            "1e-28".into(),
            "9999999999999999999e-27".into(),
            "9999999999999999999e-28".into(),
            "1e55".into(),
            "1e56".into(),
            "9999999999999999999e55".into(),
            "12345e56".into(),
            // Subnormals and the normal/subnormal boundary.
            "5e-324".into(),
            "4.9406564584124654e-324".into(),
            "2.4703282292062327e-324".into(),
            "2.4703282292062328e-324".into(),
            "2.2250738585072011e-308".into(),
            "2.2250738585072014e-308".into(),
            "-2.225073858507201e-308".into(),
            "1e-400".into(),
            // The largest finite value, and text that still rounds to it.
            "1.7976931348623157e308".into(),
            "1.7976931348623158e308".into(),
            // Zeros keep their sign, whatever the exponent.
            "-0".into(),
            "0e999999999".into(),
            "-0.000e-99999999999999999999".into(),
            format!("0.{}", zeros(500)),
            "1e-99999999999999999999".into(),
        ];
        for text in &agree {
            let mut r = Reader::new(text.as_bytes());
            let read = r.number().unwrap_or_else(|e| panic!("{text}: {e}"));
            let parsed: f64 = text.parse().unwrap();
            assert_eq!(read.to_bits(), parsed.to_bits(), "{text}");
            assert_eq!(r.offset(), text.len(), "{text}");
        }

        let overflow = "number overflows f64";
        let reject = [
            ("1.7976931348623159e308".to_string(), 0, overflow),
            ("-1e999".into(), 0, overflow),
            ("1e309".into(), 0, overflow),
            ("1e99999999999999999999".into(), 0, overflow),
            (format!("1{}", zeros(309)), 0, overflow),
            // Every exponent digit counts: 10⁻¹⁰⁰⁰⁰¹ · 10¹⁰⁰⁰⁰⁰⁰ overflows.
            (format!("0.{}1e1000000", zeros(100_000)), 0, overflow),
            (" -".into(), 2, "invalid number"),
            (".5".into(), 0, "invalid number"),
            ("1.".into(), 2, "digit expected after decimal point"),
            ("-0.e1".into(), 3, "digit expected after decimal point"),
            ("1e".into(), 2, "digit expected in exponent"),
            ("1E+".into(), 3, "digit expected in exponent"),
            ("  ".into(), 2, "unexpected end of input"),
        ];
        for (text, offset, message) in &reject {
            let err = Reader::new(text.as_bytes()).number().unwrap_err();
            let shown = &text[..text.len().min(24)];
            assert_eq!(
                (err.offset, err.message.as_str()),
                (*offset, *message),
                "{shown}"
            );
        }
    }

    #[test]
    fn power_of_five_window_is_normalised() {
        assert_eq!(POW5.len(), 83);
        assert_eq!(POW5[(0 - MIN_Q) as usize], (0x8000_0000_0000_0000, 0));
        assert_eq!(
            POW5[(-1 - MIN_Q) as usize],
            (0xcccc_cccc_cccc_cccc, 0xcccc_cccc_cccc_cccd)
        );
        for (q, &(high, _)) in (MIN_Q..).zip(POW5.iter()) {
            assert!(high >> 63 == 1, "5^{q} is not normalised");
        }
        // 5^q for 0 ≤ q ≤ 27 fits one word, so its low word is zero.
        assert!(POW5[(-MIN_Q) as usize..=(27 - MIN_Q) as usize]
            .iter()
            .all(|&(_, low)| low == 0));
    }

    #[test]
    fn eight_digit_runs_read_at_once() {
        let word = |s: &[u8; 8]| u64::from_le_bytes(*s);
        assert!(eight_digits(word(b"01234567")));
        assert_eq!(eight_digit_value(word(b"01234567")), 1_234_567);
        assert_eq!(eight_digit_value(word(b"99999999")), 99_999_999);
        for bad in [
            b"0123456/",
            b"0123456:",
            b"a1234567",
            b"1234 678",
            b"\xb0\x30\x30\x30\x30\x30\x30\x30",
        ] {
            assert!(!eight_digits(word(bad)), "{bad:?}");
        }
        // A digit run longer than the significand keeps 19 digits and
        // scales by the rest.
        let text = format!("{}5", "1".repeat(40));
        let read = Reader::new(text.as_bytes()).number().unwrap();
        assert_eq!(read.to_bits(), text.parse::<f64>().unwrap().to_bits());
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "  ",
            "{",
            "}",
            "[1,",
            "[1,]",
            "[,1]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":{} \"b\":1}",
            "[[] 1]",
            "{a:1}",
            "nul",
            "truex",
            "01",
            "+1",
            "1.",
            ".5",
            "-",
            "1e",
            "1e+",
            "NaN",
            "Infinity",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "[1] trailing",
            "1e999",
            "-1e999",
            "\u{0007}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed {bad:?}");
            let mut r = Reader::new(bad.as_bytes());
            assert!(
                r.skip().and_then(|()| r.finish()).is_err(),
                "skip accepted malformed {bad:?}"
            );
        }
    }

    #[test]
    fn skip_validates_like_parse() {
        for text in [
            "null",
            "[1,[2,{\"a\":[]}],{}]",
            "{\"k\":\"v\\n\",\"z\":[true,false,-0.5e3]}",
            "[1,]",
            "{\"a\":{} \"b\":1}",
            "[1e999]",
            "{\"x\":\"\\ud800\"}",
            "[[[]]",
        ] {
            let mut r = Reader::new(text.as_bytes());
            let skipped = r.skip().and_then(|()| r.finish());
            assert_eq!(
                skipped.is_ok(),
                parse(text).is_ok(),
                "skip and parse disagree on {text:?}"
            );
        }
    }

    #[test]
    fn utf8_is_validated_inside_strings_only_where_needed() {
        // Valid multi-byte UTF-8 inside a string is accepted and borrowed.
        let mut r = Reader::new("\"é漢🦀\"".as_bytes());
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("é漢🦀")));
        for bad in [
            &b"\"\xff\""[..],
            b"\"ok\\n\xc3\"",
            b"{\"\xe2\x82\":1}",
            b"[\"a\", \"\xed\xa0\x80\"]",
            b"\xef\xbb\xbf{}",
            b"[1,\xc3\xa9]",
        ] {
            assert!(Reader::new(bad).skip().is_err(), "skip accepted {bad:?}");
            assert!(Reader::new(bad).value().is_err(), "value accepted {bad:?}");
        }
        let err = Reader::new(b"\"ab\xff\"").str().unwrap_err();
        assert_eq!(err.offset, 3);
        assert!(err.message.contains("UTF-8"));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep_ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&too_deep).unwrap_err();
        assert!(err.message.contains("MAX_DEPTH"));
        assert!(Reader::new(too_deep.as_bytes()).skip().is_err());
        let mut r = Reader::new(deep_ok.as_bytes());
        assert!(r.skip().is_ok() && r.finish().is_ok());
        // Empty containers at the deepest allowed level are fine too.
        let empty_ok = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&empty_ok).is_ok());
        assert!(Reader::new(empty_ok.as_bytes()).skip().is_ok());
    }

    #[test]
    fn reader_walks_objects_and_arrays() {
        let mut r = Reader::new(br#" { "a" : [ 1 , [ ] , "s" ] , "b\u0021" : { } } "#);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.peek().unwrap(), Kind::Number);
        assert_eq!(r.number().unwrap(), 1.0);
        assert!(r.next_element().unwrap());
        r.begin_array().unwrap();
        assert!(!r.next_element().unwrap());
        assert!(r.next_element().unwrap());
        assert_eq!(r.str().unwrap(), "s");
        assert!(!r.next_element().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b!"));
        assert_eq!(r.peek().unwrap(), Kind::Object);
        r.skip().unwrap();
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn numbers_into_stops_before_the_first_non_number() {
        let mut r = Reader::new(b"[1, -2.5e1 ,0.125] [] [3, \"x\"] [4, ?]");
        let mut out = Vec::new();
        r.begin_array().unwrap();
        assert!(r.numbers_into(&mut out).unwrap());
        r.begin_array().unwrap();
        assert!(r.numbers_into(&mut out).unwrap());
        assert_eq!(out, [1.0, -25.0, 0.125]);
        r.begin_array().unwrap();
        assert!(!r.numbers_into(&mut out).unwrap());
        assert_eq!(r.peek().unwrap(), Kind::String);
        assert_eq!(out, [1.0, -25.0, 0.125, 3.0]);
        let mut r = Reader::new(b"[4, ?]");
        r.begin_array().unwrap();
        let err = r.numbers_into(&mut out).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (4, "unexpected character")
        );
    }

    #[test]
    fn integer_accessors_check_range_and_fraction() {
        assert_eq!(n(7.0).as_u32(), Some(7));
        assert_eq!(n(7.5).as_u32(), None);
        assert_eq!(n(-1.0).as_u32(), None);
        assert_eq!(n(4294967295.0).as_u32(), Some(u32::MAX));
        assert_eq!(n(4294967296.0).as_u32(), None);
        assert_eq!(n(4294967296.0).as_u64(), Some(4294967296));
        assert_eq!(n(1e300).as_u64(), None);
        assert_eq!(JsonValue::Null.as_u32(), None);
    }

    #[test]
    fn display_writes_compact_json() {
        let v = object(vec![
            ("plan", n(1.0)),
            ("ok", JsonValue::Bool(true)),
            (
                "tags",
                JsonValue::Array(vec![JsonValue::String("a\"b".into())]),
            ),
            ("none", JsonValue::Null),
            ("k\u{1}\"", n(-0.0)),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            r#"{"plan":1,"ok":true,"tags":["a\"b"],"none":null,"k\u0001\"":-0}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn direct_number_writers_match_display() {
        for v in [0.0, -0.0, 5e-324, 1e308, 0.1, 4294967295.0, f64::NAN] {
            let mut direct = String::new();
            write_f64(&mut direct, v);
            assert_eq!(direct, n(v).to_string());
        }
        for k in [0u32, 1, 42, u32::MAX] {
            let mut direct = String::new();
            write_u32(&mut direct, k);
            assert_eq!(direct, n(f64::from(k)).to_string());
        }
        let mut arrays = String::new();
        write_f64_array(&mut arrays, [0.5, -0.0]);
        write_u32_array(&mut arrays, [3, 4]);
        write_u32_array(&mut arrays, []);
        assert_eq!(arrays, "[0.5,-0][3,4][]");
    }

    #[test]
    fn object_lookup_finds_first_match() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_u32), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("k"), None);
    }
}
