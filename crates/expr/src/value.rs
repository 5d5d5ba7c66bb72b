//! Typed constant values appearing in atomic conditions.
//!
//! Internet-source conditions in the paper compare attributes against string
//! constants (`$c`, `$m`) and numeric constants (`$p`). We support integers,
//! floats, strings and booleans with a *total* order so values can live in
//! ordered collections and be compared by range predicates deterministically.
//! A string's bytes are a [`Text`]: inline in the value when short, shared
//! when long, so the values of a relation's rows are cheap to clone and
//! read in place.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a [`Value`], used by SSDL typed placeholders (`$int`,
/// `$float`, `$str`, `$bool`) to constrain which constants a source accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (totally ordered via `f64::total_cmp`).
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Float => write!(f, "float"),
            ValueType::Str => write!(f, "str"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

/// Longest string, in bytes, that a [`Text`] stores inline.
pub const INLINE_TEXT: usize = 22;

/// The payload of a [`Value::Str`]: a string of at most [`INLINE_TEXT`]
/// bytes sits in the value itself, so cloning, comparing or rendering it
/// follows no pointer and touches no reference count; a longer one is a
/// shared `Arc<str>`, whose clone bumps a count instead of copying bytes.
///
/// Its UTF-8 is checked once, when it is built from a `str`; rendering,
/// hashing and comparing then read its bytes. `Text` hashes, compares,
/// `Debug`s and renders exactly as the `str` it holds, so fingerprints and
/// rendered bytes do not depend on where the bytes live.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is valid UTF-8: only [`Text::from`] a `str` fills it.
    Inline {
        len: u8,
        bytes: [u8; INLINE_TEXT],
    },
    Shared(Arc<str>),
}

impl Text {
    /// The string. An inline payload re-checks its UTF-8 on every call;
    /// rendering, hashing and comparing read [`Text::as_bytes`] instead.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("inline text is a whole str")
            }
            Repr::Shared(s) => s,
        }
    }

    /// The string's UTF-8 bytes, checked once when the text was built.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Is the string empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        if s.len() > INLINE_TEXT {
            return Text(Repr::Shared(s.into()));
        }
        let mut bytes = [0u8; INLINE_TEXT];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Text(Repr::Inline { len: s.len() as u8, bytes })
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        if s.len() > INLINE_TEXT {
            Text(Repr::Shared(s.into()))
        } else {
            Text::from(s.as_str())
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    /// What `Hash for str` writes: the bytes, then `0xff` (a byte no UTF-8
    /// string holds), so the encoding stays prefix-free.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// A typed constant.
///
/// `Value` implements [`Eq`], [`Ord`] and [`Hash`] with a total order:
/// values of different types order by type tag first, and floats use
/// `total_cmp` (so `NaN` is admissible, ordering after all other floats).
#[derive(Debug, Clone)]
pub enum Value {
    /// Integer constant, e.g. `40000` in `price < 40000`.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// String constant, e.g. `"BMW"` in `make = "BMW"`. A short payload
    /// lives inline in the value, a long one is shared (see [`Text`]).
    Str(Text),
    /// Boolean constant.
    Bool(bool),
}

impl Value {
    /// The [`ValueType`] tag of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Convenience constructor: a string of at most [`INLINE_TEXT`] bytes
    /// is copied inline, a longer one into (or as) a shared payload.
    pub fn str(s: impl Into<Text>) -> Self {
        Value::Str(s.into())
    }

    /// Appends the value's rendering — the exact bytes of its `Display`,
    /// which delegates here — to `out`. Integers, strings and booleans go
    /// out as bytes with no UTF-8 check; only floats use the standard
    /// formatter. A string with nothing to escape is one copy.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        match self {
            Value::Int(i) => write_int(*i, out),
            Value::Float(x) => {
                let written = if x.fract() == 0.0 && x.is_finite() {
                    write!(out, "{x:.1}")
                } else {
                    write!(out, "{x}")
                };
                written.expect("writing to a Vec cannot fail");
            }
            Value::Str(s) => {
                let s = s.as_bytes();
                out.push(b'"');
                if s.iter().any(|&b| b == b'\\' || b == b'"') {
                    // Both are ASCII and no byte of a multi-byte char is,
                    // so escaping byte by byte keeps every char whole.
                    for &b in s {
                        if b == b'\\' || b == b'"' {
                            out.push(b'\\');
                        }
                        out.push(b);
                    }
                } else {
                    out.extend_from_slice(s);
                }
                out.push(b'"');
            }
            Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        }
    }

    /// Compares two values of possibly different types.
    ///
    /// Int and Float cross-compare numerically (so `price < 40000` matches a
    /// float-typed column); otherwise, different types compare by type tag.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => self.value_type().cmp(&other.value_type()),
        }
    }

    /// Numeric equality-aware comparison used by predicate evaluation:
    /// `Int(3)` equals `Float(3.0)`.
    pub fn sem_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality: Int(3) != Float(3.0) here (they hash
        // differently); use `sem_eq` for predicate semantics.
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        // Structural order consistent with Eq: order by type tag, then value.
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => self.value_type().cmp(&other.value_type()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.value_type().hash(state);
        match self {
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_bytes(f, |out| self.write_to(out))
    }
}

/// Writes what `render` appends to a byte buffer into `f` as one `str`,
/// checking its UTF-8 once: how `Display` runs a byte writer
/// ([`Value::write_to`], a relation row's `write_to`), so the displayed and
/// the written bytes are the same. The buffer is kept per thread and
/// reused, so a `Display` allocates nothing once it is warm.
pub fn display_bytes(f: &mut fmt::Formatter<'_>, render: impl FnOnce(&mut Vec<u8>)) -> fmt::Result {
    thread_local! {
        static BUF: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
    }
    // Taken, not borrowed: a `Display` nested inside `f` gets a fresh
    // buffer instead of a conflict.
    let mut buf = BUF.take();
    buf.clear();
    render(&mut buf);
    let written = f.write_str(std::str::from_utf8(&buf).expect("a rendering is UTF-8"));
    // A rare huge rendering is not kept for the thread's lifetime.
    if buf.capacity() <= 4096 {
        BUF.set(buf);
    }
    written
}

/// Appends `i` in decimal, as `{i}` would, from a stack buffer.
fn write_int(i: i64, out: &mut Vec<u8>) {
    // 19 digits for |i64::MIN| plus a sign.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend_from_slice(&buf[at..]);
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn type_tags() {
        assert_eq!(Value::Int(1).value_type(), ValueType::Int);
        assert_eq!(Value::Float(1.0).value_type(), ValueType::Float);
        assert_eq!(Value::str("x").value_type(), ValueType::Str);
        assert_eq!(Value::Bool(true).value_type(), ValueType::Bool);
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.0)), Ordering::Equal);
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.5)), Ordering::Less);
        assert_eq!(Value::Float(4.0).total_cmp(&Value::Int(3)), Ordering::Greater);
        assert!(Value::Int(3).sem_eq(&Value::Float(3.0)));
        // Structural equality distinguishes them.
        assert_ne!(Value::Int(3), Value::Float(3.0));
    }

    #[test]
    fn string_ordering() {
        assert!(Value::str("abc") < Value::str("abd"));
        assert_eq!(Value::str("abc"), Value::str("abc"));
    }

    #[test]
    fn nan_is_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan, Value::Float(f64::NAN));
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn hash_consistent_with_eq() {
        assert_eq!(hash_of(&Value::str("a")), hash_of(&Value::str("a")));
        // A shared payload hashes as the owned `String` it replaced, so
        // fingerprints did not move.
        let mut owned = DefaultHasher::new();
        ValueType::Str.hash(&mut owned);
        "a\"b".to_string().hash(&mut owned);
        assert_eq!(hash_of(&Value::str("a\"b")), owned.finish());
        assert_eq!(hash_of(&Value::Float(2.5)), hash_of(&Value::Float(2.5)));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0)); // bitwise structural eq
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(42).to_string(), "42");
        for i in [0, 7, -7, 10, 99, 100, -101, 1_000_000, i64::MIN, i64::MAX] {
            assert_eq!(Value::Int(i).to_string(), format!("{i}"));
        }
        assert_eq!(Value::str("BMW").to_string(), "\"BMW\"");
        assert_eq!(Value::str("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
    }

    /// The allocating formatter `Display` replaced, kept as the oracle.
    fn replace_rendering(s: &str) -> String {
        format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
    }

    #[test]
    fn string_rendering_is_byte_identical_to_the_replace_oracle() {
        for s in [
            "",
            "plain",
            "a\"b",
            "a\\b",
            "\\\"",
            "\"\\",
            "\"\"\\\\",
            "trailing\\",
            "\"leading",
            "ünï\"cødé\\ 日本語 🚗",
            "é\\",
        ] {
            assert_eq!(Value::str(s).to_string(), replace_rendering(s), "{s:?}");
        }
    }

    fn hash_str(s: &str) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    fn hash_text(t: &Text) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn text_stores_up_to_22_bytes_inline() {
        let at_limit = "a".repeat(INLINE_TEXT);
        let over = "b".repeat(INLINE_TEXT + 1);
        for (s, inline) in [("", true), (at_limit.as_str(), true), (over.as_str(), false)] {
            for t in [Text::from(s), Text::from(s.to_string())] {
                assert_eq!(t.is_inline(), inline, "{} bytes", s.len());
                assert_eq!(t.as_str(), s);
                assert_eq!(t.as_bytes(), s.as_bytes());
                assert_eq!((t.len(), t.is_empty()), (s.len(), s.is_empty()));
            }
        }
        // A multi-byte char whose bytes straddle byte 22 cannot be split:
        // 21 ASCII bytes plus a 2-byte 'é' is 23 bytes, so it is shared.
        let straddle = format!("{}é", "x".repeat(21));
        assert_eq!(straddle.len(), 23);
        assert!(!Text::from(straddle.as_str()).is_inline());
        assert_eq!(Text::from(straddle.as_str()).as_str(), straddle);
        let fits = format!("{}é", "x".repeat(20));
        assert!(Text::from(fits.as_str()).is_inline());
        assert_eq!(Text::from(fits.as_str()).as_str(), fits);
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn text_hashes_orders_and_renders_as_str() {
        let long = "a long string that is shared \"quoted\" é 日本";
        let all =
            ["", "a", "ab", "b", "BMW", "é", "日本語", "a\"b\\", "aaaaaaaaaaaaaaaaaaaaaa", long];
        for x in all {
            let tx = Text::from(x);
            assert_eq!(hash_text(&tx), hash_str(x), "{x:?}");
            assert_eq!(format!("{tx:?}"), format!("{x:?}"));
            assert_eq!(format!("{tx}"), x);
            assert_eq!(format!("{:?}", Value::str(x)), format!("Str({x:?})"));
            for y in all {
                let ty = Text::from(y);
                assert_eq!(tx.cmp(&ty), x.cmp(y), "{x:?} vs {y:?}");
                assert_eq!(tx == ty, x == y);
            }
        }
        // Inline against shared, same bytes: equal, in both directions.
        let shared = Text(Repr::Shared("BMW".into()));
        assert_eq!(shared, Text::from("BMW"));
        assert_eq!(hash_text(&shared), hash_text(&Text::from("BMW")));
    }

    #[test]
    fn text_hashes_as_its_str_inline_and_shared() {
        let long = "x".repeat(INLINE_TEXT + 1);
        for s in ["", "BMW", "日本語", "a\"b\\", long.as_str()] {
            for t in [Text::from(s), Text(Repr::Shared(s.into()))] {
                assert_eq!(hash_text(&t), hash_str(s), "{s:?}");
            }
        }
        assert!(Text::from("BMW").is_inline());
        assert!(!Text::from(long.as_str()).is_inline());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
