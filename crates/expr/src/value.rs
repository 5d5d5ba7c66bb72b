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
/// `Text` hashes, compares, `Debug`s and renders exactly as the `str` it
/// holds, so fingerprints and rendered bytes do not depend on where the
/// bytes live.
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
    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("inline text is a whole str")
            }
            Repr::Shared(s) => s,
        }
    }

    /// The string's bytes, without re-checking UTF-8: equality and order
    /// of `str` are those of its bytes.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl std::ops::Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
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
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
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

    /// Writes the value's rendering — the exact bytes of its `Display` —
    /// into any [`fmt::Write`] sink. `Display` delegates here, so the two
    /// can never disagree. Integers, strings and booleans go out without a
    /// `format_args` round; only floats use the standard formatter.
    pub fn write_to<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        match self {
            Value::Int(i) => write_int(*i, w),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(w, "{x:.1}")
                } else {
                    write!(w, "{x}")
                }
            }
            Value::Str(s) => {
                let s = s.as_str();
                // Escapes `\` and `"` while writing: the unescaped runs
                // between them go out as borrowed slices, so rendering a
                // value allocates nothing.
                w.write_char('"')?;
                let mut run = 0;
                // Both are ASCII, so a byte match is always a char boundary.
                for (i, b) in s.bytes().enumerate() {
                    if b == b'\\' || b == b'"' {
                        w.write_str(&s[run..i])?;
                        w.write_char('\\')?;
                        run = i;
                    }
                }
                w.write_str(&s[run..])?;
                w.write_char('"')
            }
            Value::Bool(b) => w.write_str(if *b { "true" } else { "false" }),
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
        self.write_to(f)
    }
}

/// Writes `i` in decimal, as `{i}` would, from a stack buffer.
fn write_int<W: fmt::Write>(i: i64, w: &mut W) -> fmt::Result {
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
    w.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
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
                assert_eq!(&*t, s);
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
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
