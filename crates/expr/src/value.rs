//! Typed constant values appearing in atomic conditions.
//!
//! Internet-source conditions in the paper compare attributes against string
//! constants (`$c`, `$m`) and numeric constants (`$p`). We support integers,
//! floats, strings and booleans with a *total* order so values can live in
//! ordered collections and be compared by range predicates deterministically.

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
    /// String constant, e.g. `"BMW"` in `make = "BMW"`. The payload is
    /// shared: cloning the value (shipping or projecting a row) bumps a
    /// reference count instead of copying the bytes.
    Str(Arc<str>),
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

    /// Convenience constructor: a `&str` is copied once into a shared
    /// payload, a `String` or `Arc<str>` is taken over.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
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

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
