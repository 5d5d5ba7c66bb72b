//! Atomic conditions — the leaves of condition trees (§3 of the paper).
//!
//! An atomic condition is `attr op constant`, e.g. `make = "BMW"` or
//! `price < 40000`. `contains` covers the bookstore-style keyword search
//! (`title contains "dreams"`).

use crate::value::{Value, ValueType};
use std::fmt;

/// Comparison operator of an atomic condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `contains` — substring match on string attributes.
    Contains,
}

impl CmpOp {
    /// All operators, in display order.
    pub const ALL: [CmpOp; 7] =
        [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Contains];

    /// The token used in the text syntax and in SSDL rules.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Contains => "contains",
        }
    }

    /// Parses an operator token.
    pub fn from_symbol(s: &str) -> Option<CmpOp> {
        Self::ALL.into_iter().find(|op| op.symbol() == s)
    }

    /// Applies the operator to a stored attribute value and the condition
    /// constant. Returns `false` on type mismatches that make the comparison
    /// meaningless (e.g. `contains` on an integer).
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => lhs.sem_eq(rhs),
            CmpOp::Ne => !lhs.sem_eq(rhs),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                // Ordering comparisons are only meaningful within numeric
                // types or between strings.
                let comparable = matches!(
                    (lhs.value_type(), rhs.value_type()),
                    (ValueType::Int | ValueType::Float, ValueType::Int | ValueType::Float)
                        | (ValueType::Str, ValueType::Str)
                );
                if !comparable {
                    return false;
                }
                let ord = lhs.total_cmp(rhs);
                match self {
                    CmpOp::Lt => ord == Less,
                    CmpOp::Le => ord != Greater,
                    CmpOp::Gt => ord == Greater,
                    CmpOp::Ge => ord != Less,
                    _ => unreachable!(),
                }
            }
            CmpOp::Contains => match (lhs, rhs) {
                (Value::Str(haystack), Value::Str(needle)) => haystack
                    .as_str()
                    .to_ascii_lowercase()
                    .contains(&needle.as_str().to_ascii_lowercase()),
                _ => false,
            },
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An atomic condition `attr op value` — a leaf of a condition tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Attribute (column) name the condition constrains.
    pub attr: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant compared against.
    pub value: Value,
}

impl Atom {
    /// Builds an atom.
    pub fn new(attr: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Atom { attr: attr.into(), op, value: value.into() }
    }

    /// Shorthand for an equality atom.
    pub fn eq(attr: impl Into<String>, value: impl Into<Value>) -> Self {
        Atom::new(attr, CmpOp::Eq, value)
    }

    /// Evaluates the atom against a stored value for `self.attr`.
    pub fn eval_against(&self, stored: &Value) -> bool {
        self.op.eval(stored, &self.value)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attr, self.op, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_round_trip() {
        for op in CmpOp::ALL {
            assert_eq!(CmpOp::from_symbol(op.symbol()), Some(op));
        }
        assert_eq!(CmpOp::from_symbol("=="), None);
    }

    #[test]
    fn eq_and_ne() {
        assert!(CmpOp::Eq.eval(&Value::str("BMW"), &Value::str("BMW")));
        assert!(!CmpOp::Eq.eval(&Value::str("BMW"), &Value::str("Toyota")));
        assert!(CmpOp::Ne.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Eq.eval(&Value::Int(3), &Value::Float(3.0)));
    }

    #[test]
    fn range_operators() {
        assert!(CmpOp::Lt.eval(&Value::Int(19999), &Value::Int(20000)));
        assert!(!CmpOp::Lt.eval(&Value::Int(20000), &Value::Int(20000)));
        assert!(CmpOp::Le.eval(&Value::Int(20000), &Value::Int(20000)));
        assert!(CmpOp::Gt.eval(&Value::Float(40000.5), &Value::Int(40000)));
        assert!(CmpOp::Ge.eval(&Value::str("b"), &Value::str("a")));
    }

    #[test]
    fn range_on_mismatched_types_is_false() {
        assert!(!CmpOp::Lt.eval(&Value::str("a"), &Value::Int(1)));
        assert!(!CmpOp::Ge.eval(&Value::Bool(true), &Value::Bool(false)));
    }

    #[test]
    fn contains_is_case_insensitive_substring() {
        let title = Value::str("The Interpretation of Dreams");
        assert!(CmpOp::Contains.eval(&title, &Value::str("dreams")));
        assert!(CmpOp::Contains.eval(&title, &Value::str("Interpretation")));
        assert!(!CmpOp::Contains.eval(&title, &Value::str("jung")));
        assert!(!CmpOp::Contains.eval(&Value::Int(5), &Value::str("5")));
    }

    #[test]
    fn atom_eval_and_display() {
        let a = Atom::new("price", CmpOp::Lt, 40000i64);
        assert!(a.eval_against(&Value::Int(30000)));
        assert!(!a.eval_against(&Value::Int(50000)));
        assert_eq!(a.to_string(), "price < 40000");
        assert_eq!(Atom::eq("make", "BMW").to_string(), "make = \"BMW\"");
    }
}
