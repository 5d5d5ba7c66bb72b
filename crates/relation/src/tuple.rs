//! Tuples and schema-aware rows.

use crate::schema::Schema;
use csqp_expr::semantics::AttrLookup;
use csqp_expr::Value;
use std::fmt;

/// A positional tuple; meaning comes from a paired [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Builds a tuple from values (arity checked by [`crate::relation::Relation`]).
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at a column index.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Projects to the given column indices, in the given order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple { values: indices.iter().map(|&i| self.values[i].clone()).collect() }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// A tuple paired with its schema: supports attribute lookup by name, so
/// condition trees evaluate directly against it.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    /// The schema.
    pub schema: &'a Schema,
    /// The tuple.
    pub tuple: &'a Tuple,
}

impl AttrLookup for Row<'_> {
    fn get_attr(&self, attr: &str) -> Option<&Value> {
        self.schema.col_index(attr).and_then(|i| self.tuple.get(i))
    }
}

impl Row<'_> {
    /// Writes the row as `(name=value, …)` — the exact bytes of its
    /// `Display`, which delegates here — into any [`fmt::Write`] sink,
    /// each value through [`Value::write_to`]. Serve renders its answer
    /// chunks through this, so no `format_args` runs per value.
    pub fn write_to<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        w.write_char('(')?;
        for (i, c) in self.schema.columns.iter().enumerate() {
            if i > 0 {
                w.write_str(", ")?;
            }
            w.write_str(&c.name)?;
            match self.tuple.get(i) {
                Some(v) => {
                    w.write_char('=')?;
                    v.write_to(w)?;
                }
                None => w.write_str("=?")?,
            }
        }
        w.write_char(')')
    }
}

impl fmt::Display for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_expr::atom::Atom;
    use csqp_expr::semantics::eval;
    use csqp_expr::{CondTree, ValueType};

    fn schema() -> std::sync::Arc<Schema> {
        Schema::new(
            "cars",
            vec![("vin", ValueType::Str), ("make", ValueType::Str), ("price", ValueType::Int)],
            &["vin"],
        )
        .unwrap()
    }

    fn bmw() -> Tuple {
        Tuple::new(vec![Value::str("v1"), Value::str("BMW"), Value::Int(35000)])
    }

    #[test]
    fn lookup_by_name() {
        let s = schema();
        let t = bmw();
        let row = Row { schema: &s, tuple: &t };
        assert_eq!(row.get_attr("make"), Some(&Value::str("BMW")));
        assert_eq!(row.get_attr("price"), Some(&Value::Int(35000)));
        assert_eq!(row.get_attr("missing"), None);
    }

    #[test]
    fn condition_evaluates_against_row() {
        let s = schema();
        let t = bmw();
        let row = Row { schema: &s, tuple: &t };
        let cond = CondTree::and(vec![
            CondTree::leaf(Atom::eq("make", "BMW")),
            CondTree::leaf(Atom::new("price", csqp_expr::CmpOp::Lt, 40000i64)),
        ]);
        assert!(eval(&cond, &row));
    }

    #[test]
    fn projection_reorders() {
        let t = bmw();
        let p = t.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(35000), Value::str("v1")]);
    }

    #[test]
    fn display() {
        let s = schema();
        let t = bmw();
        assert_eq!(
            Row { schema: &s, tuple: &t }.to_string(),
            "(vin=\"v1\", make=\"BMW\", price=35000)"
        );
    }
}
