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
///
/// A row may see its tuple through a projection — the column positions,
/// in schema order, of the tuple values it shows — so a batch that
/// selects and projects over shared rows hands out rows without building
/// a projected tuple. Every method reads the row as the tuple
/// [`Row::to_tuple`] would build.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    schema: &'a Schema,
    tuple: &'a Tuple,
    cols: Option<&'a [usize]>,
}

impl<'a> Row<'a> {
    /// The whole tuple as a row of `schema`.
    pub fn new(schema: &'a Schema, tuple: &'a Tuple) -> Self {
        Row { schema, tuple, cols: None }
    }

    /// `tuple` seen through `cols` (`None`: the whole tuple).
    pub fn projected(schema: &'a Schema, tuple: &'a Tuple, cols: Option<&'a [usize]>) -> Self {
        Row { schema, tuple, cols }
    }

    /// The value in column `i` of the row's schema.
    pub fn get(&self, i: usize) -> Option<&'a Value> {
        match self.cols {
            None => self.tuple.get(i),
            Some(cols) => cols.get(i).and_then(|&j| self.tuple.get(j)),
        }
    }

    /// [`tuple_fingerprint`](crate::relation::tuple_fingerprint) of
    /// [`Row::to_tuple`], computed without building it.
    pub fn fingerprint(&self) -> u64 {
        match self.cols {
            None => crate::relation::tuple_fingerprint(self.tuple),
            Some(cols) => crate::relation::projected_fingerprint(self.tuple, cols),
        }
    }

    /// Does the row hold exactly `t`'s values?
    pub fn matches(&self, t: &Tuple) -> bool {
        match self.cols {
            None => self.tuple == t,
            Some(cols) => {
                cols.len() == t.arity()
                    && cols.iter().zip(t.values()).all(|(&j, v)| self.tuple.values()[j] == *v)
            }
        }
    }

    /// The row as an owned tuple.
    pub fn to_tuple(&self) -> Tuple {
        match self.cols {
            None => self.tuple.clone(),
            Some(cols) => self.tuple.project(cols),
        }
    }
}

impl AttrLookup for Row<'_> {
    fn get_attr(&self, attr: &str) -> Option<&Value> {
        self.schema.col_index(attr).and_then(|i| self.get(i))
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
            match self.get(i) {
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
        let row = Row::new(&s, &t);
        assert_eq!(row.get_attr("make"), Some(&Value::str("BMW")));
        assert_eq!(row.get_attr("price"), Some(&Value::Int(35000)));
        assert_eq!(row.get_attr("missing"), None);
    }

    #[test]
    fn condition_evaluates_against_row() {
        let s = schema();
        let t = bmw();
        let row = Row::new(&s, &t);
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
        assert_eq!(Row::new(&s, &t).to_string(), "(vin=\"v1\", make=\"BMW\", price=35000)");
    }
}
