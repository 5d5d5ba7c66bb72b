//! Relation schemas: named, typed columns plus a declared key.
//!
//! The key matters for mediator-plan correctness: intersection-combined
//! plans operate on projections and are exact only when the projection
//! functionally determines condition satisfaction (see csqp-plan's executor
//! documentation). Workload queries therefore always project the key.

use csqp_expr::ValueType;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

/// A relation schema.
#[derive(Clone)]
pub struct Schema {
    /// Relation name.
    pub name: String,
    /// Ordered columns.
    pub columns: Vec<Column>,
    /// Names of the key columns (unique row identity). May be empty for
    /// keyless intermediate results.
    pub key: Vec<String>,
    /// What a row renders before each value, built on the first render.
    prefixes: RowPrefixes,
}

/// The bytes a row of a schema renders before its value in each column —
/// `name=` for the first, `, name=` for each later one — built once, on
/// the schema's first rendered row, and read by every row after it. A
/// clone starts empty, so it is built from the clone's own columns.
#[derive(Default)]
struct RowPrefixes(OnceLock<Box<[Box<[u8]>]>>);

impl Clone for RowPrefixes {
    fn clone(&self) -> Self {
        RowPrefixes::default()
    }
}

// The prefixes are derived from `columns`: equality and `Debug` leave
// them out, as the derived impls before them did.
impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.columns == other.columns && self.key == other.key
    }
}

impl Eq for Schema {}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schema")
            .field("name", &self.name)
            .field("columns", &self.columns)
            .field("key", &self.key)
            .finish()
    }
}

/// Errors raised by schema operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A referenced column does not exist.
    UnknownColumn {
        /// Schema name.
        schema: String,
        /// The missing column.
        column: String,
    },
    /// Two relations were combined with incompatible schemas.
    Incompatible {
        /// Left schema name.
        left: String,
        /// Right schema name.
        right: String,
    },
    /// Duplicate column name in a schema definition.
    DuplicateColumn(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownColumn { schema, column } => {
                write!(f, "schema `{schema}` has no column `{column}`")
            }
            SchemaError::Incompatible { left, right } => {
                write!(f, "schemas `{left}` and `{right}` are incompatible")
            }
            SchemaError::DuplicateColumn(c) => write!(f, "duplicate column `{c}`"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl Schema {
    /// Builds a schema; key columns must exist and column names be unique.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<(&str, ValueType)>,
        key: &[&str],
    ) -> Result<Arc<Schema>, SchemaError> {
        let name = name.into();
        let columns: Vec<Column> =
            columns.into_iter().map(|(n, ty)| Column { name: n.to_string(), ty }).collect();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(SchemaError::DuplicateColumn(c.name.clone()));
            }
        }
        let schema = Schema {
            name: name.clone(),
            columns,
            key: key.iter().map(|s| s.to_string()).collect(),
            prefixes: RowPrefixes::default(),
        };
        for k in &schema.key {
            if schema.col_index(k).is_none() {
                return Err(SchemaError::UnknownColumn { schema: name, column: k.clone() });
            }
        }
        Ok(Arc::new(schema))
    }

    /// Index of a column by name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column, by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.col_index(name).map(|i| &self.columns[i])
    }

    /// All column names, in order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }

    /// Does the schema contain all the named columns?
    pub fn contains_all<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> bool {
        names.into_iter().all(|n| self.col_index(n).is_some())
    }

    /// The schema resulting from projecting to `attrs` (order follows the
    /// original schema; key is retained only if fully included).
    pub fn project(&self, attrs: &[&str]) -> Result<Arc<Schema>, SchemaError> {
        for a in attrs {
            if self.col_index(a).is_none() {
                return Err(SchemaError::UnknownColumn {
                    schema: self.name.clone(),
                    column: (*a).to_string(),
                });
            }
        }
        let columns: Vec<Column> =
            self.columns.iter().filter(|c| attrs.contains(&c.name.as_str())).cloned().collect();
        let key = if self.key.iter().all(|k| attrs.contains(&k.as_str())) {
            self.key.clone()
        } else {
            Vec::new()
        };
        Ok(Arc::new(Schema {
            name: format!("{}_proj", self.name),
            columns,
            key,
            prefixes: RowPrefixes::default(),
        }))
    }

    /// What a row renders before its value in each column, in order:
    /// `name=` for the first column, `, name=` for each later one. Built
    /// on the first call; every later call, from any thread, reads it.
    pub(crate) fn row_prefixes(&self) -> &[Box<[u8]>] {
        self.prefixes.0.get_or_init(|| {
            let prefix = |(i, c): (usize, &Column)| {
                let sep: &[u8] = if i == 0 { b"" } else { b", " };
                [sep, c.name.as_bytes(), b"="].concat().into_boxed_slice()
            };
            self.columns.iter().enumerate().map(prefix).collect()
        })
    }

    /// Structural compatibility for union/intersection: same column names
    /// and types in the same order.
    pub fn compatible_with(&self, other: &Schema) -> bool {
        self.columns == other.columns
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cars() -> Arc<Schema> {
        Schema::new(
            "cars",
            vec![("vin", ValueType::Str), ("make", ValueType::Str), ("price", ValueType::Int)],
            &["vin"],
        )
        .unwrap()
    }

    #[test]
    fn lookup() {
        let s = cars();
        assert_eq!(s.col_index("make"), Some(1));
        assert_eq!(s.col_index("nope"), None);
        assert_eq!(s.column("price").unwrap().ty, ValueType::Int);
        assert!(s.contains_all(["vin", "price"]));
        assert!(!s.contains_all(["vin", "nope"]));
    }

    #[test]
    fn unknown_key_rejected() {
        let e = Schema::new("x", vec![("a", ValueType::Int)], &["b"]).unwrap_err();
        assert!(matches!(e, SchemaError::UnknownColumn { .. }));
    }

    #[test]
    fn duplicate_column_rejected() {
        let e =
            Schema::new("x", vec![("a", ValueType::Int), ("a", ValueType::Str)], &[]).unwrap_err();
        assert_eq!(e, SchemaError::DuplicateColumn("a".into()));
    }

    #[test]
    fn projection_keeps_order_and_key() {
        let s = cars();
        let p = s.project(&["price", "vin"]).unwrap();
        // Original column order, not request order.
        assert_eq!(p.columns[0].name, "vin");
        assert_eq!(p.columns[1].name, "price");
        assert_eq!(p.key, vec!["vin"]);
        // Dropping the key clears it.
        let q = s.project(&["make"]).unwrap();
        assert!(q.key.is_empty());
    }

    #[test]
    fn projection_unknown_column() {
        assert!(cars().project(&["nope"]).is_err());
    }

    #[test]
    fn compatibility() {
        let a = cars();
        let b = Schema::new(
            "other",
            vec![("vin", ValueType::Str), ("make", ValueType::Str), ("price", ValueType::Int)],
            &[],
        )
        .unwrap();
        assert!(a.compatible_with(&b));
        let c = Schema::new("c", vec![("vin", ValueType::Str)], &[]).unwrap();
        assert!(!a.compatible_with(&c));
    }

    #[test]
    fn display() {
        assert_eq!(cars().to_string(), "cars(vin: str, make: str, price: int)");
    }
}
