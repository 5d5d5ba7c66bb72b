//! Relational operators used by sources and by mediator postprocessing:
//! selection, projection, union, intersection, difference (§3: "the
//! postprocessing operations at a mediator include selection, projection,
//! intersection and union").

use crate::relation::Relation;
use crate::schema::SchemaError;
use csqp_expr::semantics::eval;
use csqp_expr::CondTree;

/// `σ_C(R)` — tuples satisfying the condition (`None` = true).
pub fn select(r: &Relation, cond: Option<&CondTree>) -> Relation {
    let mut out = Relation::empty(r.schema().clone());
    for row in r.rows() {
        let keep = match cond {
            None => true,
            Some(c) => eval(c, &row),
        };
        if keep {
            out.insert(row.to_tuple());
        }
    }
    out
}

/// `π_A(R)` — projection with set semantics (duplicates collapse).
/// Output column order follows the input schema. Requested attributes not
/// present in the schema are an error.
pub fn project(r: &Relation, attrs: &[&str]) -> Result<Relation, SchemaError> {
    let schema = r.schema().project(attrs)?;
    let indices: Vec<usize> = schema
        .columns
        .iter()
        .map(|c| r.schema().col_index(&c.name).expect("projected column exists"))
        .collect();
    let mut out = Relation::empty(schema);
    for t in r.tuples() {
        out.insert(t.project(&indices));
    }
    Ok(out)
}

/// `R ∪ S` (set union; schemas must be compatible).
pub fn union(a: &Relation, b: &Relation) -> Result<Relation, SchemaError> {
    a.check_compatible(b)?;
    let mut out = Relation::empty(a.schema().clone());
    for t in a.tuples().iter().chain(b.tuples()) {
        out.insert(t.clone());
    }
    Ok(out)
}

/// `R ∩ S` (set intersection; schemas must be compatible).
pub fn intersect(a: &Relation, b: &Relation) -> Result<Relation, SchemaError> {
    a.check_compatible(b)?;
    let mut out = Relation::empty(a.schema().clone());
    for t in a.tuples() {
        if b.contains(t) {
            out.insert(t.clone());
        }
    }
    Ok(out)
}

/// `R − S` (set difference; schemas must be compatible).
pub fn difference(a: &Relation, b: &Relation) -> Result<Relation, SchemaError> {
    a.check_compatible(b)?;
    let mut out = Relation::empty(a.schema().clone());
    for t in a.tuples() {
        if !b.contains(t) {
            out.insert(t.clone());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use csqp_expr::atom::Atom;
    use csqp_expr::parse::parse_condition;
    use csqp_expr::{CmpOp, Value, ValueType};

    fn cars() -> Relation {
        let schema = Schema::new(
            "cars",
            vec![
                ("vin", ValueType::Str),
                ("make", ValueType::Str),
                ("color", ValueType::Str),
                ("price", ValueType::Int),
            ],
            &["vin"],
        )
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec![Value::str("v1"), Value::str("BMW"), Value::str("red"), Value::Int(35000)],
                vec![Value::str("v2"), Value::str("BMW"), Value::str("black"), Value::Int(45000)],
                vec![Value::str("v3"), Value::str("Toyota"), Value::str("red"), Value::Int(18000)],
                vec![Value::str("v4"), Value::str("Toyota"), Value::str("blue"), Value::Int(22000)],
            ],
        )
    }

    #[test]
    fn select_by_condition() {
        let r = cars();
        let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        let s = select(&r, Some(&c));
        assert_eq!(s.len(), 1);
        assert_eq!(s.tuples()[0].get(0), Some(&Value::str("v1")));
        // true-condition select returns everything.
        assert_eq!(select(&r, None).len(), 4);
    }

    #[test]
    fn select_disjunction() {
        let r = cars();
        let c = parse_condition("color = \"red\" _ color = \"black\"").unwrap();
        assert_eq!(select(&r, Some(&c)).len(), 3);
    }

    #[test]
    fn project_dedups() {
        let r = cars();
        let p = project(&r, &["make"]).unwrap();
        assert_eq!(p.len(), 2); // BMW, Toyota
        assert!(project(&r, &["nope"]).is_err());
    }

    #[test]
    fn project_keeps_schema_order() {
        let r = cars();
        let p = project(&r, &["price", "vin"]).unwrap();
        assert_eq!(p.schema().columns[0].name, "vin");
        assert_eq!(p.schema().columns[1].name, "price");
    }

    #[test]
    fn union_intersect_difference() {
        let r = cars();
        let bmw = select(&r, Some(&CondTree::leaf(Atom::eq("make", "BMW"))));
        let red = select(&r, Some(&CondTree::leaf(Atom::eq("color", "red"))));
        assert_eq!(union(&bmw, &red).unwrap().len(), 3); // v1 v2 v3
        assert_eq!(intersect(&bmw, &red).unwrap().len(), 1); // v1
        assert_eq!(difference(&bmw, &red).unwrap().len(), 1); // v2
        assert_eq!(difference(&red, &bmw).unwrap().len(), 1); // v3
    }

    #[test]
    fn combination_requires_compatible_schemas() {
        let r = cars();
        let p = project(&r, &["make"]).unwrap();
        assert!(union(&r, &p).is_err());
        assert!(intersect(&r, &p).is_err());
        assert!(difference(&r, &p).is_err());
    }

    /// The distributive law at the data level:
    /// σ_{C1 ∧ (C2 ∨ C3)} = σ_{C1∧C2} ∪ σ_{C1∧C3}.
    #[test]
    fn selection_algebra_identities() {
        let r = cars();
        let c1 = CondTree::leaf(Atom::new("price", CmpOp::Lt, 40000i64));
        let c2 = CondTree::leaf(Atom::eq("color", "red"));
        let c3 = CondTree::leaf(Atom::eq("color", "blue"));
        let lhs = select(
            &r,
            Some(&CondTree::and(vec![c1.clone(), CondTree::or(vec![c2.clone(), c3.clone()])])),
        );
        let rhs = union(
            &select(&r, Some(&CondTree::and(vec![c1.clone(), c2]))),
            &select(&r, Some(&CondTree::and(vec![c1, c3]))),
        )
        .unwrap();
        assert_eq!(lhs, rhs);
    }

    /// The intersection anomaly that makes ∩-plans inexact on lossy
    /// projections (documented in csqp-plan): π_a(σ_{b=2}) ∩ π_a(σ_{b=3})
    /// can exceed π_a(σ_{b=2 ∧ b=3}).
    #[test]
    fn intersection_anomaly_without_key() {
        let schema =
            Schema::new("t", vec![("a", ValueType::Int), ("b", ValueType::Int)], &["a", "b"])
                .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(1), Value::Int(3)]],
        );
        let b2 = select(&r, Some(&CondTree::leaf(Atom::eq("b", 2i64))));
        let b3 = select(&r, Some(&CondTree::leaf(Atom::eq("b", 3i64))));
        let lhs =
            intersect(&project(&b2, &["a"]).unwrap(), &project(&b3, &["a"]).unwrap()).unwrap();
        assert_eq!(lhs.len(), 1, "projection loses the distinguishing attribute");
        let both = select(
            &r,
            Some(&CondTree::and(vec![
                CondTree::leaf(Atom::eq("b", 2i64)),
                CondTree::leaf(Atom::eq("b", 3i64)),
            ])),
        );
        assert_eq!(both.len(), 0, "no tuple satisfies both");
    }
}
