//! Evaluation semantics of condition trees, plus propositional-equivalence
//! checking used to validate rewrite rules.

use crate::atom::{Atom, CmpOp};
use crate::tree::{CondTree, Connector};
use crate::value::Value;
use std::collections::BTreeMap;

/// Anything that can resolve attribute names to values — tuples, rows,
/// key/value maps.
pub trait AttrLookup {
    /// The stored value for `attr`, or `None` if the attribute is absent.
    fn get_attr(&self, attr: &str) -> Option<&Value>;
}

impl AttrLookup for BTreeMap<String, Value> {
    fn get_attr(&self, attr: &str) -> Option<&Value> {
        self.get(attr)
    }
}

impl<T: AttrLookup + ?Sized> AttrLookup for &T {
    fn get_attr(&self, attr: &str) -> Option<&Value> {
        (**self).get_attr(attr)
    }
}

/// Evaluates an atom against a row. An atom over a *missing* attribute
/// evaluates to `false` (SQL-NULL-ish but two-valued; documented choice —
/// the substrates always provide complete tuples).
pub fn eval_atom(atom: &Atom, row: &impl AttrLookup) -> bool {
    match row.get_attr(&atom.attr) {
        Some(stored) => atom.eval_against(stored),
        None => false,
    }
}

/// Evaluates a condition tree against a row. Empty `And` is `true` (vacuous
/// conjunction); empty `Or` is `false`.
pub fn eval(tree: &CondTree, row: &impl AttrLookup) -> bool {
    match tree {
        CondTree::Leaf(a) => eval_atom(a, row),
        CondTree::Node(Connector::And, cs) => cs.iter().all(|c| eval(c, row)),
        CondTree::Node(Connector::Or, cs) => cs.iter().any(|c| eval(c, row)),
    }
}

/// A condition tree bound to column positions: every atom's attribute is
/// resolved once, when a scan or operator opens, so evaluating a row is a
/// walk over slots instead of a name lookup per atom per row. An atom
/// with an integer constant over a resolved slot binds to a typed test,
/// and a conjunction of only such atoms to one flat loop over them.
///
/// Same answers as [`eval`] over the same row: an atom whose attribute the
/// schema lacks binds to "absent" and evaluates to `false` (the
/// [`eval_atom`] rule), empty `And` is `true` and empty `Or` is `false`,
/// and a typed test decides every cell as [`CmpOp::eval`] does.
/// [`eval`] stays the by-name oracle.
#[derive(Debug, Clone)]
pub struct BoundCond(Bound);

#[derive(Debug, Clone)]
enum Bound {
    /// `slot` is the attribute's column position, `None` when absent.
    Atom {
        slot: Option<usize>,
        op: CmpOp,
        value: Value,
    },
    Int(IntTest),
    /// A conjunction whose every member is an [`IntTest`].
    IntAnd(Vec<IntTest>),
    And(Vec<Bound>),
    Or(Vec<Bound>),
}

/// `values[slot] op c` for an integer constant `c`.
#[derive(Debug, Clone, Copy)]
struct IntTest {
    slot: usize,
    op: CmpOp,
    c: i64,
}

impl IntTest {
    fn eval<'v>(&self, get: &impl Fn(usize) -> Option<&'v Value>) -> bool {
        use std::cmp::Ordering::*;
        // The numeric cells order as `Value::total_cmp` orders them; any
        // other cell takes the generic path and its type-mismatch rules.
        let ord = match get(self.slot) {
            None => return false,
            Some(Value::Int(x)) => x.cmp(&self.c),
            Some(Value::Float(f)) => f.total_cmp(&(self.c as f64)),
            Some(other) => return self.op.eval(other, &Value::Int(self.c)),
        };
        match self.op {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Contains => false,
        }
    }
}

impl BoundCond {
    /// Binds `tree` against a schema given as a name → position resolver
    /// (`|a| schema.col_index(a)`).
    pub fn bind(tree: &CondTree, resolve: impl Fn(&str) -> Option<usize>) -> BoundCond {
        fn go(t: &CondTree, resolve: &dyn Fn(&str) -> Option<usize>) -> Bound {
            match t {
                CondTree::Leaf(a) => match (resolve(&a.attr), &a.value) {
                    (Some(slot), Value::Int(c)) => Bound::Int(IntTest { slot, op: a.op, c: *c }),
                    (slot, value) => Bound::Atom { slot, op: a.op, value: value.clone() },
                },
                CondTree::Node(Connector::And, cs) => {
                    let bound: Vec<Bound> = cs.iter().map(|c| go(c, resolve)).collect();
                    let tests: Option<Vec<IntTest>> = bound
                        .iter()
                        .map(|b| match b {
                            Bound::Int(t) => Some(*t),
                            _ => None,
                        })
                        .collect();
                    tests.map_or(Bound::And(bound), Bound::IntAnd)
                }
                CondTree::Node(Connector::Or, cs) => {
                    Bound::Or(cs.iter().map(|c| go(c, resolve)).collect())
                }
            }
        }
        BoundCond(go(tree, &resolve))
    }

    /// Evaluates the bound condition against a row's values, in schema
    /// order. A slot past the end of `values` counts as absent.
    pub fn eval(&self, values: &[Value]) -> bool {
        self.eval_with(|i| values.get(i))
    }

    /// Evaluates the bound condition against a row whose value at slot `i`
    /// is `get(i)` (`None` = absent) — a row seen through a projection.
    pub fn eval_with<'v>(&self, get: impl Fn(usize) -> Option<&'v Value>) -> bool {
        fn go<'v>(b: &Bound, get: &impl Fn(usize) -> Option<&'v Value>) -> bool {
            match b {
                Bound::Atom { slot, op, value } => {
                    slot.and_then(get).is_some_and(|stored| op.eval(stored, value))
                }
                Bound::Int(t) => t.eval(get),
                Bound::IntAnd(ts) => ts.iter().all(|t| t.eval(get)),
                Bound::And(cs) => cs.iter().all(|c| go(c, get)),
                Bound::Or(cs) => cs.iter().any(|c| go(c, get)),
            }
        }
        go(&self.0, &get)
    }
}

/// Maximum number of *distinct* atoms for truth-table equivalence checking.
pub const MAX_TT_ATOMS: usize = 20;

/// Propositional equivalence of two condition trees, treating distinct atoms
/// as independent Boolean variables.
///
/// This is sound for every rewrite rule the paper uses (commutativity,
/// associativity, distributivity, copy) because those are propositional
/// identities. It deliberately ignores arithmetic implications between atoms
/// (`price < 10` implies `price < 20`) — so it can report `false` for pairs
/// that are semantically equal only via such implications, but never reports
/// `true` incorrectly.
///
/// Returns `None` if the union of distinct atoms exceeds [`MAX_TT_ATOMS`].
pub fn prop_equivalent(a: &CondTree, b: &CondTree) -> Option<bool> {
    let mut vars: Vec<&Atom> = Vec::new();
    for t in [a, b] {
        for atom in t.atoms() {
            if !vars.contains(&atom) {
                vars.push(atom);
            }
        }
    }
    if vars.len() > MAX_TT_ATOMS {
        return None;
    }
    for mask in 0u64..(1u64 << vars.len()) {
        let assign = |atom: &Atom| -> bool {
            let idx = vars.iter().position(|v| *v == atom).expect("atom collected");
            mask & (1 << idx) != 0
        };
        if eval_prop(a, &assign) != eval_prop(b, &assign) {
            return Some(false);
        }
    }
    Some(true)
}

fn eval_prop(t: &CondTree, assign: &impl Fn(&Atom) -> bool) -> bool {
    match t {
        CondTree::Leaf(a) => assign(a),
        CondTree::Node(Connector::And, cs) => cs.iter().all(|c| eval_prop(c, assign)),
        CondTree::Node(Connector::Or, cs) => cs.iter().any(|c| eval_prop(c, assign)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CmpOp;
    use crate::canonical::canonicalize;

    fn row(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    fn car_row() -> BTreeMap<String, Value> {
        row(&[
            ("make", Value::str("BMW")),
            ("price", Value::Int(35000)),
            ("color", Value::str("red")),
        ])
    }

    #[test]
    fn eval_paper_condition() {
        // (make = "BMW" ^ price < 40000) ^ (color = "red" _ color = "black")
        let t = CondTree::and(vec![
            CondTree::and(vec![
                CondTree::leaf(Atom::eq("make", "BMW")),
                CondTree::leaf(Atom::new("price", CmpOp::Lt, 40000i64)),
            ]),
            CondTree::or(vec![
                CondTree::leaf(Atom::eq("color", "red")),
                CondTree::leaf(Atom::eq("color", "black")),
            ]),
        ]);
        assert!(eval(&t, &car_row()));
        let mut expensive = car_row();
        expensive.insert("price".into(), Value::Int(45000));
        assert!(!eval(&t, &expensive));
        let mut blue = car_row();
        blue.insert("color".into(), Value::str("blue"));
        assert!(!eval(&t, &blue));
    }

    #[test]
    fn bound_evaluation_matches_by_name_evaluation() {
        let names = ["make", "price", "color"];
        let resolve = |a: &str| names.iter().position(|n| *n == a);
        let values = [Value::str("BMW"), Value::Int(35000), Value::str("red")];
        for (cond, want) in [
            ("make = \"BMW\" ^ price < 40000", true),
            ("color = \"blue\" _ price >= 35000.0", true),
            ("nonexistent = 1 _ make != \"BMW\"", false),
            ("make contains \"bm\" ^ color > \"pink\"", true),
        ] {
            let t = crate::parse::parse_condition(cond).unwrap();
            assert_eq!(eval(&t, &car_row()), want, "{cond}");
            assert_eq!(BoundCond::bind(&t, resolve).eval(&values), want, "{cond}");
        }
        // A slot past the row's end is absent, like a missing attribute.
        let t = CondTree::leaf(Atom::eq("color", "red"));
        assert!(!BoundCond::bind(&t, resolve).eval(&values[..2]));
        assert!(BoundCond::bind(&CondTree::and(vec![]), resolve).eval(&[]));
        assert!(!BoundCond::bind(&CondTree::or(vec![]), resolve).eval(&[]));
    }

    #[test]
    fn missing_attribute_is_false() {
        let t = CondTree::leaf(Atom::eq("nonexistent", 1i64));
        assert!(!eval(&t, &car_row()));
    }

    #[test]
    fn empty_connectives() {
        let r = car_row();
        assert!(eval(&CondTree::and(vec![]), &r));
        assert!(!eval(&CondTree::or(vec![]), &r));
    }

    #[test]
    fn equivalence_of_rewrites() {
        let c1 = CondTree::leaf(Atom::eq("a", 1i64));
        let c2 = CondTree::leaf(Atom::eq("b", 1i64));
        let c3 = CondTree::leaf(Atom::eq("c", 1i64));
        // Distributivity: a ^ (b _ c) == (a ^ b) _ (a ^ c)
        let lhs = CondTree::and(vec![c1.clone(), CondTree::or(vec![c2.clone(), c3.clone()])]);
        let rhs = CondTree::or(vec![
            CondTree::and(vec![c1.clone(), c2.clone()]),
            CondTree::and(vec![c1.clone(), c3.clone()]),
        ]);
        assert_eq!(prop_equivalent(&lhs, &rhs), Some(true));
        // Copy rule: a == a ^ a
        let copied = CondTree::and(vec![c1.clone(), c1.clone()]);
        assert_eq!(prop_equivalent(&c1, &copied), Some(true));
        // Non-equivalence detected.
        let wrong = CondTree::or(vec![c1.clone(), c2.clone()]);
        assert_eq!(prop_equivalent(&lhs, &wrong), Some(false));
    }

    #[test]
    fn canonicalize_preserves_equivalence() {
        let a = CondTree::leaf(Atom::eq("a", 1i64));
        let b = CondTree::leaf(Atom::eq("b", 1i64));
        let c = CondTree::leaf(Atom::eq("c", 1i64));
        let t = CondTree::and(vec![a, CondTree::and(vec![b, CondTree::and(vec![c])])]);
        assert_eq!(prop_equivalent(&t, &canonicalize(&t)), Some(true));
    }

    #[test]
    fn too_many_atoms_returns_none() {
        let atoms: Vec<CondTree> =
            (0..21).map(|i| CondTree::leaf(Atom::eq(format!("a{i}"), 1i64))).collect();
        let t = CondTree::and(atoms);
        assert_eq!(prop_equivalent(&t, &t.clone()), None);
    }

    #[test]
    fn equivalence_ignores_arithmetic_implication_by_design() {
        // price < 10 vs price < 10 _ (price < 10 ^ price < 20):
        // propositionally equivalent (absorption), so `true`.
        let p10 = CondTree::leaf(Atom::new("price", CmpOp::Lt, 10i64));
        let p20 = CondTree::leaf(Atom::new("price", CmpOp::Lt, 20i64));
        let absorbed =
            CondTree::or(vec![p10.clone(), CondTree::and(vec![p10.clone(), p20.clone()])]);
        assert_eq!(prop_equivalent(&p10, &absorbed), Some(true));
        // price < 10 vs price < 10 ^ price < 20: equivalent arithmetically
        // but NOT propositionally; the checker conservatively says false.
        let and = CondTree::and(vec![p10.clone(), p20]);
        assert_eq!(prop_equivalent(&p10, &and), Some(false));
    }
}
