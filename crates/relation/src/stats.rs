//! Table statistics and selectivity estimation.
//!
//! The cost model of §6.2 charges `k1 + k2 · |result|` per source query;
//! the planner therefore needs result-size estimates for arbitrary
//! conditions. `TableStats` provides standard single-column statistics
//! (row count, distinct counts or exact frequencies, min/max, equi-depth
//! histograms) composed under the independence assumption.

use crate::relation::Relation;
use csqp_expr::{Atom, CmpOp, CondTree, Connector, Value};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// If a column has at most this many distinct values, exact frequencies are
/// kept; beyond it, a histogram + NDV estimate is used.
pub const EXACT_FREQ_LIMIT: usize = 512;

/// Number of equi-depth histogram buckets for high-cardinality columns.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Default selectivity for `contains` predicates (no substring statistics).
pub const DEFAULT_CONTAINS_SELECTIVITY: f64 = 0.05;

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Number of distinct values. The count is exact, never sampled:
    /// [`TableStats::build`] keys every row's value under `Value`'s
    /// structural `Ord`, which agrees with `Eq` (floats by bit pattern,
    /// `Int(1)` and `Float(1.0)` distinct).
    pub ndv: usize,
    /// Exact value frequencies, kept while `ndv <= EXACT_FREQ_LIMIT`.
    pub freqs: Option<BTreeMap<Value, usize>>,
    /// Sorted sample boundaries of an equi-depth histogram
    /// (`buckets + 1` boundaries), present for orderable columns.
    pub boundaries: Vec<Value>,
}

/// Statistics for a relation.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Total row count.
    pub rows: usize,
    columns: HashMap<String, ColumnStats>,
}

impl TableStats {
    /// Scans a relation and builds statistics.
    ///
    /// ```
    /// use csqp_relation::{datagen, TableStats};
    /// use csqp_expr::parse::parse_condition;
    ///
    /// let cars = datagen::cars(1, 500);
    /// let stats = TableStats::build(&cars);
    /// let cond = parse_condition(r#"make = "BMW" ^ price < 40000"#).unwrap();
    /// let est = stats.estimate_rows(Some(&cond));
    /// assert!(est > 0.0 && est < 500.0);
    /// ```
    pub fn build(r: &Relation) -> TableStats {
        let n = r.len();
        let mut columns = HashMap::new();
        for (ci, col) in r.schema().columns.iter().enumerate() {
            let mut freqs: BTreeMap<Value, usize> = BTreeMap::new();
            for t in r.tuples() {
                if let Some(v) = t.get(ci) {
                    *freqs.entry(v.clone()).or_insert(0) += 1;
                }
            }
            let ndv = freqs.len();
            // Equi-depth boundaries over the sorted multiset.
            let mut sorted: Vec<&Value> = Vec::with_capacity(n);
            for (v, c) in &freqs {
                for _ in 0..*c {
                    sorted.push(v);
                }
            }
            let mut boundaries = Vec::new();
            if !sorted.is_empty() {
                for b in 0..=HISTOGRAM_BUCKETS {
                    let idx = (b * (sorted.len() - 1)) / HISTOGRAM_BUCKETS;
                    boundaries.push(sorted[idx].clone());
                }
            }
            let freqs = if ndv <= EXACT_FREQ_LIMIT { Some(freqs) } else { None };
            columns.insert(col.name.clone(), ColumnStats { ndv, freqs, boundaries });
        }
        TableStats { rows: n, columns }
    }

    /// Statistics for a column, if known.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Does every row hold a different value in column `name`? Exact (see
    /// [`ColumnStats::ndv`]): a projection that keeps such a column cannot
    /// produce two `Eq` tuples from two rows. Unknown columns are not
    /// unique.
    pub fn is_unique(&self, name: &str) -> bool {
        self.columns.get(name).is_some_and(|c| c.ndv == self.rows)
    }

    /// Estimated selectivity of an atomic condition in `[0, 1]`.
    /// Unknown columns estimate 0 (atoms over missing attributes evaluate to
    /// false under our semantics).
    pub fn atom_selectivity(&self, atom: &Atom) -> f64 {
        let Some(col) = self.columns.get(&atom.attr) else { return 0.0 };
        if self.rows == 0 {
            return 0.0;
        }
        let n = self.rows as f64;
        match atom.op {
            CmpOp::Eq => match &col.freqs {
                Some(freqs) => {
                    freqs
                        .iter()
                        .filter(|(v, _)| v.sem_eq(&atom.value))
                        .map(|(_, c)| *c)
                        .sum::<usize>() as f64
                        / n
                }
                None => 1.0 / col.ndv.max(1) as f64,
            },
            CmpOp::Ne => {
                1.0 - self.atom_selectivity(&Atom {
                    attr: atom.attr.clone(),
                    op: CmpOp::Eq,
                    value: atom.value.clone(),
                })
            }
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let frac_lt = self.fraction_below(col, &atom.value);
                let frac_eq = match &col.freqs {
                    Some(freqs) => {
                        freqs
                            .iter()
                            .filter(|(v, _)| v.sem_eq(&atom.value))
                            .map(|(_, c)| *c)
                            .sum::<usize>() as f64
                            / n
                    }
                    None => 1.0 / col.ndv.max(1) as f64,
                };
                match atom.op {
                    CmpOp::Lt => frac_lt,
                    CmpOp::Le => (frac_lt + frac_eq).min(1.0),
                    CmpOp::Gt => (1.0 - frac_lt - frac_eq).max(0.0),
                    CmpOp::Ge => (1.0 - frac_lt).max(0.0),
                    _ => unreachable!(),
                }
            }
            CmpOp::Contains => DEFAULT_CONTAINS_SELECTIVITY,
        }
    }

    /// Fraction of rows strictly below `v` (exact if frequencies kept,
    /// histogram interpolation otherwise).
    fn fraction_below(&self, col: &ColumnStats, v: &Value) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        if let Some(freqs) = &col.freqs {
            let below: usize = freqs
                .iter()
                .filter(|(w, _)| w.total_cmp(v) == std::cmp::Ordering::Less)
                .map(|(_, c)| *c)
                .sum();
            return below as f64 / self.rows as f64;
        }
        if col.boundaries.is_empty() {
            return 0.5;
        }
        // Count boundaries strictly below v: equi-depth means each gap holds
        // 1/buckets of the rows.
        let below =
            col.boundaries.iter().filter(|b| b.total_cmp(v) == std::cmp::Ordering::Less).count();
        (below as f64 / col.boundaries.len() as f64).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of a condition tree (`None` = true), combining
    /// atoms under independence: `∧` multiplies, `∨` uses
    /// inclusion–exclusion via the complement product.
    pub fn selectivity(&self, cond: Option<&CondTree>) -> f64 {
        match cond {
            None => 1.0,
            Some(t) => self.tree_selectivity(t),
        }
    }

    fn tree_selectivity(&self, t: &CondTree) -> f64 {
        match t {
            CondTree::Leaf(a) => self.atom_selectivity(a),
            CondTree::Node(Connector::And, cs) => {
                cs.iter().map(|c| self.tree_selectivity(c)).product()
            }
            CondTree::Node(Connector::Or, cs) => {
                // Equality atoms on the same attribute with distinct values
                // are mutually exclusive (the form value-lists of Example
                // 1.2): sum them exactly instead of assuming independence.
                let mut eq_groups: HashMap<&str, f64> = HashMap::new();
                let mut other: Vec<f64> = Vec::new();
                let mut seen_values: HashMap<&str, Vec<&Value>> = HashMap::new();
                for c in cs {
                    match c {
                        CondTree::Leaf(a) if a.op == CmpOp::Eq => {
                            let vals = seen_values.entry(a.attr.as_str()).or_default();
                            if vals.iter().any(|v| v.sem_eq(&a.value)) {
                                continue; // duplicate disjunct contributes nothing
                            }
                            vals.push(&a.value);
                            *eq_groups.entry(a.attr.as_str()).or_insert(0.0) +=
                                self.atom_selectivity(a);
                        }
                        _ => other.push(self.tree_selectivity(c)),
                    }
                }
                let mut none: f64 = other.iter().map(|s| 1.0 - s).product();
                for (_, s) in eq_groups {
                    none *= 1.0 - s.min(1.0);
                }
                1.0 - none
            }
        }
    }

    /// Estimated result rows for `σ_cond(R)`.
    pub fn estimate_rows(&self, cond: Option<&CondTree>) -> f64 {
        self.rows as f64 * self.selectivity(cond)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select;
    use crate::schema::Schema;
    use csqp_expr::parse::parse_condition;
    use csqp_expr::ValueType;

    fn make_relation(rows: usize) -> Relation {
        let schema = Schema::new(
            "t",
            vec![("id", ValueType::Int), ("make", ValueType::Str), ("price", ValueType::Int)],
            &["id"],
        )
        .unwrap();
        let makes = ["BMW", "Toyota", "Honda", "Ford"];
        Relation::from_rows(
            schema,
            (0..rows)
                .map(|i| {
                    vec![
                        Value::Int(i as i64),
                        Value::str(makes[i % makes.len()]),
                        Value::Int(10_000 + (i as i64 * 97) % 50_000),
                    ]
                })
                .collect(),
        )
    }

    #[test]
    fn equality_selectivity_exact() {
        let r = make_relation(400);
        let s = TableStats::build(&r);
        let a = Atom::eq("make", "BMW");
        let est = s.atom_selectivity(&a);
        assert!((est - 0.25).abs() < 1e-9, "got {est}");
        // Value absent from the pool.
        assert_eq!(s.atom_selectivity(&Atom::eq("make", "Lada")), 0.0);
        // Unknown column: 0.
        assert_eq!(s.atom_selectivity(&Atom::eq("nope", 1i64)), 0.0);
    }

    #[test]
    fn range_selectivity_tracks_truth() {
        let r = make_relation(1000);
        let s = TableStats::build(&r);
        for cond_text in ["price < 20000", "price >= 40000", "price <= 35000"] {
            let c = parse_condition(cond_text).unwrap();
            let actual = select(&r, Some(&c)).len() as f64;
            let est = s.estimate_rows(Some(&c));
            assert!(
                (est - actual).abs() / 1000.0 < 0.10,
                "{cond_text}: est {est} vs actual {actual}"
            );
        }
    }

    #[test]
    fn connector_composition() {
        let r = make_relation(1000);
        let s = TableStats::build(&r);
        let and = parse_condition("make = \"BMW\" ^ price < 20000").unwrap();
        let or = parse_condition("make = \"BMW\" _ make = \"Toyota\"").unwrap();
        let s_and = s.selectivity(Some(&and));
        let s_or = s.selectivity(Some(&or));
        assert!(s_and > 0.0 && s_and < 0.25);
        // Same-attribute equality disjuncts are treated as disjoint: exact.
        assert!((s_or - 0.5).abs() < 0.02, "got {s_or}");
        // Duplicated disjuncts do not double-count.
        let dup = parse_condition("make = \"BMW\" _ make = \"BMW\"").unwrap();
        assert!((s.selectivity(Some(&dup)) - 0.25).abs() < 1e-9);
        // Mixed-attribute disjunction still uses the complement product.
        let mixed = parse_condition("make = \"BMW\" _ price < 20000").unwrap();
        let p_price = s.selectivity(Some(&parse_condition("price < 20000").unwrap()));
        let expected = 1.0 - (1.0 - 0.25) * (1.0 - p_price);
        assert!((s.selectivity(Some(&mixed)) - expected).abs() < 1e-9);
    }

    #[test]
    fn true_condition_full_table() {
        let r = make_relation(100);
        let s = TableStats::build(&r);
        assert_eq!(s.selectivity(None), 1.0);
        assert_eq!(s.estimate_rows(None), 100.0);
    }

    #[test]
    fn ne_complements_eq() {
        let r = make_relation(400);
        let s = TableStats::build(&r);
        let ne = Atom::new("make", CmpOp::Ne, "BMW");
        assert!((s.atom_selectivity(&ne) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn contains_uses_default() {
        let r = make_relation(10);
        let s = TableStats::build(&r);
        let c = Atom::new("make", CmpOp::Contains, "BM");
        assert_eq!(s.atom_selectivity(&c), DEFAULT_CONTAINS_SELECTIVITY);
    }

    #[test]
    fn empty_relation() {
        let schema = Schema::new("t", vec![("a", ValueType::Int)], &[]).unwrap();
        let r = Relation::empty(schema);
        let s = TableStats::build(&r);
        assert_eq!(s.rows, 0);
        assert!(s.is_unique("a"), "no two rows of an empty relation agree");
        assert_eq!(s.atom_selectivity(&Atom::eq("a", 1i64)), 0.0);
        assert_eq!(s.estimate_rows(None), 0.0);
    }

    #[test]
    fn uniqueness_is_value_eq() {
        // Signed zeros, NaN payloads and an Int beside an equal Float are
        // distinct under `Eq`, so each pair counts twice; a repeated value
        // (the second `Int(1)`) does not.
        let schema = Schema::new("t", vec![("x", ValueType::Float)], &[]).unwrap();
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let vals =
            [Value::Float(0.0), Value::Float(-0.0), Value::Float(f64::NAN), Value::Float(nan2)];
        let int_float = [Value::Int(1), Value::Float(1.0)];
        let r = Relation::from_rows(
            schema,
            vals.iter().chain(&int_float).map(|v| vec![v.clone()]).collect(),
        );
        assert!(TableStats::build(&r).is_unique("x"));
        let mut rows: Vec<Vec<Value>> =
            vals.iter().map(|v| vec![v.clone(), Value::Int(0)]).collect();
        rows.push(vec![Value::Int(1), Value::Int(0)]);
        rows.push(vec![Value::Int(1), Value::Int(1)]);
        let two =
            Schema::new("t", vec![("x", ValueType::Float), ("y", ValueType::Int)], &[]).unwrap();
        let s = TableStats::build(&Relation::from_rows(two, rows));
        assert_eq!((s.rows, s.column("x").unwrap().ndv), (6, 5));
        assert!(!s.is_unique("x") && !s.is_unique("y"));
    }

    #[test]
    fn high_cardinality_uses_histogram() {
        // id column has 5000 distinct values > EXACT_FREQ_LIMIT.
        let r = make_relation(5000);
        let s = TableStats::build(&r);
        let col = s.column("id").unwrap();
        assert!(col.freqs.is_none());
        assert_eq!(col.ndv, 5000);
        assert!(s.is_unique("id"));
        assert!(!s.is_unique("make") && !s.is_unique("nope"));
        let c = parse_condition("id < 2500").unwrap();
        let est = s.estimate_rows(Some(&c));
        assert!((est - 2500.0).abs() / 5000.0 < 0.08, "est {est}");
        // Equality on a histogram column uses 1/ndv.
        let eq = Atom::eq("id", 17i64);
        assert!((s.atom_selectivity(&eq) - 1.0 / 5000.0).abs() < 1e-12);
    }
}
