//! Property tests for the relational substrate: operator algebra,
//! statistics bounds, the local σπ view operators, and the row writer.

use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::semantics::eval;
use csqp_expr::semantics::BoundCond;
use csqp_expr::{Atom, CondTree};
use csqp_expr::{Value, ValueType};
use csqp_relation::ops::{difference, intersect, project, select, union};
use csqp_relation::stream::project_indices;
use csqp_relation::{DedupSketch, Relation, Row, Schema, TableStats, Tuple, TupleBatch};
use proptest::prelude::*;

fn make_relation(seed: u64, n: usize) -> Relation {
    let schema = Schema::new(
        "t",
        vec![
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
            ("c", ValueType::Str),
        ],
        &["k"],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..n as i64)
        .map(|i| {
            let x = i.wrapping_mul(seed as i64 | 1);
            vec![
                Value::Int(i),
                Value::Int(x.rem_euclid(6)),
                Value::Int(x.rem_euclid(4)),
                Value::str(format!("s{}", x.rem_euclid(3))),
            ]
        })
        .collect();
    Relation::from_rows(schema, rows)
}

fn gen_attrs() -> Vec<GenAttr> {
    vec![
        GenAttr::ints("a", 0, 5, 1),
        GenAttr::ints("b", 0, 3, 1),
        GenAttr::strings("c", &["s0", "s1", "s2"]),
    ]
}

fn cond(seed: u64, n: usize) -> CondTree {
    let mut g = CondGen::new(seed, gen_attrs());
    g.tree(&CondGenConfig { n_atoms: n, max_depth: 3, and_bias: 0.5, eq_bias: 0.7 })
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value drawn to hit every rendering edge: `"` and `\` in strings,
/// inline and shared strings (a multi-byte char straddling byte 22 makes
/// one shared), negative, zero and extreme ints, integral, fractional,
/// NaN, ±inf and −0.0 floats, and both bools.
fn edge_value(k: u64) -> Value {
    const STRS: [&str; 11] = [
        "",
        "plain",
        "a\"b",
        "a\\b",
        "\\\"",
        "trailing\\",
        "ünï\"cødé 🚗",
        "é\\",
        "xxxxxxxxxxxxxxxxxxxxxé",
        "a shared string of more than 22 bytes",
        "shared, with \"quotes\" and \\ too",
    ];
    const FLOATS: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -2.0,
        0.1,
        -7.25,
        1e21,
        1e-7,
        1.5e300,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    match k % 4 {
        0 => Value::str(STRS[(k / 4 % 11) as usize]),
        1 => Value::Int(match k / 4 % 5 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => 0,
            3 => -((k >> 8) as i64 % 100_000),
            _ => (k >> 8) as i64 % 100_000,
        }),
        2 => Value::Float(FLOATS[(k / 4 % 12) as usize]),
        _ => Value::Bool(k & 4 != 0),
    }
}

/// The rendering `Display` produced through `format!` before rows were
/// written through `Row::write_to`: the byte-identity oracle.
fn oracle_value(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("{i}"),
        Value::Float(x) if x.fract() == 0.0 && x.is_finite() => format!("{x:.1}"),
        Value::Float(x) => format!("{x}"),
        Value::Str(s) => format!("\"{}\"", s.as_str().replace('\\', "\\\\").replace('"', "\\\"")),
        Value::Bool(b) => format!("{b}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Local σπ over view batches — a filter, then a composed projection,
    /// then a filter through that projection — equals the materialized
    /// σ then π on every batch, as a bag in order, without copying a row;
    /// deduplicated first-seen across batches it equals the materialized
    /// `project(select(..))`.
    #[test]
    fn view_local_sp_matches_select_then_project(
        seed in 1u64..10_000,
        s1 in 0u64..10_000,
        n in 1usize..5,
        batch in 1usize..40,
        which in 0usize..4,
    ) {
        let r = make_relation(seed, 120);
        let c = (s1 % 5 != 0).then(|| cond(s1, n));
        let attrs: &[&str] = [&["a", "c"][..], &["c", "k"], &["b"], &["k", "a", "b", "c"]][which];
        let (out_schema, indices) = project_indices(r.schema(), attrs).unwrap();
        let bound = c.as_ref().map(|c| BoundCond::bind(c, |a| r.schema().col_index(a)));
        let after = c.as_ref().map(|c| BoundCond::bind(c, |a| out_schema.col_index(a)));
        let (mut fused, mut sketch) = (Vec::new(), DedupSketch::new());
        let positions: Vec<u32> = (0..r.len() as u32).collect();
        for chunk in positions.chunks(batch) {
            let b = TupleBatch::view(r.schema().clone(), r.shared_tuples().clone(), chunk.to_vec(), None);
            let mut view = b.clone();
            if let Some(bc) = &bound {
                view.filter(bc);
            }
            let view = view.project_columns(&out_schema, &indices);
            prop_assert!(std::sync::Arc::ptr_eq(view.store(), r.shared_tuples()));
            prop_assert_eq!(view.schema(), &out_schema);
            let rows = &r.tuples()[chunk[0] as usize..][..chunk.len()];
            let oracle: Vec<Tuple> = rows
                .iter()
                .filter(|t| c.as_ref().is_none_or(|c| eval(c, &Row::new(r.schema(), t))))
                .map(|t| t.project(&indices))
                .collect();
            prop_assert_eq!(view.tuples(), &oracle[..]);
            // A filter through the composed projection reads projected slots.
            let mut twice = b.project_columns(&out_schema, &indices);
            let projected: Vec<Tuple> = rows.iter().map(|t| t.project(&indices)).collect();
            let want: Vec<&Tuple> = projected
                .iter()
                .filter(|t| c.as_ref().is_none_or(|c| eval(c, &Row::new(&out_schema, t))))
                .collect();
            if let Some(ac) = &after {
                twice.filter(ac);
            }
            prop_assert_eq!(twice.rows().map(|row| row.to_tuple()).collect::<Vec<_>>().iter().collect::<Vec<_>>(), want);
            fused.extend(view.rows().filter(|row| sketch.insert_row(*row)).map(|row| row.to_tuple()));
        }
        let oracle = project(&select(&r, c.as_ref()), attrs).unwrap();
        prop_assert_eq!(&fused[..], oracle.tuples());
    }

    /// One writer, identical bytes: a row written through `write_to` equals
    /// its `Display` and the `format!` oracle, value by value, including a
    /// tuple shorter than its schema (`name=?`); a batch of such rows, as
    /// serve sends it, equals `format!("{row}\n")` over its rows.
    #[test]
    fn row_writer_is_byte_identical_to_display(seed in 0u64..1_000_000, arity in 0usize..7) {
        let names = ["k", "name", "x", "y", "flag", "z"];
        let cols: Vec<(&str, ValueType)> =
            names.iter().map(|n| (*n, ValueType::Str)).collect();
        let schema = Schema::new("t", cols, &[]).unwrap();
        let mut k = seed;
        let values: Vec<Value> = (0..arity.min(names.len()))
            .map(|_| {
                k = splitmix(k);
                edge_value(k)
            })
            .collect();
        let tuple = Tuple::new(values);
        let row = Row::new(&schema, &tuple);
        let mut written = Vec::new();
        row.write_to(&mut written);
        let written = String::from_utf8(written).unwrap();
        let cells: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, n)| match tuple.get(i) {
                Some(v) => format!("{n}={}", oracle_value(v)),
                None => format!("{n}=?"),
            })
            .collect();
        prop_assert_eq!(&written, &format!("{row}"));
        prop_assert_eq!(&written, &format!("({})", cells.join(", ")));
        for v in tuple.values() {
            let mut one = Vec::new();
            v.write_to(&mut one);
            prop_assert_eq!(&String::from_utf8(one).unwrap(), &oracle_value(v));
        }
        // The served chunk, over every prefix of the cells (shorter
        // tuples miss their tail), whole and through a reversing projection.
        let store: std::sync::Arc<Vec<Tuple>> = std::sync::Arc::new(
            (0..=tuple.arity()).map(|n| Tuple::new(tuple.values()[..n].to_vec())).collect(),
        );
        let sel: Vec<u32> = (0..store.len() as u32).rev().collect();
        let reversed: std::sync::Arc<[usize]> = (0..names.len()).rev().collect();
        for cols in [None, Some(reversed)] {
            let batch = TupleBatch::view(schema.clone(), store.clone(), sel.clone(), cols);
            let mut chunk = Vec::new();
            batch.write_rows(&mut chunk);
            let lines: String = batch.rows().map(|row| format!("{row}\n")).collect();
            prop_assert_eq!(String::from_utf8(chunk).unwrap(), lines);
        }
    }

    /// σ over ∧/∨ equals ∩/∪ of the component selections (on full tuples,
    /// where set operations are exact).
    #[test]
    fn selection_distributes_over_set_ops(seed in 1u64..10_000, s1 in 0u64..10_000, s2 in 0u64..10_000) {
        let r = make_relation(seed, 120);
        let c1 = cond(s1, 2);
        let c2 = cond(s2, 2);
        let and = CondTree::and(vec![c1.clone(), c2.clone()]);
        let or = CondTree::or(vec![c1.clone(), c2.clone()]);
        let sel1 = select(&r, Some(&c1));
        let sel2 = select(&r, Some(&c2));
        prop_assert_eq!(select(&r, Some(&and)), intersect(&sel1, &sel2).unwrap());
        prop_assert_eq!(select(&r, Some(&or)), union(&sel1, &sel2).unwrap());
        // And difference: σ_{c1} − σ_{c2} ⊆ σ_{c1}.
        let diff = difference(&sel1, &sel2).unwrap();
        prop_assert!(diff.len() <= sel1.len());
    }

    /// Selection is idempotent and monotone under conjunction.
    #[test]
    fn selection_monotone(seed in 1u64..10_000, s1 in 0u64..10_000, s2 in 0u64..10_000) {
        let r = make_relation(seed, 100);
        let c1 = cond(s1, 2);
        let c2 = cond(s2, 2);
        let once = select(&r, Some(&c1));
        prop_assert_eq!(select(&once, Some(&c1)), once.clone());
        let both = select(&r, Some(&CondTree::and(vec![c1, c2])));
        prop_assert!(both.len() <= once.len());
    }

    /// Projection: idempotent, and never increases cardinality.
    #[test]
    fn projection_contract(seed in 1u64..10_000) {
        let r = make_relation(seed, 100);
        let p = project(&r, &["a", "c"]).unwrap();
        prop_assert!(p.len() <= r.len());
        prop_assert_eq!(project(&p, &["a", "c"]).unwrap(), p.clone());
        // Projecting the key keeps cardinality.
        let keyed = project(&r, &["k", "b"]).unwrap();
        prop_assert_eq!(keyed.len(), r.len());
    }

    /// Set-operation algebra: ∪/∩ commutative, ∪ idempotent.
    #[test]
    fn set_op_algebra(seed in 1u64..10_000, s1 in 0u64..10_000, s2 in 0u64..10_000) {
        let r = make_relation(seed, 100);
        let x = select(&r, Some(&cond(s1, 2)));
        let y = select(&r, Some(&cond(s2, 2)));
        prop_assert_eq!(union(&x, &y).unwrap(), union(&y, &x).unwrap());
        prop_assert_eq!(intersect(&x, &y).unwrap(), intersect(&y, &x).unwrap());
        prop_assert_eq!(union(&x, &x).unwrap(), x.clone());
        prop_assert_eq!(intersect(&x, &x).unwrap(), x.clone());
    }

    /// Statistics: selectivity stays in [0,1]; estimates for exact-frequency
    /// equality atoms match the true count.
    #[test]
    fn statistics_contract(seed in 1u64..10_000, s1 in 0u64..10_000, n in 1usize..6) {
        let r = make_relation(seed, 150);
        let stats = TableStats::build(&r);
        let c = cond(s1, n);
        let sel = stats.selectivity(Some(&c));
        prop_assert!((0.0..=1.0).contains(&sel), "selectivity {} for {}", sel, c);
        // Equality atoms over low-cardinality columns are exact.
        for v in 0..6i64 {
            let atom = Atom::eq("a", v);
            let truth =
                select(&r, Some(&CondTree::leaf(atom.clone()))).len() as f64 / r.len() as f64;
            prop_assert!((stats.atom_selectivity(&atom) - truth).abs() < 1e-9);
        }
    }

    /// Disjunction estimates are sandwiched between max component and sum.
    #[test]
    fn or_estimate_bounds(seed in 1u64..10_000, s1 in 0u64..10_000, s2 in 0u64..10_000) {
        let r = make_relation(seed, 150);
        let stats = TableStats::build(&r);
        let c1 = cond(s1, 1);
        let c2 = cond(s2, 1);
        let or = CondTree::or(vec![c1.clone(), c2.clone()]);
        let e1 = stats.selectivity(Some(&c1));
        let e2 = stats.selectivity(Some(&c2));
        let eo = stats.selectivity(Some(&or));
        prop_assert!(eo >= e1.max(e2) - 1e-9, "{} < max({}, {})", eo, e1, e2);
        prop_assert!(eo <= (e1 + e2).min(1.0) + 1e-9);
    }
}
