//! Property tests for the condition-expression substrate: text round-trips,
//! canonicalization, normal forms, rewrite-rule soundness, semantic
//! consistency between a tree and its normal forms, and bound (slot)
//! evaluation against by-name evaluation.

use csqp_expr::canonical::{canonicalize, is_canonical};
use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::normal::{to_cnf, to_dnf};
use csqp_expr::parse::parse_condition;
use csqp_expr::rewrite::{single_steps, RewriteRule};
use csqp_expr::semantics::{eval, prop_equivalent, BoundCond};
use csqp_expr::{Atom, CmpOp, CondTree, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn attrs() -> Vec<GenAttr> {
    vec![
        GenAttr::ints("alpha", 0, 5, 1),
        GenAttr::ints("beta", 0, 3, 1),
        GenAttr::strings("gamma", &["g0", "g1", "g2"]),
        GenAttr::strings("delta", &["left", "right"]),
    ]
}

fn tree(seed: u64, n_atoms: usize, depth: usize) -> CondTree {
    let mut g = CondGen::new(seed, attrs());
    g.tree(&CondGenConfig { n_atoms, max_depth: depth, and_bias: 0.5, eq_bias: 0.7 })
}

/// A deterministic row for semantic evaluation.
fn row(seed: u64) -> BTreeMap<String, Value> {
    let mut m = BTreeMap::new();
    m.insert("alpha".into(), Value::Int((seed % 6) as i64));
    m.insert("beta".into(), Value::Int((seed / 6 % 4) as i64));
    m.insert("gamma".into(), Value::str(format!("g{}", seed / 24 % 3)));
    m.insert("delta".into(), Value::str(if seed.is_multiple_of(2) { "left" } else { "right" }));
    m
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Integers at the edge of `f64`'s exact range: `2^53 + 1` rounds to
/// `2^53` as a float, so a typed test that compared a float cell against
/// the constant any other way than `c as f64` would disagree here.
const EDGE_INTS: [i64; 8] =
    [1 << 53, (1 << 53) + 1, (1 << 53) - 1, -(1 << 53), -(1 << 53) - 1, i64::MAX, i64::MIN, 0];

/// `t` with every atom's operator drawn from all seven (so `Ne`,
/// `Contains` and string ordering appear), some integer constants turned
/// into floats, integral or not (Int/Float cross-type comparisons), and
/// some into integers at the edge of `f64`'s exact range.
fn diversify(t: &CondTree, seed: u64) -> CondTree {
    fn go(t: &CondTree, k: &mut u64) -> CondTree {
        match t {
            CondTree::Leaf(a) => {
                *k = splitmix(*k);
                let op = CmpOp::ALL[(*k % 7) as usize];
                let value = match (&a.value, *k / 7 % 4) {
                    (Value::Int(i), 0) => Value::Float(*i as f64 + 0.5),
                    (Value::Int(i), 1) => Value::Float(*i as f64),
                    (Value::Int(_), 2) => Value::Int(EDGE_INTS[(*k / 28 % 8) as usize]),
                    (v, _) => v.clone(),
                };
                CondTree::leaf(Atom { attr: a.attr.clone(), op, value })
            }
            CondTree::Node(c, cs) => CondTree::Node(*c, cs.iter().map(|c| go(c, k)).collect()),
        }
    }
    go(t, &mut { seed })
}

/// A row in schema order over `delta, alpha, gamma, beta`: `omega`, which
/// the bound generator also references, is absent. Cells draw across types
/// (floats, NaN, a bool and floats and ints next to ±2^53 in a numeric
/// column, an int in a string column) and case variants for `contains`.
fn mixed_row(seed: u64) -> Vec<(&'static str, Value)> {
    let mut k = seed;
    let mut pick = |n: u64| {
        k = splitmix(k);
        k % n
    };
    let alpha = match pick(8) {
        0 => Value::Float(pick(6) as f64 + 0.5),
        1 => Value::Float(f64::NAN),
        2 => Value::Bool(pick(2) == 0),
        3 => Value::Float(EDGE_INTS[pick(8) as usize] as f64),
        4 => Value::Float(-0.0),
        5 => Value::Int(EDGE_INTS[pick(8) as usize]),
        _ => Value::Int(pick(6) as i64),
    };
    let gamma = match pick(6) {
        0 => Value::Int(1),
        1 => Value::str("G1"),
        2 => Value::str("xg2y"),
        3 => Value::str(""),
        n => Value::str(format!("g{n}")),
    };
    let delta = ["left", "Right", "LEFTOVER", "r"][pick(4) as usize];
    vec![
        ("delta", Value::str(delta)),
        ("alpha", alpha),
        ("gamma", gamma),
        ("beta", Value::Int(pick(4) as i64)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A tree bound to column slots evaluates every row exactly as the
    /// by-name oracle does, absent attributes included.
    #[test]
    fn bound_eval_matches_by_name_eval(
        seed in 0u64..100_000,
        n in 1usize..8,
        opseed in 0u64..1_000_000,
        rowseed in 0u64..1_000_000,
    ) {
        let mut gen_attrs = attrs();
        gen_attrs.push(GenAttr::strings("omega", &["w"]));
        let mut g = CondGen::new(seed, gen_attrs);
        let cfg = CondGenConfig { n_atoms: n, max_depth: 4, and_bias: 0.5, eq_bias: 0.5 };
        let t = diversify(&g.tree(&cfg), opseed);
        let cols = mixed_row(rowseed);
        let by_name: BTreeMap<String, Value> =
            cols.iter().map(|(name, v)| (name.to_string(), v.clone())).collect();
        let values: Vec<Value> = cols.iter().map(|(_, v)| v.clone()).collect();
        let bound = BoundCond::bind(&t, |a| cols.iter().position(|(name, _)| *name == a));
        prop_assert_eq!(bound.eval(&values), eval(&t, &by_name), "{}", t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rendered trees re-parse to the identical tree.
    #[test]
    fn display_parse_round_trip(seed in 0u64..100_000, n in 1usize..9) {
        let t = tree(seed, n, 4);
        let text = t.to_string();
        let back = parse_condition(&text).unwrap();
        prop_assert_eq!(t, back, "{}", text);
    }

    /// Canonicalization: idempotent, canonical output, equivalence kept,
    /// atom multiset preserved.
    #[test]
    fn canonicalize_contract(seed in 0u64..100_000, n in 1usize..10) {
        let t = tree(seed, n, 5);
        let c = canonicalize(&t);
        prop_assert!(is_canonical(&c));
        prop_assert_eq!(&canonicalize(&c), &c);
        prop_assert_eq!(prop_equivalent(&t, &c), Some(true));
        prop_assert_eq!(t.n_atoms(), c.n_atoms());
    }

    /// Every single rewrite step of every GenModular rule preserves
    /// propositional equivalence.
    #[test]
    fn rewrite_steps_sound(seed in 0u64..100_000, n in 2usize..7) {
        let t = tree(seed, n, 3);
        for next in single_steps(&t, &RewriteRule::MODULAR) {
            prop_assert_eq!(
                prop_equivalent(&t, &next),
                Some(true),
                "{} => {}",
                t,
                next
            );
        }
    }

    /// CNF/DNF conversions are equivalent and correctly shaped.
    #[test]
    fn normal_forms_contract(seed in 0u64..100_000, n in 1usize..7) {
        let t = tree(seed, n, 3);
        let cnf = to_cnf(&t).unwrap();
        let dnf = to_dnf(&t).unwrap();
        prop_assert_eq!(prop_equivalent(&t, &cnf), Some(true));
        prop_assert_eq!(prop_equivalent(&t, &dnf), Some(true));
        prop_assert!(is_canonical(&cnf));
        prop_assert!(is_canonical(&dnf));
        // CNF: depth ≤ 2 with ^ at the root (if a node at all); dually DNF.
        prop_assert!(cnf.depth() <= 3);
        prop_assert!(dnf.depth() <= 3);
    }

    /// Tree evaluation agrees with its normal forms on concrete rows
    /// (a *semantic* check — prop_equivalent treats atoms opaquely, this
    /// exercises real comparisons).
    #[test]
    fn eval_agrees_with_normal_forms(seed in 0u64..100_000, n in 1usize..7, rowseed in 0u64..144) {
        let t = tree(seed, n, 3);
        let r = row(rowseed);
        let want = eval(&t, &r);
        prop_assert_eq!(eval(&to_cnf(&t).unwrap(), &r), want);
        prop_assert_eq!(eval(&to_dnf(&t).unwrap(), &r), want);
        prop_assert_eq!(eval(&canonicalize(&t), &r), want);
    }

    /// Rewrite steps also agree semantically on concrete rows.
    #[test]
    fn rewrite_steps_agree_semantically(seed in 0u64..50_000, n in 2usize..6, rowseed in 0u64..144) {
        let t = tree(seed, n, 3);
        let r = row(rowseed);
        let want = eval(&t, &r);
        for next in single_steps(&t, &RewriteRule::MODULAR) {
            prop_assert_eq!(eval(&next, &r), want, "{}", next);
        }
    }

    /// commutative_key is invariant under child shuffles (single swap).
    #[test]
    fn commutative_key_swap_invariant(seed in 0u64..100_000, n in 2usize..8) {
        let t = tree(seed, n, 3);
        if let CondTree::Node(conn, mut children) = t.clone() {
            if children.len() >= 2 {
                children.swap(0, 1);
                let swapped = CondTree::Node(conn, children);
                prop_assert_eq!(t.commutative_key(), swapped.commutative_key());
            }
        }
    }
}
