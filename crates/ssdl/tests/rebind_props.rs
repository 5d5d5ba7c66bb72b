//! Properties of prepared-plan rebinding over generated conditions.
//!
//! The plan cache keys a prepared plan by `linearize::shape_fingerprint`
//! and serves a later query of the same shape by pairing constants slot by
//! slot (`param::rebind_map`) and rewriting the plan through the pairing
//! (`param::substitute`). Because the cached entry also decides which
//! member a failing run starts from, these pin the three facts that path
//! rests on, over `expr::gen` conditions:
//!
//! - neither function panics, whatever pair it is handed;
//! - rebinding a condition to itself is the identity;
//! - a condition with every constant swapped for another of the same type
//!   has the same shape fingerprint and, unless two equal slots were
//!   swapped apart (`SlotConflict`), rebinds to exactly that condition.

use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::param::{rebind_map, substitute, RebindError};
use csqp_expr::parse::parse_condition;
use csqp_expr::{Atom, CondTree, Value, ValueType};
use csqp_ssdl::linearize::shape_fingerprint;
use proptest::prelude::*;

/// Every constant type the expression language has, including attributes
/// whose pools collide often (so aliased slots are common).
fn attrs() -> Vec<GenAttr> {
    vec![
        GenAttr::ints("alpha", 0, 3, 1),
        GenAttr::ints("beta", -50, 50, 25),
        GenAttr::strings("gamma", &["g0", "g1"]),
        GenAttr::strings("delta", &["", "left", "right"]),
        GenAttr {
            name: "eps".into(),
            ty: ValueType::Float,
            pool: vec![Value::Float(0.5), Value::Float(-1.0), Value::Float(f64::NAN)],
        },
        GenAttr {
            name: "flag".into(),
            ty: ValueType::Bool,
            pool: vec![Value::Bool(true), Value::Bool(false)],
        },
    ]
}

fn tree(seed: u64, n_atoms: usize, depth: usize) -> CondTree {
    let mut g = CondGen::new(seed, attrs());
    g.tree(&CondGenConfig { n_atoms, max_depth: depth, and_bias: 0.5, eq_bias: 0.6 })
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A constant of `v`'s type drawn from `k` — often equal to `v`, often a
/// value outside every generator pool.
fn same_type(v: &Value, k: u64) -> Value {
    match v {
        Value::Int(_) => Value::Int((k % 7) as i64 - 3),
        Value::Float(_) => Value::Float([0.5, 2.25, -0.0, f64::NAN][(k % 4) as usize]),
        Value::Str(_) => Value::str(["g0", "left", "x", ""][(k % 4) as usize]),
        Value::Bool(_) => Value::Bool(k.is_multiple_of(2)),
    }
}

/// `c` with each constant, slot by slot, replaced by another of its type.
fn rebound(c: &CondTree, seed: u64) -> CondTree {
    fn go(t: &CondTree, k: &mut u64) -> CondTree {
        match t {
            CondTree::Leaf(a) => {
                *k = splitmix(*k);
                let value = same_type(&a.value, *k);
                CondTree::leaf(Atom { attr: a.attr.clone(), op: a.op, value })
            }
            CondTree::Node(conn, cs) => {
                CondTree::Node(*conn, cs.iter().map(|c| go(c, k)).collect())
            }
        }
    }
    go(c, &mut { seed })
}

/// The rebind properties for one condition and one swap of its constants.
fn check(c: &CondTree, c2: &CondTree) -> Result<(), String> {
    let identity = rebind_map(c, c).map_err(|e| format!("self-rebind of {c} failed: {e}"))?;
    let back = substitute(c, &identity).map_err(|e| format!("self-substitute of {c}: {e}"))?;
    if back != *c {
        return Err(format!("self-rebind changed {c} into {back}"));
    }
    if shape_fingerprint(Some(c)) != shape_fingerprint(Some(c2)) {
        return Err(format!("{c} and {c2} share a shape but not its fingerprint"));
    }
    match rebind_map(c, c2) {
        Err(RebindError::SlotConflict) => Ok(()),
        Err(e) => Err(format!("{c} -> {c2}: {e}")),
        Ok(map) => match substitute(c, &map) {
            Ok(got) if got == *c2 => Ok(()),
            Ok(got) => Err(format!("{c} -> {c2} rebound to {got}")),
            Err(e) => Err(format!("{c} -> {c2}: substitute failed: {e}")),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary pairs, shapes equal or not: both functions return, and a
    /// map built from one pair substitutes into any condition without
    /// panicking.
    #[test]
    fn rebind_and_substitute_never_panic(
        a in 0u64..u64::MAX, b in 0u64..u64::MAX, na in 1usize..9, nb in 1usize..9,
        depth in 1usize..5,
    ) {
        let (c, d) = (tree(a, na, depth), tree(b, nb, depth));
        for (x, y) in [(&c, &d), (&d, &c), (&c, &c)] {
            if let Ok(map) = rebind_map(x, y) {
                let _ = substitute(x, &map);
                let _ = substitute(y, &map);
            }
        }
        let _ = rebind_map(&c, &rebound(&c, b));
    }

    /// Self-rebind is the identity, and a same-typed swap of every
    /// constant keeps the fingerprint and rebinds exactly (or reports the
    /// aliased slots it cannot).
    #[test]
    fn same_shape_rebinds_exactly(
        seed in 0u64..u64::MAX, swap in 0u64..u64::MAX, n in 1usize..10, depth in 1usize..5,
    ) {
        let c = tree(seed, n, depth);
        let c2 = rebound(&c, swap);
        let verdict = check(&c, &c2);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// Fixed cases the generators reach only by luck: aliased slots swapped
/// together and apart, NaN and signed-zero constants, empty strings, a
/// bare atom.
#[test]
fn fixed_rebind_cases() {
    let cases = [
        ("alpha = 1 ^ alpha = 1", "alpha = 2 ^ alpha = 2"),
        ("alpha = 1 ^ alpha = 1", "alpha = 2 ^ alpha = 3"),
        (
            "gamma = \"\" _ (gamma = \"\" ^ beta <= 5)",
            "gamma = \"x\" _ (gamma = \"x\" ^ beta <= -5)",
        ),
        ("delta = \"left\"", "delta = \"right\""),
    ];
    for (c, c2) in cases {
        let (c, c2) = (parse_condition(c).unwrap(), parse_condition(c2).unwrap());
        assert_eq!(check(&c, &c2), Ok(()), "{c} -> {c2}");
    }
    let nan = CondTree::leaf(Atom::eq("eps", Value::Float(f64::NAN)));
    let zero = CondTree::leaf(Atom::eq("eps", Value::Float(-0.0)));
    assert_eq!(check(&nan, &zero), Ok(()));
    assert_eq!(check(&zero, &nan), Ok(()));
}
