//! Property tests for SSDL: capability-class acceptance, permutation-closure
//! soundness, and recovery of a gate-accepted order by admission.

use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::{CondTree, Connector, ValueType};
use csqp_ssdl::check::CompiledSource;
use csqp_ssdl::closure::{permutation_closure, DEFAULT_MAX_SEGMENTS};
use csqp_ssdl::templates;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn gen_attrs() -> Vec<GenAttr> {
    vec![
        GenAttr::ints("a", 0, 5, 1),
        GenAttr::ints("b", 0, 3, 1),
        GenAttr::strings("c", &["x", "y", "z"]),
    ]
}

fn tree(seed: u64, n_atoms: usize) -> CondTree {
    let mut g = CondGen::new(seed, gen_attrs());
    g.tree(&CondGenConfig { n_atoms, max_depth: 3, and_bias: 0.5, eq_bias: 0.8 })
}

fn all_attrs() -> BTreeSet<String> {
    ["a", "b", "c"].iter().map(|s| s.to_string()).collect()
}

fn schema() -> [(&'static str, ValueType); 3] {
    [("a", ValueType::Int), ("b", ValueType::Int), ("c", ValueType::Str)]
}

/// Is the tree a pure conjunction of atoms (no Or anywhere)?
fn is_conjunctive(t: &CondTree) -> bool {
    match t {
        CondTree::Leaf(_) => true,
        CondTree::Node(Connector::Or, _) => false,
        CondTree::Node(Connector::And, cs) => cs.iter().all(is_conjunctive),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full-relational template accepts every condition over its
    /// attributes, with all attributes exportable.
    #[test]
    fn full_relational_accepts_everything(seed in 0u64..100_000, n in 1usize..9) {
        let src = CompiledSource::new(templates::full_relational("full", &schema()));
        let t = tree(seed, n);
        prop_assert!(
            src.supports(Some(&t), &all_attrs()),
            "rejected: {}",
            t
        );
    }

    /// The conjunctive-only template accepts a condition iff it is a pure
    /// conjunction of atoms — exactly the TSIMMIS/IM restriction of §2.
    #[test]
    fn conjunctive_only_is_exact(seed in 0u64..100_000, n in 1usize..8) {
        let src = CompiledSource::new(templates::conjunctive_only("conj", &schema()));
        let t = tree(seed, n);
        let accepted = src.supports(Some(&t), &all_attrs());
        prop_assert_eq!(accepted, is_conjunctive(&t), "{}", t);
    }

    /// Permutation closure never *loses* acceptance: anything the original
    /// grammar accepts, the closed grammar accepts with the same exports.
    #[test]
    fn closure_preserves_acceptance(seed in 0u64..100_000, n in 1usize..6) {
        let desc = templates::car_dealer();
        let closed = permutation_closure(&desc, DEFAULT_MAX_SEGMENTS).desc;
        let orig = CompiledSource::new(desc);
        let closed = CompiledSource::new(closed);
        // Conditions shaped like the dealer's forms.
        let mut g = CondGen::new(seed, vec![
            GenAttr::strings("make", &["BMW", "Toyota"]),
            GenAttr::ints("price", 10_000, 50_000, 10_000),
            GenAttr::strings("color", &["red", "black"]),
        ]);
        let t = g.tree(&CondGenConfig { n_atoms: n, max_depth: 2, and_bias: 0.9, eq_bias: 0.5 });
        let orig_export = orig.check(Some(&t));
        if !orig_export.is_empty() {
            let closed_export = closed.check(Some(&t));
            for set in orig_export.sets() {
                prop_assert!(
                    closed_export.covers(&set),
                    "closure lost export {:?} for {}",
                    set,
                    t
                );
            }
        }
    }

    /// For any condition the *closed* grammar accepts, admission on the
    /// original grammar finds an ordering it accepts — and the admitted
    /// condition has the same atom multiset.
    #[test]
    fn fix_order_recovers_gate_acceptance(seed in 0u64..100_000) {
        let desc = templates::car_dealer();
        let closed_desc = permutation_closure(&desc, DEFAULT_MAX_SEGMENTS).desc;
        let orig = CompiledSource::new(desc);
        let closed = CompiledSource::new(closed_desc);
        let mut g = CondGen::new(seed, vec![
            GenAttr::strings("make", &["BMW", "Toyota", "Honda"]),
            GenAttr::ints("price", 10_000, 50_000, 5_000),
            GenAttr::strings("color", &["red", "black", "blue"]),
        ]);
        let t = g.tree(&CondGenConfig { n_atoms: 2, max_depth: 2, and_bias: 1.0, eq_bias: 0.5 });
        let attrs: BTreeSet<String> = ["model".to_string()].into_iter().collect();
        if closed.supports(Some(&t), &attrs) {
            let admitted = orig.admit(Some(&t), &attrs);
            prop_assert!(admitted.is_some(), "admission failed for {}", t);
            let admitted = admitted.unwrap();
            prop_assert_eq!(admitted.attrs(), &attrs);
            let fixed = admitted.cond().expect("a condition stays a condition");
            prop_assert!(orig.supports(Some(fixed), &attrs));
            // Same atoms, possibly different order.
            let mut a1: Vec<String> = t.atoms().iter().map(|a| a.to_string()).collect();
            let mut a2: Vec<String> = fixed.atoms().iter().map(|a| a.to_string()).collect();
            a1.sort();
            a2.sort();
            prop_assert_eq!(a1, a2);
        }
    }

    /// Text round-trip: every template description reparses identically
    /// after closure, too.
    #[test]
    fn closed_descriptions_round_trip(max_segments in 2usize..6) {
        for desc in [templates::car_dealer(), templates::bank(), templates::bookstore()] {
            let closed = permutation_closure(&desc, max_segments).desc;
            let text = closed.to_text();
            let back = csqp_ssdl::parse_ssdl(&text).unwrap();
            prop_assert_eq!(closed, back);
        }
    }
}
