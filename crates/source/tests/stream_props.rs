//! Property tests: a streamed source answer against the materialized one,
//! over generated relations built to stress the scan's dedup.
//!
//! Each relation mixes a duplicate-heavy column, a float column holding
//! `0.0` and `-0.0`, two NaN bit patterns, and an `Int` beside a `Float` of
//! equal numeric value, a string column, and a column that is unique in
//! some cases and repeats in others. For every non-empty projection and a
//! random condition, admitted, [`Source::open`] must ship the rows
//! [`Source::answer`] returns, in the same order, and leave the same
//! meter, whether or not the projection keeps a column the statistics call
//! unique. A stream closed mid-scan must hand
//! back exactly the set it shipped.

use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::{Value, ValueType};
use csqp_relation::{Relation, Schema, TableStats, Tuple};
use csqp_source::{CostParams, Source};
use csqp_ssdl::{templates, Admitted};
use proptest::prelude::*;
use std::collections::BTreeSet;

const COLUMNS: [(&str, ValueType); 4] =
    [("d", ValueType::Int), ("f", ValueType::Float), ("s", ValueType::Str), ("u", ValueType::Int)];

/// SplitMix64: the test's own stream, so a case replays from its seed.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Values `Eq` tells apart although they compare equal numerically or
/// print alike: signed zeros, NaN payloads, `Int(1)` and `Float(1.0)`.
fn tricky_floats() -> [Value; 6] {
    let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
    [
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(nan2),
        Value::Float(1.0),
        Value::Int(1),
    ]
}

/// Up to `rows` rows (the relation drops whole-row repeats). `u` is the row
/// number when `unique_u`, else one of three values.
fn relation(mix: &mut Mix, rows: usize, unique_u: bool) -> Relation {
    let schema = Schema::new("t", COLUMNS.to_vec(), &[]).unwrap();
    let floats = tricky_floats();
    let rows = (0..rows)
        .map(|i| {
            vec![
                Value::Int(mix.below(3) as i64),
                floats[mix.below(floats.len() as u64) as usize].clone(),
                Value::str(["x", "y"][mix.below(2) as usize]),
                Value::Int(if unique_u { i as i64 } else { mix.below(3) as i64 }),
            ]
        })
        .collect();
    Relation::from_rows(schema, rows)
}

fn source(r: Relation) -> Source {
    Source::new(r, templates::full_relational("t", &COLUMNS), CostParams::default())
}

fn gen_attrs() -> Vec<GenAttr> {
    vec![
        GenAttr::ints("d", 0, 2, 1),
        GenAttr {
            name: "f".into(),
            ty: ValueType::Float,
            pool: vec![Value::Float(0.0), Value::Float(-0.0), Value::Float(0.5), Value::Float(1.0)],
        },
        GenAttr::strings("s", &["x", "y"]),
        GenAttr::ints("u", 0, 20, 1),
    ]
}

fn drain(s: &Source, q: &Admitted, batch: usize) -> Vec<Tuple> {
    let mut stream = s.open(q, batch).1.unwrap();
    let mut got = Vec::new();
    while let Some(b) = stream.next_batch().unwrap() {
        got.extend(b.into_tuples());
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn streamed_answer_is_the_materialized_answer_for_every_projection(
        seed in 0u64..u64::MAX,
        rows in 0usize..40,
        unique_u in 0u8..2,
        batch in 1usize..8,
    ) {
        let mut mix = Mix(seed);
        let r = relation(&mut mix, rows, unique_u == 1);
        let stats = TableStats::build(&r);
        let tuples = r.tuples();
        for (ci, (name, _)) in COLUMNS.iter().enumerate() {
            let repeats = (0..tuples.len())
                .any(|i| (0..i).any(|j| tuples[i].values()[ci] == tuples[j].values()[ci]));
            prop_assert_eq!(stats.is_unique(name), !repeats, "column {}", name);
        }
        prop_assert!(unique_u == 0 || stats.is_unique("u"));
        let mut g = CondGen::new(seed, gen_attrs());
        let n_atoms = 1 + mix.below(3) as usize;
        let cond = (mix.below(4) != 0).then(|| {
            g.tree(&CondGenConfig { n_atoms, max_depth: 2, and_bias: 0.5, eq_bias: 0.5 })
        });
        // One pair of sources serves every projection: both see the same
        // calls, so their meters stay equal.
        let (oracle_src, streamed_src) = (source(r.clone()), source(r));
        for mask in 1u32..(1 << COLUMNS.len()) {
            let attrs: BTreeSet<String> = COLUMNS
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, (n, _))| n.to_string())
                .collect();
            let q = oracle_src.gate_view().admit(cond.as_ref(), &attrs).expect("accepts all");
            let oracle = oracle_src.answer(&q).unwrap();
            let got = drain(&streamed_src, &q, batch);
            prop_assert_eq!(got.as_slice(), oracle.tuples(), "attrs {:?} cond {:?}", attrs, cond);
            prop_assert_eq!(streamed_src.meter(), oracle_src.meter());

            // Closed after one pull: the taken set is what shipped, and the
            // meters restart level.
            let mut stream = streamed_src.open(&q, batch).1.unwrap();
            let shipped = stream.next_batch().unwrap().map(|b| b.into_tuples()).unwrap_or_default();
            let set = stream.take_shipped();
            prop_assert_eq!(set.len(), shipped.len());
            prop_assert!(shipped.iter().all(|t| set.contains(t)));
            streamed_src.reset_meter();
            oracle_src.reset_meter();
        }
    }
}
