//! In-memory relations with set semantics.
//!
//! The paper models each Internet source as a relation (§3, footnote 1).
//! Mediator postprocessing (union, intersection) is set-oriented, so
//! relations deduplicate on construction.

use crate::schema::{Schema, SchemaError};
use crate::tuple::{Row, Tuple};
use csqp_expr::Value;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// 64-bit fingerprint of a tuple, used by [`Relation`]'s dedup index and the
/// streaming dedup sketch. `DefaultHasher::new()` is keyed with fixed
/// constants, so fingerprints are stable across runs (reproducibility).
pub fn tuple_fingerprint(t: &Tuple) -> u64 {
    #[cfg(test)]
    if COLLIDE.with(std::cell::Cell::get) {
        return 0;
    }
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// [`tuple_fingerprint`] of `t.project(indices)`, computed in place: the
/// projection is never built, so a scan can fingerprint the rows it is
/// about to drop as duplicates without cloning them.
pub fn projected_fingerprint(t: &Tuple, indices: &[usize]) -> u64 {
    #[cfg(test)]
    if COLLIDE.with(std::cell::Cell::get) {
        return 0;
    }
    // Mirrors `Hash for [Value]`: the length prefix, then each element.
    let mut h = DefaultHasher::new();
    h.write_usize(indices.len());
    for &i in indices {
        t.values()[i].hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
thread_local! {
    /// Test-only override: while set, every fingerprint on this thread is
    /// 0, so every entry collides and exactness rests on the overflow path.
    pub(crate) static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Hasher for fingerprint keys: they are already uniform 64-bit values, so
/// the map uses them as they are instead of hashing them a second time.
/// The keys fingerprint relation data the program holds, never request
/// input, so dropping the map's randomized second hash exposes nothing.
#[derive(Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint keys hash via write_u64");
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }
}

/// An exact set keyed by 64-bit fingerprints, the one layout behind
/// [`Relation`]'s dedup index, the streaming
/// [`DedupSketch`](crate::stream::DedupSketch) and a source stream's seen
/// set. The first entry under a fingerprint lives in a map that uses the
/// fingerprint as its hash; a further *distinct* entry under a taken
/// fingerprint goes to a short overflow list, so membership stays exact.
/// The caller supplies equality: an entry is the value itself or an index
/// into rows the caller owns.
#[derive(Debug, Clone)]
pub struct FingerprintIndex<V> {
    first: HashMap<u64, V, BuildHasherDefault<FingerprintHasher>>,
    overflow: Vec<(u64, V)>,
}

impl<V> Default for FingerprintIndex<V> {
    fn default() -> Self {
        FingerprintIndex { first: HashMap::default(), overflow: Vec::new() }
    }
}

impl<V> FingerprintIndex<V> {
    /// The entry under `fp` that `same` accepts, if any.
    pub fn find(&self, fp: u64, mut same: impl FnMut(&V) -> bool) -> Option<&V> {
        let head = self.first.get(&fp)?;
        if same(head) {
            return Some(head);
        }
        self.overflow.iter().find(|(f, v)| *f == fp && same(v)).map(|(_, v)| v)
    }

    /// Inserts `make()` under `fp` unless an entry there already satisfies
    /// `same`; returns `true` if it inserted.
    pub fn insert_with(
        &mut self,
        fp: u64,
        mut same: impl FnMut(&V) -> bool,
        make: impl FnOnce() -> V,
    ) -> bool {
        match self.first.entry(fp) {
            Entry::Vacant(e) => {
                e.insert(make());
                true
            }
            Entry::Occupied(e) => {
                if same(e.get()) || self.overflow.iter().any(|(f, v)| *f == fp && same(v)) {
                    return false;
                }
                self.overflow.push((fp, make()));
                true
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.first.len() + self.overflow.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// Every entry with its fingerprint, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.first.iter().map(|(f, v)| (*f, v)).chain(self.overflow.iter().map(|(f, v)| (*f, v)))
    }

    /// Consumes the index, yielding every entry with its fingerprint.
    pub fn into_entries(self) -> impl Iterator<Item = (u64, V)> {
        self.first.into_iter().chain(self.overflow)
    }
}

/// An in-memory relation: a schema plus a duplicate-free set of tuples
/// (insertion order preserved for reproducibility).
///
/// Dedup runs on a [`FingerprintIndex`] of positions in `tuples`, so each
/// tuple is stored once; colliding fingerprints fall back to an exact
/// comparison against the indexed tuples.
///
/// The tuples and their index are shared: a clone shares both, and
/// [`Relation::insert`] copies them first only while another clone holds
/// them (copy-on-write). So mirrors built from one relation hold its rows
/// once, and a source stream's batches select over the very rows the
/// relation stores ([`Relation::shared_tuples`]).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    tuples: Arc<Vec<Tuple>>,
    index: Arc<FingerprintIndex<u32>>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Relation { schema, tuples: Arc::default(), index: Arc::default() }
    }

    /// Builds a relation from rows, deduplicating.
    ///
    /// # Panics
    /// Panics if any tuple's arity does not match the schema (construction
    /// bug, not a runtime condition).
    pub fn from_tuples(schema: Arc<Schema>, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut r = Relation::empty(schema);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Convenience: builds from rows of plain values.
    pub fn from_rows(schema: Arc<Schema>, rows: Vec<Vec<Value>>) -> Self {
        Self::from_tuples(schema, rows.into_iter().map(Tuple::new))
    }

    /// Inserts a tuple (no-op on duplicates). Returns `true` if inserted.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        assert_eq!(
            tuple.arity(),
            self.schema.columns.len(),
            "tuple arity {} does not match schema {}",
            tuple.arity(),
            self.schema
        );
        let (tuples, index) = (Arc::make_mut(&mut self.tuples), Arc::make_mut(&mut self.index));
        let next = tuples.len() as u32;
        let fresh =
            index.insert_with(tuple_fingerprint(&tuple), |&i| tuples[i as usize] == tuple, || next);
        if fresh {
            tuples.push(tuple);
        }
        fresh
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples, in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The tuples, in insertion order, in the store this relation shares
    /// with its clones: a batch that selects over them holds this `Arc`.
    pub fn shared_tuples(&self) -> &Arc<Vec<Tuple>> {
        &self.tuples
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.index.find(tuple_fingerprint(t), |&i| self.tuples[i as usize] == *t).is_some()
    }

    /// Iterates schema-aware rows.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.tuples.iter().map(move |t| Row::new(&self.schema, t))
    }

    /// Checks that `other` can be combined with `self` (same column list).
    pub fn check_compatible(&self, other: &Relation) -> Result<(), SchemaError> {
        if self.schema.compatible_with(other.schema()) {
            Ok(())
        } else {
            Err(SchemaError::Incompatible {
                left: self.schema.name.clone(),
                right: other.schema.name.clone(),
            })
        }
    }
}

impl PartialEq for Relation {
    /// Set equality: same schema columns and same tuple set (order ignored).
    fn eq(&self, other: &Self) -> bool {
        self.schema.compatible_with(&other.schema)
            && self.len() == other.len()
            && self.tuples.iter().all(|t| other.contains(t))
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_expr::ValueType;

    fn schema() -> Arc<Schema> {
        Schema::new("t", vec![("a", ValueType::Int), ("b", ValueType::Str)], &["a"]).unwrap()
    }

    fn v(a: i64, b: &str) -> Vec<Value> {
        vec![Value::Int(a), Value::str(b)]
    }

    #[test]
    fn dedup_on_insert() {
        let r = Relation::from_rows(schema(), vec![v(1, "x"), v(2, "y"), v(1, "x")]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Tuple::new(v(1, "x"))));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::empty(schema());
        r.insert(Tuple::new(vec![Value::Int(1)]));
    }

    #[test]
    fn projected_fingerprint_is_the_projection_fingerprint() {
        let cars = crate::datagen::cars(2, 50);
        for cols in [&[][..], &[0usize], &[3, 0], &[0, 1, 2, 3, 4], &[4, 4]] {
            for t in cars.tuples() {
                assert_eq!(projected_fingerprint(t, cols), tuple_fingerprint(&t.project(cols)));
            }
        }
    }

    #[test]
    fn relation_dedup_matches_a_btreeset_even_when_every_fingerprint_collides() {
        let cars = crate::datagen::cars(4, 200);
        let (schema, cols) =
            crate::stream::project_indices(cars.schema(), &["make", "year"]).unwrap();
        for collide in [false, true] {
            COLLIDE.with(|f| f.set(collide));
            let mut r = Relation::empty(schema.clone());
            let mut oracle = std::collections::BTreeSet::new();
            let mut order = Vec::new();
            for t in cars.tuples() {
                let p = t.project(&cols);
                let fresh = oracle.insert(p.clone());
                if fresh {
                    order.push(p.clone());
                }
                assert_eq!(r.insert(p), fresh, "collide={collide}");
            }
            assert_eq!(r.tuples(), order.as_slice(), "first-seen order, collide={collide}");
            assert!(order.iter().all(|t| r.contains(t)));
            assert!(!r.contains(&Tuple::new(v(0, "absent"))));
        }
        COLLIDE.with(|f| f.set(false));
    }

    #[test]
    fn clones_share_rows_and_insert_copies_on_write() {
        let r = Relation::from_rows(schema(), vec![v(1, "x"), v(2, "y")]);
        let mut c = r.clone();
        assert!(Arc::ptr_eq(r.shared_tuples(), c.shared_tuples()), "a clone shares the rows");
        assert!(!c.insert(Tuple::new(v(1, "x"))), "a duplicate changes nothing");
        assert!(c.insert(Tuple::new(v(3, "z"))));
        assert!(!Arc::ptr_eq(r.shared_tuples(), c.shared_tuples()));
        assert_eq!((r.len(), c.len()), (2, 3));
        assert!(!r.contains(&Tuple::new(v(3, "z"))), "the original is unchanged");
        assert_eq!(r.tuples(), &c.tuples()[..2]);
    }

    #[test]
    fn set_equality_ignores_order() {
        let r1 = Relation::from_rows(schema(), vec![v(1, "x"), v(2, "y")]);
        let r2 = Relation::from_rows(schema(), vec![v(2, "y"), v(1, "x")]);
        assert_eq!(r1, r2);
        let r3 = Relation::from_rows(schema(), vec![v(1, "x")]);
        assert_ne!(r1, r3);
    }

    #[test]
    fn rows_iterate_in_insertion_order() {
        let r = Relation::from_rows(schema(), vec![v(3, "c"), v(1, "a"), v(2, "b")]);
        let firsts: Vec<i64> = r
            .rows()
            .map(|row| match row.get_attr("a") {
                Some(Value::Int(i)) => *i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(firsts, vec![3, 1, 2]);
    }

    #[test]
    fn compatibility_check() {
        let r1 = Relation::empty(schema());
        let r2 = Relation::empty(schema());
        assert!(r1.check_compatible(&r2).is_ok());
        let other = Schema::new("o", vec![("a", ValueType::Int)], &[]).unwrap();
        let r3 = Relation::empty(other);
        assert!(r1.check_compatible(&r3).is_err());
    }

    use csqp_expr::semantics::AttrLookup;
}
