//! Pull-based batch streaming: bounded [`TupleBatch`]es flowing through
//! Volcano-style operators.
//!
//! The materialized operators in [`crate::ops`] build whole relations; under
//! the paper's cost model (§7, `cost = Σ k1 + k2·|result(sq)|`) per-tuple
//! transfer dominates, and a latency-bound mediator wants to start shipping
//! answer tuples before any source finishes. This module provides the
//! substrate for that: a batch container, a pull protocol ([`TupleStream`]),
//! and an exact fingerprint-keyed [`DedupSketch`] shared by every
//! set-semantics consumer. The operators themselves (local σ/π, union,
//! intersect) live in the one engine, `csqp_plan::exec_stream`. Memory
//! stays proportional to `batch_size × pipeline depth` (plus the dedup
//! state), not to `|result|`.
//!
//! A batch is a *view*: a selection of positions into a shared row store
//! (a source relation's own tuples), seen through a projection. Selecting,
//! projecting, deduplicating and truncating a batch edit the selection or
//! the projection; no operator copies a row, and a row is cloned only
//! where it is kept beyond the batch (a dedup sketch's fresh entry, a
//! collected answer).
//!
//! Determinism: batches preserve producer order and [`DedupSketch`] keeps
//! first-seen tuples — so a drained stream yields exactly the tuple
//! sequence the materialized operators would produce.

use crate::relation::{tuple_fingerprint, FingerprintIndex, Relation};
use crate::schema::{Schema, SchemaError};
use crate::tuple::{column_prefix, Row, Tuple};
use csqp_expr::semantics::BoundCond;
use csqp_expr::CondTree;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Default number of tuples per batch. Small enough that a three-deep
/// pipeline stays in cache; large enough to amortize per-batch accounting.
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// A bounded, ordered batch of rows sharing one schema — the unit of
/// exchange in the pull protocol: the positions `sel` of a shared row
/// store, each seen through the projection `cols` (`None`: whole rows).
#[derive(Clone)]
pub struct TupleBatch {
    schema: Arc<Schema>,
    store: Arc<Vec<Tuple>>,
    sel: Vec<u32>,
    cols: Option<Arc<[usize]>>,
    /// The rows as tuples, built on the first [`TupleBatch::tuples`] call.
    materialized: OnceLock<Vec<Tuple>>,
}

impl TupleBatch {
    /// A batch of exactly `tuples`, in order. Tuples must match the
    /// schema's arity (checked in debug builds only; producers are trusted
    /// on the hot path).
    pub fn new(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Self {
        debug_assert!(tuples.iter().all(|t| t.arity() == schema.columns.len()));
        let sel = (0..tuples.len() as u32).collect();
        TupleBatch::view(schema, Arc::new(tuples), sel, None)
    }

    /// The rows at positions `sel` of `store`, in that order, each seen
    /// through the column positions `cols` (`None`: the whole row).
    pub fn view(
        schema: Arc<Schema>,
        store: Arc<Vec<Tuple>>,
        sel: Vec<u32>,
        cols: Option<Arc<[usize]>>,
    ) -> Self {
        debug_assert!(cols.as_deref().is_none_or(|c| c.len() == schema.columns.len()));
        TupleBatch { schema, store, sel, cols, materialized: OnceLock::new() }
    }

    /// The batch schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The row store the batch selects from.
    pub fn store(&self) -> &Arc<Vec<Tuple>> {
        &self.store
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Iterates the rows, in producer order.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        let cols = self.cols.as_deref();
        self.sel.iter().map(move |&i| Row::projected(&self.schema, &self.store[i as usize], cols))
    }

    /// Appends every row to `out` as its `Display` plus `\n`, building the
    /// schema's column prefixes (`model=`, `, year=`, …) once for the batch.
    pub fn write_rows(&self, out: &mut Vec<u8>) {
        let prefixes: Vec<Vec<u8>> = (0..self.schema.columns.len())
            .map(|i| {
                let mut p = Vec::new();
                column_prefix(&self.schema, i, &mut p);
                p
            })
            .collect();
        for row in self.rows() {
            row.write_with(out, |i, out| out.extend_from_slice(&prefixes[i]));
            out.push(b'\n');
        }
    }

    /// Keeps the rows `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(Row<'_>) -> bool) {
        let (schema, store, cols) = (&self.schema, &self.store, self.cols.as_deref());
        self.sel.retain(|&i| keep(Row::projected(schema, &store[i as usize], cols)));
        self.materialized = OnceLock::new();
    }

    /// `σ_C`: keeps the rows satisfying `cond`, bound to the batch schema.
    pub fn filter(&mut self, cond: &BoundCond) {
        self.retain(|row| cond.eval_with(|i| row.get(i)));
    }

    /// Keeps the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        self.sel.truncate(n);
        self.materialized = OnceLock::new();
    }

    /// `π`: the batch seen through columns `indices` of its schema, which
    /// becomes `schema` (see [`project_indices`]). The new projection is
    /// composed with the old one; no row is touched. Bag semantics —
    /// duplicates created by a lossy projection survive until a dedup
    /// consumer collapses them.
    pub fn project_columns(self, schema: &Arc<Schema>, indices: &[usize]) -> Self {
        let cols = match self.cols.as_deref() {
            None => indices.into(),
            Some(cols) => indices.iter().map(|&i| cols[i]).collect(),
        };
        TupleBatch::view(schema.clone(), self.store, self.sel, Some(cols))
    }

    /// The same rows under `schema`, which must have the batch schema's
    /// columns (a union relabels its children's batches with its own).
    pub fn with_schema(mut self, schema: Arc<Schema>) -> Self {
        debug_assert!(schema.compatible_with(&self.schema));
        self.schema = schema;
        self
    }

    /// Consumes the batch, yielding copies of its rows as tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.rows().map(|r| r.to_tuple()).collect()
    }

    /// Inserts copies of the rows into `rel` (a collector's answer).
    pub fn insert_into(&self, rel: &mut Relation) {
        for row in self.rows() {
            rel.insert(row.to_tuple());
        }
    }

    /// The rows as tuples, built once on first use. Kept for callers built
    /// against it; [`TupleBatch::rows`] reads the rows without copying them.
    #[doc(hidden)]
    pub fn tuples(&self) -> &[Tuple] {
        self.materialized.get_or_init(|| self.rows().map(|r| r.to_tuple()).collect())
    }
}

impl fmt::Debug for TupleBatch {
    /// The schema and the rows the batch shows, not its whole store.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Tuple> = self.rows().map(|r| r.to_tuple()).collect();
        f.debug_struct("TupleBatch").field("schema", &self.schema).field("rows", &rows).finish()
    }
}

/// The pull protocol: a consumer repeatedly asks for the next batch until
/// `None` (end of stream). Implementations may produce empty batches (e.g.
/// a selection that filtered a whole input batch away); consumers must treat
/// them as "keep pulling", not end-of-stream.
pub trait TupleStream {
    /// The schema every produced batch carries.
    fn schema(&self) -> &Arc<Schema>;

    /// Pulls the next batch; `None` once the stream is exhausted.
    fn next_batch(&mut self) -> Option<TupleBatch>;
}

/// An exact duplicate filter: a [`FingerprintIndex`] holding each distinct
/// tuple once under its 64-bit fingerprint, with full-tuple comparison on a
/// fingerprint hit — a *sketch* only in layout, never in answer quality.
/// Shared by the engine's union/dedup consumers and by its intersect
/// operator's membership sides. A batch row is hashed and compared where
/// it sits and cloned only when it is fresh.
#[derive(Debug, Default)]
pub struct DedupSketch {
    tuples: FingerprintIndex<Tuple>,
}

impl DedupSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the row's tuple; returns `true` if it was not already
    /// present.
    pub fn insert_row(&mut self, row: Row<'_>) -> bool {
        self.tuples.insert_with(row.fingerprint(), |u| row.matches(u), || row.to_tuple())
    }

    /// Exact membership test of the row's tuple.
    pub fn contains_row(&self, row: Row<'_>) -> bool {
        self.tuples.find(row.fingerprint(), |u| row.matches(u)).is_some()
    }

    /// Inserts the tuple; returns `true` if it was not already present.
    pub fn insert(&mut self, t: &Tuple) -> bool {
        self.tuples.insert_with(tuple_fingerprint(t), |u| u == t, || t.clone())
    }

    /// Exact membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.find(tuple_fingerprint(t), |u| u == t).is_some()
    }

    /// Absorbs another sketch: afterwards `self` contains the union of
    /// both tuple sets. Used by the adaptive executor to fold a finished
    /// pipeline segment's root sketch into the persistent emitted set
    /// instead of double-inserting every tuple while the segment runs.
    pub fn absorb(&mut self, other: DedupSketch) {
        if self.is_empty() {
            *self = other;
            return;
        }
        for (fp, t) in other.tuples.into_entries() {
            if self.tuples.find(fp, |u| *u == t).is_none() {
                self.tuples.insert_with(fp, |_| false, || t);
            }
        }
    }

    /// Number of distinct tuples inserted.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the sketch empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// `σ_C` over one batch: keeps rows satisfying the condition (`None` =
/// keep all). Bag semantics — dedup is the pipeline root's job. The
/// condition is bound to the batch schema once, not resolved per row.
pub fn select_batch(batch: &TupleBatch, cond: Option<&CondTree>) -> TupleBatch {
    let mut out = batch.clone();
    if let Some(c) = cond {
        out.filter(&BoundCond::bind(c, |a| batch.schema.col_index(a)));
    }
    out
}

/// Resolves a projection: output schema plus the input column indices to
/// keep, shared by the batch transform and stream-open logic.
pub fn project_indices(
    schema: &Arc<Schema>,
    attrs: &[&str],
) -> Result<(Arc<Schema>, Vec<usize>), SchemaError> {
    let out = schema.project(attrs)?;
    let indices = out
        .columns
        .iter()
        .map(|c| schema.col_index(&c.name).expect("projected column exists"))
        .collect();
    Ok((out, indices))
}

/// Scans a relation in fixed-size batches (the stream leaf): each batch
/// selects over the relation's shared tuples.
pub struct RelationScan {
    schema: Arc<Schema>,
    store: Arc<Vec<Tuple>>,
    cursor: usize,
    batch_size: usize,
}

impl RelationScan {
    /// Builds a scan; `batch_size` must be non-zero.
    pub fn new(rel: Relation, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be non-zero");
        let (schema, store) = (rel.schema().clone(), rel.shared_tuples().clone());
        RelationScan { schema, store, cursor: 0, batch_size }
    }
}

impl TupleStream for RelationScan {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Option<TupleBatch> {
        let end = (self.cursor + self.batch_size).min(self.store.len());
        if self.cursor == end {
            return None;
        }
        let sel = (self.cursor as u32..end as u32).collect();
        self.cursor = end;
        Some(TupleBatch::view(self.schema.clone(), self.store.clone(), sel, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use crate::schema::Schema;
    use csqp_expr::{Value, ValueType};

    fn schema() -> Arc<Schema> {
        Schema::new("t", vec![("a", ValueType::Int), ("b", ValueType::Str)], &["a"]).unwrap()
    }

    fn rel(rows: Vec<(i64, &str)>) -> Relation {
        Relation::from_rows(
            schema(),
            rows.into_iter().map(|(a, b)| vec![Value::Int(a), Value::str(b)]).collect(),
        )
    }

    #[test]
    fn scan_batches_cover_relation_in_order() {
        let r = rel((0..10).map(|i| (i, "x")).collect());
        let mut scan = RelationScan::new(r.clone(), 3);
        let mut seen = Vec::new();
        let mut batches = 0;
        while let Some(b) = scan.next_batch() {
            assert!(b.len() <= 3);
            batches += 1;
            seen.extend(b.into_tuples());
        }
        assert_eq!(batches, 4);
        assert_eq!(seen, r.tuples());
    }

    #[test]
    fn a_batch_is_a_view_over_shared_rows() {
        let r = rel((0..10).map(|i| (i, "x")).collect());
        let mut b = RelationScan::new(r.clone(), 4).next_batch().unwrap();
        assert!(Arc::ptr_eq(b.store(), r.shared_tuples()), "a scan batch copies no row");
        assert_eq!(b.tuples(), &r.tuples()[..4]);
        b.retain(|row| row.get(0) != Some(&Value::Int(1)));
        let kept = [0, 2, 3].map(|i| r.tuples()[i].clone());
        assert_eq!(b.tuples(), kept, "a retain drops the materialized rows");
        b.truncate(2);
        assert_eq!(b.len(), 2);
        let (only_b, idx) = project_indices(b.schema(), &["b"]).unwrap();
        let p = b.project_columns(&only_b, &idx);
        assert!(Arc::ptr_eq(p.store(), r.shared_tuples()));
        let rendered: Vec<String> = p.rows().map(|row| row.to_string()).collect();
        assert_eq!(rendered, ["(b=\"x\")", "(b=\"x\")"]);
        assert_eq!(p.into_tuples(), vec![Tuple::new(vec![Value::str("x")]); 2]);
        let own = TupleBatch::new(schema(), r.tuples().to_vec());
        assert_eq!(own.into_tuples(), r.tuples());
    }

    #[test]
    fn dedup_sketch_matches_a_btreeset_even_when_every_fingerprint_collides() {
        use crate::relation::COLLIDE;
        use std::collections::BTreeSet;
        let cars = datagen::cars(5, 240);
        // Lossy projections ((make, year), (color), (make, color, year))
        // make real duplicates, within each half and across the two.
        for cols in [&[0usize, 2][..], &[3], &[0, 3, 2]] {
            for collide in [false, true] {
                COLLIDE.with(|f| f.set(collide));
                let tuples: Vec<Tuple> = cars.tuples().iter().map(|t| t.project(cols)).collect();
                let (left, right) = tuples.split_at(tuples.len() / 2);
                let (mut sketch, mut oracle) = (DedupSketch::new(), BTreeSet::new());
                for t in left {
                    assert_eq!(sketch.insert(t), oracle.insert(t.clone()), "collide={collide}");
                }
                for t in &tuples {
                    assert_eq!(sketch.contains(t), oracle.contains(t), "collide={collide}");
                }
                let (mut other, mut empty) = (DedupSketch::new(), DedupSketch::new());
                for t in right {
                    other.insert(t);
                    oracle.insert(t.clone());
                }
                sketch.absorb(other);
                assert_eq!(sketch.len(), oracle.len(), "collide={collide}");
                assert!(tuples.iter().all(|t| sketch.contains(t) && !sketch.insert(t)));
                let absent = Tuple::new(vec![Value::str("absent"); cols.len()]);
                assert!(!sketch.contains(&absent));
                empty.absorb(sketch);
                assert_eq!(empty.len(), oracle.len(), "absorbing into an empty sketch");
                assert!(oracle.iter().all(|t| empty.contains(t)));
            }
        }
        COLLIDE.with(|f| f.set(false));
    }

    #[test]
    fn dedup_sketch_is_exact() {
        let cars = datagen::cars(1, 200);
        let mut sketch = DedupSketch::new();
        for t in cars.tuples() {
            assert!(sketch.insert(t));
        }
        for t in cars.tuples() {
            assert!(!sketch.insert(t));
            assert!(sketch.contains(t));
        }
        assert_eq!(sketch.len(), cars.len());
    }
}
