//! Pull-based batch streaming: bounded [`TupleBatch`]es flowing through
//! Volcano-style operators.
//!
//! The materialized operators in [`crate::ops`] build whole relations; under
//! the paper's cost model (§7, `cost = Σ k1 + k2·|result(sq)|`) per-tuple
//! transfer dominates, and a latency-bound mediator wants to start shipping
//! answer tuples before any source finishes. This module provides the
//! substrate for that: a batch container, a pull protocol ([`TupleStream`]),
//! batch-level `select`/`project` transforms (and their fused one-pass
//! form, [`select_project_batch`]), and an exact
//! fingerprint-keyed [`DedupSketch`] shared by every set-semantics
//! consumer. The operators themselves (local σ/π, union, intersect) live in
//! the one engine, `csqp_plan::exec_stream`. Memory stays proportional to
//! `batch_size × pipeline depth` (plus the dedup state), not to `|result|`.
//!
//! Determinism: batches preserve producer order and [`DedupSketch`] keeps
//! first-seen tuples — so a drained stream yields exactly the tuple
//! sequence the materialized operators would produce.

use crate::relation::{tuple_fingerprint, FingerprintIndex, Relation};
use crate::schema::{Schema, SchemaError};
use crate::tuple::{Row, Tuple};
use csqp_expr::semantics::BoundCond;
use csqp_expr::CondTree;
use std::sync::Arc;

/// Default number of tuples per batch. Small enough that a three-deep
/// pipeline stays in cache; large enough to amortize per-batch accounting.
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// A bounded, ordered batch of tuples sharing one schema — the unit of
/// exchange in the pull protocol.
#[derive(Debug, Clone)]
pub struct TupleBatch {
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
}

impl TupleBatch {
    /// Builds a batch. Tuples must match the schema's arity (checked in
    /// debug builds only; producers are trusted on the hot path).
    pub fn new(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Self {
        debug_assert!(tuples.iter().all(|t| t.arity() == schema.columns.len()));
        TupleBatch { schema, tuples }
    }

    /// The batch schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples, in producer order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Consumes the batch, yielding its tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Iterates schema-aware rows.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.tuples.iter().map(move |t| Row { schema: &self.schema, tuple: t })
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
/// operator's membership sides.
#[derive(Debug, Default)]
pub struct DedupSketch {
    tuples: FingerprintIndex<Tuple>,
}

impl DedupSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
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

/// `σ_C` over one batch: keeps tuples satisfying the condition (`None` =
/// keep all). Bag semantics — dedup is the pipeline root's job. The
/// condition is bound to the batch schema once, not resolved per row.
pub fn select_batch(batch: &TupleBatch, cond: Option<&CondTree>) -> TupleBatch {
    let bound = cond.map(|c| BoundCond::bind(c, |a| batch.schema.col_index(a)));
    let kept = batch
        .tuples
        .iter()
        .filter(|t| bound.as_ref().is_none_or(|c| c.eval(t.values())))
        .cloned()
        .collect();
    TupleBatch::new(batch.schema.clone(), kept)
}

/// `π_A(σ_C)` over one batch in one pass: `cond` is bound to the batch
/// schema, `indices` come from [`project_indices`], and each kept tuple is
/// copied once, already projected. Equal, as a bag in order, to
/// [`project_batch`] of [`select_batch`].
pub fn select_project_batch(
    batch: &TupleBatch,
    cond: Option<&BoundCond>,
    out_schema: &Arc<Schema>,
    indices: &[usize],
) -> TupleBatch {
    let tuples = batch
        .tuples
        .iter()
        .filter(|t| cond.is_none_or(|c| c.eval(t.values())))
        .map(|t| t.project(indices))
        .collect();
    TupleBatch::new(out_schema.clone(), tuples)
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

/// `π_A` over one batch, using indices from [`project_indices`]. Bag
/// semantics — duplicates created by a lossy projection survive until a
/// dedup consumer collapses them.
pub fn project_batch(
    batch: &TupleBatch,
    out_schema: &Arc<Schema>,
    indices: &[usize],
) -> TupleBatch {
    let tuples = batch.tuples.iter().map(|t| t.project(indices)).collect();
    TupleBatch::new(out_schema.clone(), tuples)
}

/// Scans an owned relation in fixed-size batches (the stream leaf).
pub struct RelationScan {
    schema: Arc<Schema>,
    tuples: std::vec::IntoIter<Tuple>,
    batch_size: usize,
}

impl RelationScan {
    /// Builds a scan; `batch_size` must be non-zero.
    pub fn new(rel: Relation, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be non-zero");
        let schema = rel.schema().clone();
        RelationScan { schema, tuples: rel.into_tuples().into_iter(), batch_size }
    }
}

impl TupleStream for RelationScan {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Option<TupleBatch> {
        let chunk: Vec<Tuple> = self.tuples.by_ref().take(self.batch_size).collect();
        if chunk.is_empty() {
            None
        } else {
            Some(TupleBatch::new(self.schema.clone(), chunk))
        }
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
