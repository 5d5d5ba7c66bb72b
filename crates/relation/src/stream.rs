//! Pull-based batch streaming: bounded [`TupleBatch`]es flowing through
//! Volcano-style operators.
//!
//! The materialized operators in [`crate::ops`] build whole relations; under
//! the paper's cost model (§7, `cost = Σ k1 + k2·|result(sq)|`) per-tuple
//! transfer dominates, and a latency-bound mediator wants to start shipping
//! answer tuples before any source finishes. This module provides the
//! substrate for that: a batch container, a pull protocol ([`TupleStream`]),
//! batch-level `select`/`project` transforms, streaming `union`/`intersect`
//! operators, and an exact fingerprint-bucketed [`DedupSketch`] shared by
//! every set-semantics consumer. Memory stays proportional to
//! `batch_size × pipeline depth` (plus the dedup state), not to `|result|`.
//!
//! Determinism: batches preserve producer order, the streaming operators
//! visit children in declaration order, and [`DedupSketch`] keeps first-seen
//! tuples — so a drained stream yields exactly the tuple sequence the
//! materialized operators would produce.

use crate::relation::{tuple_fingerprint, Relation};
use crate::schema::{Schema, SchemaError};
use crate::tuple::{Row, Tuple};
use csqp_expr::semantics::eval;
use csqp_expr::CondTree;
use std::collections::HashMap;
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

    /// Drains the stream into a deduplicated [`Relation`].
    fn collect_relation(&mut self) -> Relation
    where
        Self: Sized,
    {
        let mut out = Relation::empty(self.schema().clone());
        while let Some(b) = self.next_batch() {
            for t in b.into_tuples() {
                out.insert(t);
            }
        }
        out
    }
}

/// An exact duplicate filter: fingerprint buckets with full-tuple collision
/// fallback, so it is a *sketch* only in layout (64-bit keys), never in
/// answer quality. Shared by streaming union/dedup consumers and by the
/// intersect operator's membership sides.
#[derive(Debug, Default)]
pub struct DedupSketch {
    buckets: HashMap<u64, Vec<Tuple>>,
    len: usize,
}

impl DedupSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the tuple; returns `true` if it was not already present.
    pub fn insert(&mut self, t: &Tuple) -> bool {
        let bucket = self.buckets.entry(tuple_fingerprint(t)).or_default();
        if bucket.iter().any(|u| u == t) {
            return false;
        }
        bucket.push(t.clone());
        self.len += 1;
        true
    }

    /// Exact membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.buckets.get(&tuple_fingerprint(t)).is_some_and(|b| b.iter().any(|u| u == t))
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
        for (fp, bucket) in other.buckets {
            let mine = self.buckets.entry(fp).or_default();
            for t in bucket {
                if !mine.iter().any(|u| u == &t) {
                    mine.push(t);
                    self.len += 1;
                }
            }
        }
    }

    /// Number of distinct tuples inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the sketch empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// `σ_C` over one batch: keeps tuples satisfying the condition (`None` =
/// keep all). Bag semantics — dedup is the pipeline root's job.
pub fn select_batch(batch: &TupleBatch, cond: Option<&CondTree>) -> TupleBatch {
    let kept = batch
        .rows()
        .filter(|row| match cond {
            None => true,
            Some(c) => eval(c, row),
        })
        .map(|row| row.tuple.clone())
        .collect();
    TupleBatch::new(batch.schema.clone(), kept)
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

/// Streaming `σ_C∘π_A`: selection then projection over each input batch —
/// the per-source postprocessing shape, fused so intermediate batches never
/// outlive one pull.
pub struct FilterProjectStream<S: TupleStream> {
    input: S,
    cond: Option<CondTree>,
    out_schema: Arc<Schema>,
    indices: Vec<usize>,
}

impl<S: TupleStream> FilterProjectStream<S> {
    /// Builds the fused operator over `input`.
    pub fn new(input: S, cond: Option<CondTree>, attrs: &[&str]) -> Result<Self, SchemaError> {
        let (out_schema, indices) = project_indices(input.schema(), attrs)?;
        Ok(FilterProjectStream { input, cond, out_schema, indices })
    }
}

impl<S: TupleStream> TupleStream for FilterProjectStream<S> {
    fn schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    fn next_batch(&mut self) -> Option<TupleBatch> {
        let batch = self.input.next_batch()?;
        let selected = select_batch(&batch, self.cond.as_ref());
        Some(project_batch(&selected, &self.out_schema, &self.indices))
    }
}

/// Streaming `∪`: drains children in declaration order, deduplicating
/// through a shared [`DedupSketch`], so output order matches the
/// materialized [`crate::ops::union`] fold.
pub struct UnionStream<S: TupleStream> {
    children: Vec<S>,
    current: usize,
    sketch: DedupSketch,
    schema: Arc<Schema>,
}

impl<S: TupleStream> UnionStream<S> {
    /// Builds the union; children must share a compatible schema.
    pub fn new(children: Vec<S>) -> Result<Self, SchemaError> {
        let schema = children.first().expect("union of at least one child").schema().clone();
        for c in &children[1..] {
            if !schema.compatible_with(c.schema()) {
                return Err(SchemaError::Incompatible {
                    left: schema.name.clone(),
                    right: c.schema().name.clone(),
                });
            }
        }
        Ok(UnionStream { children, current: 0, sketch: DedupSketch::new(), schema })
    }
}

impl<S: TupleStream> TupleStream for UnionStream<S> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Option<TupleBatch> {
        while self.current < self.children.len() {
            match self.children[self.current].next_batch() {
                Some(b) => {
                    let fresh: Vec<Tuple> =
                        b.into_tuples().into_iter().filter(|t| self.sketch.insert(t)).collect();
                    return Some(TupleBatch::new(self.schema.clone(), fresh));
                }
                None => self.current += 1,
            }
        }
        None
    }
}

/// Streaming `∩`: a pipeline breaker on all children but the first. Children
/// `2..n` are drained into membership sketches up front; the first child then
/// streams through those filters (plus a dedup sketch), so resident memory is
/// bounded by the *smaller* sides' cardinalities plus one batch — never by
/// the probe side or the result.
pub struct IntersectStream<S: TupleStream> {
    probe: S,
    members: Vec<DedupSketch>,
    sketch: DedupSketch,
    schema: Arc<Schema>,
}

impl<S: TupleStream> IntersectStream<S> {
    /// Builds the intersection, draining every child after the first.
    pub fn new(mut children: Vec<S>) -> Result<Self, SchemaError> {
        let probe = children.remove(0);
        let schema = probe.schema().clone();
        let mut members = Vec::with_capacity(children.len());
        for mut c in children {
            if !schema.compatible_with(c.schema()) {
                return Err(SchemaError::Incompatible {
                    left: schema.name.clone(),
                    right: c.schema().name.clone(),
                });
            }
            let mut m = DedupSketch::new();
            while let Some(b) = c.next_batch() {
                for t in b.tuples() {
                    m.insert(t);
                }
            }
            members.push(m);
        }
        Ok(IntersectStream { probe, members, sketch: DedupSketch::new(), schema })
    }
}

impl<S: TupleStream> TupleStream for IntersectStream<S> {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Option<TupleBatch> {
        let b = self.probe.next_batch()?;
        let kept: Vec<Tuple> = b
            .into_tuples()
            .into_iter()
            .filter(|t| self.members.iter().all(|m| m.contains(t)) && self.sketch.insert(t))
            .collect();
        Some(TupleBatch::new(self.schema.clone(), kept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use crate::ops;
    use crate::schema::Schema;
    use csqp_expr::parse::parse_condition;
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
    fn filter_project_matches_materialized() {
        let r = rel(vec![(1, "x"), (2, "y"), (3, "x"), (4, "y")]);
        let cond = parse_condition("a < 4").unwrap();
        let expected = ops::project(&ops::select(&r, Some(&cond)), &["b"]).unwrap();
        let scan = RelationScan::new(r, 2);
        let mut fp = FilterProjectStream::new(scan, Some(cond), &["b"]).unwrap();
        let got = fp.collect_relation();
        assert_eq!(got, expected);
    }

    #[test]
    fn union_stream_dedups_and_preserves_order() {
        let a = rel(vec![(1, "x"), (2, "y")]);
        let b = rel(vec![(2, "y"), (3, "z")]);
        let expected = ops::union(&a, &b).unwrap();
        let mut u = UnionStream::new(vec![
            RelationScan::new(a, DEFAULT_BATCH_SIZE),
            RelationScan::new(b, DEFAULT_BATCH_SIZE),
        ])
        .unwrap();
        let got = u.collect_relation();
        assert_eq!(got.tuples(), expected.tuples(), "order must match the materialized fold");
    }

    #[test]
    fn intersect_stream_matches_materialized() {
        let a = rel(vec![(1, "x"), (2, "y"), (3, "z")]);
        let b = rel(vec![(2, "y"), (3, "z"), (4, "w")]);
        let expected = ops::intersect(&a, &b).unwrap();
        let mut i =
            IntersectStream::new(vec![RelationScan::new(a, 2), RelationScan::new(b, 2)]).unwrap();
        assert_eq!(i.collect_relation(), expected);
    }

    #[test]
    fn incompatible_schemas_rejected() {
        let other = Schema::new("o", vec![("a", ValueType::Int)], &[]).unwrap();
        let r1 = rel(vec![(1, "x")]);
        let r2 = Relation::from_rows(other, vec![vec![Value::Int(1)]]);
        assert!(UnionStream::new(vec![RelationScan::new(r1, 4), RelationScan::new(r2, 4)]).is_err());
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
