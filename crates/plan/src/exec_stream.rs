//! The executor: pull-based batch pipelines over concrete plans. This is
//! the only production plan-walker — collecting callers (`Mediator::run`,
//! failover, joins, the CLI) run it with the sink that keeps the answer;
//! `csqp serve` hands it a socket sink.
//!
//! Where the reference [`crate::exec::execute`] materializes every
//! intermediate [`Relation`] in full, this module runs the same plans as
//! Volcano-style pull pipelines exchanging bounded [`TupleBatch`]es:
//!
//! - **Rows shipped once** — a batch is a view over its source relation's
//!   shared rows ([`TupleBatch`]): operators filter its selection and
//!   compose its projection, so no row is copied between the scan and the
//!   sink (only [`execute_stream_collect`] copies the answer it keeps).
//! - **Bounded memory** — pipeline-resident tuples are proportional to
//!   `batch_size × pipeline depth`, not `|result|`. Set-semantics state
//!   (dedup sketches, intersect membership sides) is accounted separately
//!   and excluded from [`StreamStats::peak_resident_tuples`], as is the
//!   caller's accumulated answer.
//! - **One schedule** — Intersect/Union children are fetched strictly in
//!   plan order on the caller's thread, as the paper's additive cost model
//!   prices them; every stat a run reports is a function of the plan, the
//!   data and the [`StreamConfig`] (docs/EXECUTION.md §4).
//! - **Early termination** — a row [`StreamConfig::limit`] stops the
//!   pipeline as soon as enough answer tuples exist, and sources stop
//!   shipping.
//! - **Per-round-trip resilience** — a source faces the fault weather once
//!   per round-trip (stream open, each batch pull); that is the one fault
//!   model. A [`Retry`] on the request retries only the faulted round-trip
//!   (the source stream keeps its scan cursor), so a mid-stream fault never
//!   re-ships or re-fetches earlier batches.
//!
//! There is one entry point, [`execute_stream`]; how a run executes —
//! retries, per-leaf analysis, adaptive re-planning, tracing — is a
//! property of its [`StreamRequest`] value, not of which function was
//! called. [`execute_stream_collect`] is the same run with the sink that
//! accumulates a [`Relation`].
//!
//! A run meters itself: every leaf open, batch pull and gate rejection is
//! counted into the run's own [`StreamRun::meter`], so concurrent runs on
//! one source never see each other's transfer.
//!
//! The materialized executor remains the differential oracle: a drained
//! stream returns its rows in its order, and (fault-free) its meter equals
//! the oracle's meter delta; `crates/plan/tests/stream_differential.rs`
//! enforces this over randomized plans, workloads and the request-mode
//! matrix, and `tests/run_stream_differential.rs` one layer up.

use crate::analyze::PlanAnalysis;
use crate::cost::Cardinality;
use crate::exec::{ExecError, RetryPolicy};
use crate::model::CostModel;
use crate::plan::Plan;
use csqp_expr::CondTree;
use csqp_relation::schema::Schema;
use csqp_relation::stream::{TupleBatch, DEFAULT_BATCH_SIZE};
use csqp_relation::Relation;
use csqp_source::{CostParams, Meter, ResilienceMeter, RoundTrip, Source, SourceError};
use csqp_ssdl::linearize::{cond_fingerprint, Fingerprint};
use std::sync::Arc;

/// Knobs for one streaming execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Tuples per batch (the unit of transfer and of memory accounting).
    pub batch_size: usize,
    /// Stop after this many answer rows (early termination). `None` drains
    /// the pipeline.
    pub limit: Option<u64>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { batch_size: DEFAULT_BATCH_SIZE, limit: None }
    }
}

impl StreamConfig {
    /// Sets the early-termination row limit.
    pub fn with_limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Sets the batch size (must be non-zero).
    pub fn with_batch_size(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be non-zero");
        self.batch_size = n;
        self
    }
}

/// What one streaming execution did, memory-wise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Batches produced across every pipeline operator.
    pub batches: u64,
    /// Peak tuples simultaneously resident in pipeline batch buffers
    /// (excluding dedup/membership sketches and the caller's accumulated
    /// answer).
    pub peak_resident_tuples: u64,
}

impl StreamStats {
    /// Records the stats into `metrics` under the canonical `exec.*` names.
    pub fn record_into(&self, metrics: &csqp_obs::MetricsRegistry) {
        use csqp_obs::names;
        metrics.add(names::EXEC_BATCHES, self.batches);
        metrics.gauge_set(names::EXEC_PEAK_RESIDENT_TUPLES, self.peak_resident_tuples as f64);
    }
}

// ---- mid-query adaptive re-planning: controller-facing types ----

/// Progress of one opened source-query leaf, as exposed to a
/// [`ReplanController`] at batch boundaries and on leaf failure. Leaves are
/// listed in plan pre-order for the current pipeline segment.
#[derive(Debug, Clone)]
pub struct LeafProgress {
    /// The source query, rendered (`SP(C, A, R)` notation).
    pub rendered: String,
    /// The leaf's condition (what the source was asked to satisfy).
    pub cond: Option<CondTree>,
    /// `cond`'s fingerprint, taken at leaf open: a controller keys
    /// per-leaf state by it without re-hashing the condition at every
    /// batch boundary.
    pub fp: Fingerprint,
    /// Rows the leaf has shipped so far in the current segment.
    pub rows_out: u64,
    /// Whether the leaf stream is exhausted.
    pub done: bool,
}

/// A snapshot of a paused pipeline handed to a [`ReplanController`]. Cheap
/// to build per batch; the residual-plan helpers only allocate when a
/// controller actually decides to re-plan.
#[derive(Debug)]
pub struct ReplanProbe<'a> {
    /// The plan the current pipeline segment is executing.
    pub plan: &'a Plan,
    /// For a `Union` root: index of the first top-level child that is not
    /// fully drained (children before it are complete; the indexed child
    /// may be partially drained). `None` when the root is not a union or
    /// progress is unknown (leaf-failure probes).
    pub union_progress: Option<usize>,
    /// Per-leaf progress, in plan pre-order.
    pub leaves: &'a [LeafProgress],
    /// Batches pulled so far across the whole adaptive run.
    pub batches: u64,
    /// Answer rows emitted downstream so far across the whole run.
    pub emitted: u64,
}

impl ReplanProbe<'_> {
    /// The part of the plan that still has answers to produce: for a
    /// `Union` root, the not-yet-drained top-level children (a partially
    /// drained child is included whole — root dedup absorbs the repeats);
    /// for any other root, the whole plan. `None` when nothing remains.
    pub fn remaining_plan(&self) -> Option<Plan> {
        match (self.plan, self.union_progress) {
            (Plan::Union(cs), Some(k)) => {
                if k < cs.len() {
                    Some(Plan::union(cs[k..].to_vec()))
                } else {
                    None
                }
            }
            _ => Some(self.plan.clone()),
        }
    }

    /// The condition the remaining answers satisfy — what MCSC should be
    /// re-run over. `None` when nothing remains *or* the residual is
    /// unconstrained/unknown (an unconditional branch, a `Choice`); both
    /// cases mean "do not splice".
    pub fn residual_condition(&self) -> Option<CondTree> {
        self.remaining_plan().as_ref().and_then(plan_condition)
    }
}

/// A controller's decision to splice: abandon the current pipeline segment
/// at this batch boundary and continue with `plan` against `source`.
/// Already-emitted tuples are deduplicated away automatically, so a splice
/// can only add missing answers, never duplicate or drop them.
#[derive(Debug, Clone)]
pub struct SpliceAction {
    /// The replacement sub-plan covering the residual condition.
    pub plan: Plan,
    /// The source to run it against (the same source for drift splices;
    /// the next-cheapest healthy member for breaker splices).
    pub source: Arc<Source>,
}

/// Decides when a running pipeline should pause and re-plan.
///
/// The streaming engine stays mechanical: it calls
/// [`on_batch`](ReplanController::on_batch) at every emitted root batch and
/// [`on_leaf_error`](ReplanController::on_leaf_error) when a leaf
/// open/pull fails terminally (retries exhausted or non-retryable). All
/// drift math, breaker bookkeeping, and MCSC re-planning live in the
/// controller — `csqp-core` provides drift- and breaker-triggered
/// implementations. Returning `None` continues (or, from `on_leaf_error`,
/// fails) the run unchanged.
pub trait ReplanController {
    /// Called after every emitted root batch; return a splice to re-plan
    /// the residual at this batch boundary.
    fn on_batch(&mut self, probe: &ReplanProbe<'_>) -> Option<SpliceAction>;

    /// Called when a leaf failed terminally. Return a splice to recover on
    /// another plan/source; `None` propagates the error.
    fn on_leaf_error(&mut self, probe: &ReplanProbe<'_>, err: &ExecError) -> Option<SpliceAction>;

    /// Called instead of `on_leaf_error` once the run has spent its
    /// splices: the error propagates, and the controller can only book it.
    fn on_final_error(&mut self, _err: &ExecError) {}

    /// Times cardinality drift triggered so far (0 if nothing watches it).
    fn drift_triggers(&self) -> u64 {
        0
    }
}

/// The condition a concrete plan's answer satisfies, composed structurally:
/// a source query contributes its own condition, `Local` selections AND
/// onto their input, `Union` ORs its branches, `Intersect` ANDs its
/// members. `None` means unconstrained (`true`) — or, for `Choice`,
/// unknown. Used to derive the *residual* condition of a partially drained
/// pipeline so MCSC can re-plan exactly what is missing. (Like `Intersect`
/// execution itself, the conjunctive reading is exact when the projected
/// attributes determine condition satisfaction — the workloads here
/// project key attributes.)
pub fn plan_condition(plan: &Plan) -> Option<CondTree> {
    match plan {
        Plan::SourceQuery { cond, .. } => cond.clone(),
        Plan::LocalSp { cond, input, .. } => match (cond.clone(), plan_condition(input)) {
            (Some(a), Some(b)) => Some(CondTree::and(vec![a, b])),
            (a, b) => a.or(b),
        },
        Plan::Intersect(cs) => {
            let parts: Vec<CondTree> = cs.iter().filter_map(plan_condition).collect();
            match parts.len() {
                0 => None,
                1 => parts.into_iter().next(),
                _ => Some(CondTree::and(parts)),
            }
        }
        Plan::Union(cs) => {
            let mut parts = Vec::with_capacity(cs.len());
            for c in cs {
                // An unconstrained branch makes the whole union `true`.
                parts.push(plan_condition(c)?);
            }
            match parts.len() {
                0 => None,
                1 => parts.into_iter().next(),
                _ => Some(CondTree::or(parts)),
            }
        }
        Plan::Choice(_) => None,
    }
}

mod engine {
    use super::*;
    use crate::analyze::SubQueryObs;
    use crate::exec::ResilientCtx;
    use csqp_expr::semantics::BoundCond;
    use csqp_expr::CondTree;
    use csqp_relation::schema::Schema;
    use csqp_relation::stream::{project_indices, DedupSketch};
    use csqp_source::SourceStream;
    use std::sync::Arc;

    /// Per-batch spans recorded per drive (or adaptive segment) before the
    /// trace goes quiet — bounds trace growth on large results.
    pub(super) const MAX_BATCH_SPANS: u64 = 32;

    /// One segment's memory/batch/transfer accounting, shared by every
    /// operator of its pipeline. `current` tracks tuples resident in
    /// pipeline buffers (batches in flight); `peak` is its high-water mark.
    /// `meter` is the segment's transfer on its source.
    #[derive(Debug, Default)]
    pub(super) struct Account {
        current: u64,
        peak: u64,
        batches: u64,
        meter: Meter,
    }

    impl Account {
        /// Meters a leaf open: an opened stream is one source query, a
        /// capability rejection (refused at admission, or by the source's
        /// own gate) one rejected query.
        fn opened<T>(&mut self, open: Result<T, ExecError>) -> Result<T, ExecError> {
            match &open {
                Ok(_) => self.meter.queries += 1,
                Err(ExecError::Source(SourceError::Unsupported { .. })) => self.meter.rejected += 1,
                Err(_) => {}
            }
            open
        }

        fn charge(&mut self, n: usize) {
            self.current += n as u64;
            self.peak = self.peak.max(self.current);
        }

        fn release(&mut self, n: usize) {
            self.current -= n as u64;
        }

        fn emitted(&mut self) {
            self.batches += 1;
        }

        pub(super) fn stats(&self) -> StreamStats {
            StreamStats { batches: self.batches, peak_resident_tuples: self.peak }
        }
    }

    /// Per-leaf EXPLAIN ANALYZE state.
    pub(super) struct AnalyzedState<'m> {
        pub(super) model: &'m dyn CostModel,
        pub(super) card: &'m dyn Cardinality,
        /// One slot per source query, indexed in plan pre-order; filled at
        /// leaf open, updated as batches ship.
        pub(super) slots: Vec<Option<SubQueryObs>>,
    }

    /// Per-leaf progress shared between the adaptive segment driver and the
    /// pipeline's leaf nodes (filled at leaf open, updated per pull).
    #[derive(Default)]
    pub(super) struct AdaptiveTrack {
        pub(super) leaves: Vec<LeafProgress>,
    }

    /// The run's modes, threaded through pulls.
    pub(super) struct Extras<'a, 'b> {
        pub(super) resilient: Option<&'a mut ResilientCtx<'b>>,
        pub(super) analyzed: Option<&'a mut AnalyzedState<'b>>,
        pub(super) adaptive: Option<&'a mut AdaptiveTrack>,
        /// Span sink for leaf-open and per-batch spans.
        pub(super) tracer: Option<&'a csqp_obs::Tracer>,
    }

    impl<'a> Extras<'a, '_> {
        /// The tracer, when present *and* enabled — callers format span
        /// labels behind this so a disabled tracer costs nothing. Returns
        /// the full-lifetime reference so a held span does not freeze the
        /// (mutably borrowed) extras.
        pub(super) fn live_tracer(&self) -> Option<&'a csqp_obs::Tracer> {
            self.tracer.filter(|t| t.is_enabled())
        }
    }

    /// Runs one source round-trip — a stream open or a batch pull — under
    /// the run's retry policy, if it has one (without, any fault is
    /// terminal): retryable faults back off and repeat, the
    /// virtual latency the source's fault gate metered is charged against
    /// the deadline budget, and capability rejections and schema errors
    /// fail fast (retrying the identical request cannot succeed). An open
    /// always counts as an attempt; a pull only when it faulted, so a
    /// fault-free run reads attempts == source queries. A stream keeps its
    /// scan cursor across faults, so only the failed pull repeats — earlier
    /// batches never re-ship.
    fn with_retry<T>(
        source: &Source,
        ctx: Option<&mut ResilientCtx<'_>>,
        open: bool,
        mut round_trip: impl FnMut() -> RoundTrip<T>,
    ) -> Result<T, ExecError> {
        let Some(ctx) = ctx else { return round_trip().1.map_err(ExecError::Source) };
        let mut retry = 0u32;
        loop {
            ctx.res.attempts += u64::from(open);
            let (ticks, outcome) = round_trip();
            ctx.charge(ticks)?;
            match outcome {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_retryable() => return Err(ExecError::Source(e)),
                Err(e) => {
                    ctx.res.attempts += u64::from(!open);
                    ctx.note_fault(&e);
                    if retry >= ctx.policy.max_retries {
                        return Err(ExecError::Exhausted {
                            source: source.name.clone(),
                            attempts: retry + 1,
                            last: e,
                        });
                    }
                    let backoff = ctx.policy.backoff_ticks(retry, &mut ctx.jitter);
                    ctx.charge(backoff)?;
                    ctx.res.retries += 1;
                    retry += 1;
                }
            }
        }
    }

    /// One operator of an open pipeline.
    pub(super) enum Node<'env> {
        Leaf {
            stream: SourceStream<'env>,
            source: &'env Source,
            /// Pre-order source-query index (EXPLAIN ANALYZE slot).
            idx: usize,
            /// Condition/arity kept for observed-cost accounting.
            cond: Option<CondTree>,
            n_attrs: usize,
            rows_out: u64,
        },
        Local {
            input: Box<Node<'env>>,
            /// Bound to the input schema's column positions at build.
            cond: Option<BoundCond>,
            out_schema: Arc<Schema>,
            indices: Vec<usize>,
        },
        Inter {
            probe: Box<Node<'env>>,
            members: Vec<DedupSketch>,
            sketch: DedupSketch,
        },
        Union {
            children: Vec<Node<'env>>,
            current: usize,
            sketch: DedupSketch,
            schema: Arc<Schema>,
        },
    }

    impl<'env> Node<'env> {
        fn schema(&self) -> &Arc<Schema> {
            match self {
                Node::Leaf { stream, .. } => stream.schema(),
                Node::Local { out_schema, .. } => out_schema,
                Node::Inter { probe, .. } => probe.schema(),
                Node::Union { schema, .. } => schema,
            }
        }

        /// Takes the set of tuples this operator has passed, when it keeps
        /// one: a union or intersect root's own dedup sketch, or the set a
        /// leaf's source stream shipped (the stream dedups its own
        /// projection, so that set is everything the leaf emitted). On an
        /// adaptive segment exit it *is* the segment's emitted set — taking
        /// it costs nothing per tuple, where re-inserting each emitted
        /// tuple into a parallel persistent sketch would have doubled the
        /// per-tuple dedup work.
        pub(super) fn take_sketch(&mut self) -> Option<DedupSketch> {
            match self {
                Node::Inter { sketch, .. } | Node::Union { sketch, .. } => {
                    Some(std::mem::take(sketch))
                }
                Node::Leaf { stream, .. } => Some(stream.take_shipped()),
                Node::Local { .. } => None,
            }
        }

        /// For a union root: index of the first child not fully drained.
        pub(super) fn union_progress(&self) -> Option<usize> {
            match self {
                Node::Union { current, .. } => Some(*current),
                _ => None,
            }
        }

        /// Pulls the next batch through this operator. Every emitted batch
        /// is charged to the account; the consumer releases it.
        pub(super) fn next(
            &mut self,
            account: &mut Account,
            extras: &mut Extras<'_, '_>,
        ) -> Result<Option<TupleBatch>, ExecError> {
            match self {
                Node::Leaf { stream, source, idx, cond, n_attrs, rows_out } => {
                    let ctx = extras.resilient.as_deref_mut();
                    let pulled = with_retry(source, ctx, false, || stream.pull())?;
                    if let Some(b) = &pulled {
                        account.charge(b.len());
                        account.emitted();
                        account.meter.tuples_shipped += b.len() as u64;
                        *rows_out += b.len() as u64;
                        if let Some(a) = &mut extras.analyzed {
                            if let Some(slot) = a.slots[*idx].as_mut() {
                                slot.observed_rows = *rows_out;
                                slot.observed_cost = a.model.source_query_cost(
                                    cond.as_ref(),
                                    *n_attrs,
                                    *rows_out as f64,
                                );
                            }
                        }
                    }
                    if let Some(track) = &mut extras.adaptive {
                        if let Some(lp) = track.leaves.get_mut(*idx) {
                            match &pulled {
                                Some(_) => lp.rows_out = *rows_out,
                                None => lp.done = true,
                            }
                        }
                    }
                    Ok(pulled)
                }
                Node::Local { input, cond, out_schema, indices } => {
                    match input.next(account, extras)? {
                        None => Ok(None),
                        Some(mut b) => {
                            let n = b.len();
                            if let Some(c) = cond {
                                b.filter(c);
                            }
                            let out = b.project_columns(out_schema, indices);
                            account.release(n);
                            account.charge(out.len());
                            account.emitted();
                            Ok(Some(out))
                        }
                    }
                }
                Node::Inter { probe, members, sketch } => match probe.next(account, extras)? {
                    None => Ok(None),
                    Some(mut b) => {
                        let n = b.len();
                        b.retain(|row| {
                            members.iter().all(|m| m.contains_row(row)) && sketch.insert_row(row)
                        });
                        account.release(n);
                        account.charge(b.len());
                        account.emitted();
                        Ok(Some(b))
                    }
                },
                Node::Union { children, current, sketch, schema } => {
                    while *current < children.len() {
                        match children[*current].next(account, extras)? {
                            Some(b) => {
                                let n = b.len();
                                let mut b = b.with_schema(schema.clone());
                                b.retain(|row| sketch.insert_row(row));
                                account.release(n);
                                account.charge(b.len());
                                account.emitted();
                                return Ok(Some(b));
                            }
                            None => *current += 1,
                        }
                    }
                    Ok(None)
                }
            }
        }
    }

    /// Drains a subtree into an exact membership sketch (Intersect sides).
    fn drain_into_sketch(
        node: &mut Node<'_>,
        account: &mut Account,
        extras: &mut Extras<'_, '_>,
    ) -> Result<DedupSketch, ExecError> {
        let mut m = DedupSketch::new();
        while let Some(b) = node.next(account, extras)? {
            for row in b.rows() {
                m.insert_row(row);
            }
            account.release(b.len());
        }
        Ok(m)
    }

    fn incompatible(left: &Schema, right: &Schema) -> ExecError {
        ExecError::Schema(format!("schemas `{}` and `{}` are incompatible", left.name, right.name))
    }

    /// Opens the pipeline for `plan`: recursively builds operators, opens
    /// leaf streams (the capability gate fires and the open is metered
    /// here), and drains Intersect membership sides.
    pub(super) fn build<'env>(
        plan: &Plan,
        source: &'env Source,
        cfg: &StreamConfig,
        account: &mut Account,
        next_leaf: &mut usize,
        extras: &mut Extras<'_, '_>,
    ) -> Result<Node<'env>, ExecError> {
        match plan {
            Plan::SourceQuery { cond, attrs } => {
                let idx = *next_leaf;
                *next_leaf += 1;
                // Leaf opens are where the capability gate fires and the
                // first round-trip happens — worth a span of their own.
                let _open_span = extras.live_tracer().map(|t| t.span(&format!("open leaf {idx}")));
                // Admitted once, before any round-trip: a leaf no order
                // admits is refused here, and never reaches the source.
                let open = crate::exec::admit(source, cond.as_ref(), attrs).and_then(|q| {
                    let ctx = extras.resilient.as_deref_mut();
                    with_retry(source, ctx, true, || source.open(&q, cfg.batch_size))
                });
                let stream = account.opened(open)?;
                if let Some(a) = &mut extras.analyzed {
                    let est_rows = a.card.estimate(cond.as_ref());
                    let est_cost = a.model.source_query_cost(cond.as_ref(), attrs.len(), est_rows);
                    a.slots[idx] = Some(SubQueryObs {
                        rendered: plan.to_string(),
                        est_rows,
                        est_cost,
                        observed_rows: 0,
                        observed_cost: a.model.source_query_cost(cond.as_ref(), attrs.len(), 0.0),
                    });
                }
                if let Some(track) = &mut extras.adaptive {
                    debug_assert_eq!(track.leaves.len(), idx, "leaf open order is pre-order");
                    track.leaves.push(LeafProgress {
                        rendered: plan.to_string(),
                        cond: cond.clone(),
                        fp: cond_fingerprint(cond.as_ref()),
                        rows_out: 0,
                        done: false,
                    });
                }
                Ok(Node::Leaf {
                    stream,
                    source,
                    idx,
                    cond: cond.clone(),
                    n_attrs: attrs.len(),
                    rows_out: 0,
                })
            }
            Plan::LocalSp { cond, attrs, input } => {
                let input = build(input, source, cfg, account, next_leaf, extras)?;
                let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let (out_schema, indices) = project_indices(input.schema(), &attr_refs)
                    .map_err(|e| ExecError::Schema(e.to_string()))?;
                let schema = input.schema();
                let cond = cond.as_ref().map(|c| BoundCond::bind(c, |a| schema.col_index(a)));
                Ok(Node::Local { input: Box::new(input), cond, out_schema, indices })
            }
            Plan::Intersect(cs) => {
                if cs.is_empty() {
                    return Err(ExecError::Malformed("empty Intersect child list".into()));
                }
                let probe = build(&cs[0], source, cfg, account, next_leaf, extras)?;
                let mut member_nodes = Vec::with_capacity(cs.len() - 1);
                for c in &cs[1..] {
                    let m = build(c, source, cfg, account, next_leaf, extras)?;
                    if !probe.schema().compatible_with(m.schema()) {
                        return Err(incompatible(probe.schema(), m.schema()));
                    }
                    member_nodes.push(m);
                }
                let mut members = Vec::with_capacity(member_nodes.len());
                for m in &mut member_nodes {
                    members.push(drain_into_sketch(m, account, extras)?);
                }
                Ok(Node::Inter { probe: Box::new(probe), members, sketch: DedupSketch::new() })
            }
            Plan::Union(cs) => {
                if cs.is_empty() {
                    return Err(ExecError::Malformed("empty Union child list".into()));
                }
                let mut children = Vec::with_capacity(cs.len());
                for c in cs {
                    children.push(build(c, source, cfg, account, next_leaf, extras)?);
                }
                let schema = children[0].schema().clone();
                for c in &children[1..] {
                    if !schema.compatible_with(c.schema()) {
                        return Err(incompatible(&schema, c.schema()));
                    }
                }
                Ok(Node::Union { children, current: 0, sketch: DedupSketch::new(), schema })
            }
            Plan::Choice(_) => Err(ExecError::Unresolved),
        }
    }

    /// How a pipeline segment ended.
    pub(super) enum SegmentEnd {
        /// Drained (or limit hit, or the sink stopped the run).
        Done,
        /// The controller spliced: continue on a new plan/source.
        Spliced(SpliceAction),
    }

    /// Hard cap on splices per adaptive run — a backstop against a
    /// controller that keeps re-planning without converging. Once hit the
    /// run stops consulting the controller and drains the current plan.
    pub(super) const MAX_SPLICES: u64 = 16;

    /// What a run carries from one pipeline segment to the next.
    #[derive(Default)]
    pub(super) struct Carried {
        /// Every tuple emitted by the segments that already ended, so a
        /// spliced plan re-covering drained ground emits nothing twice.
        emitted_sketch: DedupSketch,
        /// Answer rows handed to the sink so far.
        pub(super) emitted: u64,
        /// Stats accumulated over the segments that already ended.
        pub(super) total: StreamStats,
        /// The answer schema (the first segment's root schema).
        pub(super) schema: Option<Arc<Schema>>,
        /// Each source's share of the run's transfer, in the order the
        /// sources joined the run.
        shares: Vec<Share>,
    }

    /// One source's share of a run's transfer, priced at its own constants.
    struct Share {
        /// The source's address: compared, never dereferenced.
        source: *const Source,
        cost: CostParams,
        meter: Meter,
    }

    impl Carried {
        /// Adds a segment's transfer on `source` to that source's share.
        fn charge(&mut self, source: &Source, meter: Meter) {
            let key: *const Source = source;
            match self.shares.iter_mut().find(|s| s.source == key) {
                Some(share) => share.meter += meter,
                None => self.shares.push(Share { source: key, cost: *source.cost_params(), meter }),
            }
        }

        /// The run's transfer and its §6.2 cost: the shares summed in the
        /// order their sources joined the run.
        pub(super) fn transfer(&self) -> (Meter, f64) {
            let mut meter = Meter::default();
            let mut cost = 0.0;
            for share in &self.shares {
                meter += share.meter;
                cost += share.meter.cost(&share.cost);
            }
            (meter, cost)
        }
    }

    /// Opens the pipeline for `plan` and drives it to completion (or to
    /// the row limit), handing each non-empty, deduplicated answer batch to
    /// `sink` (return `false` to stop early) and, with a `controller`,
    /// pausing after every emitted batch to ask it for a splice.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        plan: &Plan,
        source: &Source,
        cfg: &StreamConfig,
        account: &mut Account,
        mut controller: Option<&mut (dyn ReplanController + '_)>,
        carried: &mut Carried,
        extras: &mut Extras<'_, '_>,
        sink: &mut dyn FnMut(TupleBatch) -> bool,
    ) -> Result<SegmentEnd, ExecError> {
        let limit = cfg.limit;
        let mut root = build(plan, source, cfg, account, &mut 0, extras)?;
        carried.schema.get_or_insert_with(|| root.schema().clone());
        // A union/intersect root dedups everything it emits through its own
        // sketch, and a bare leaf's source stream through its seen set; on
        // any exit that can lead to a further segment that set is taken
        // into the carried one (`take_sketch`). So while the segment runs,
        // the carried sketch is only *consulted*, and only once a splice
        // has happened. The one tuple-level gap, a leaf's tail cut by the
        // limit, shipped but never emitted, cannot matter: the run ends
        // at the cut. A Local root can emit duplicates and always pays the
        // explicit insert.
        let inserts = matches!(root, Node::Local { .. });
        let mut batch_no = 0u64;
        loop {
            if limit.is_some_and(|l| carried.emitted >= l) {
                return Ok(SegmentEnd::Done);
            }
            // One span per answer-batch pull, capped so a long drain cannot
            // balloon the trace — after the cap the pipeline runs unspanned.
            let batch_span = (batch_no < MAX_BATCH_SPANS)
                .then(|| extras.live_tracer().map(|t| t.span(&format!("batch {batch_no}"))))
                .flatten();
            let outcome = root.next(account, extras);
            drop(batch_span);
            batch_no += 1;
            let pulled = match outcome {
                Ok(p) => p,
                Err(e) => {
                    // The segment died mid-stream. Its emissions must
                    // survive into whatever segment a controller splices
                    // in next, or recovered ground would re-emit.
                    if let Some(s) = root.take_sketch() {
                        carried.emitted_sketch.absorb(s);
                    }
                    return Err(e);
                }
            };
            let Some(mut b) = pulled else { return Ok(SegmentEnd::Done) };
            let n = b.len();
            if inserts {
                b.retain(|row| carried.emitted_sketch.insert_row(row));
            } else if !carried.emitted_sketch.is_empty() {
                b.retain(|row| !carried.emitted_sketch.contains_row(row));
            }
            if let Some(l) = limit {
                b.truncate((l - carried.emitted) as usize);
            }
            account.release(n);
            carried.emitted += b.len() as u64;
            if !b.is_empty() && !sink(b) {
                return Ok(SegmentEnd::Done);
            }
            let Some(controller) = controller.as_deref_mut() else { continue };
            // Pause point: the pipeline is at a batch boundary with no
            // borrows in flight — consult the controller.
            let track = extras.adaptive.as_deref().expect("a controller implies leaf tracking");
            let probe = ReplanProbe {
                plan,
                union_progress: root.union_progress(),
                leaves: &track.leaves,
                batches: carried.total.batches + account.stats().batches,
                emitted: carried.emitted,
            };
            if let Some(action) = controller.on_batch(&probe) {
                if let Some(s) = root.take_sketch() {
                    carried.emitted_sketch.absorb(s);
                }
                return Ok(SegmentEnd::Spliced(action));
            }
        }
    }

    /// Runs one pipeline segment: open, drive, and absorb stats, transfer
    /// and resilience counters on every exit path. `retry`, `analyzed` and
    /// `track` are the run's modes, read once here — the per-batch path
    /// only sees the [`Extras`] they turn into. Leaf progress lands in
    /// `track` so the caller can still probe the controller after a
    /// terminal leaf error.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run_segment<'m>(
        plan: &Plan,
        source: &Source,
        cfg: &StreamConfig,
        retry: Option<&mut Retry<'m>>,
        analyzed: Option<&mut AnalyzedState<'m>>,
        controller: Option<&mut (dyn ReplanController + '_)>,
        mut track: Option<&mut AdaptiveTrack>,
        carried: &mut Carried,
        tracer: Option<&csqp_obs::Tracer>,
        sink: &mut dyn FnMut(TupleBatch) -> bool,
    ) -> Result<SegmentEnd, ExecError> {
        if let Some(t) = track.as_deref_mut() {
            t.leaves.clear();
        }
        let mut account = Account::default();
        let mut ctx = retry.as_deref().map(|r| ResilientCtx::new(r.policy, *r.meter));
        let mut extras = Extras { resilient: ctx.as_mut(), analyzed, adaptive: track, tracer };
        let outcome =
            drive(plan, source, cfg, &mut account, controller, carried, &mut extras, sink);
        if let (Some(r), Some(c)) = (retry, &ctx) {
            *r.meter = c.res;
        }
        let s = account.stats();
        carried.total.batches += s.batches;
        carried.total.peak_resident_tuples =
            carried.total.peak_resident_tuples.max(s.peak_resident_tuples);
        carried.charge(source, account.meter);
        outcome
    }
}

/// Per-batch retries for one run: a mid-stream fault repeats only the
/// failed round-trip (the source stream keeps its scan cursor), under the
/// policy's backoff schedule and deadline budget.
#[derive(Debug)]
pub struct Retry<'a> {
    /// Backoff, retry cap and deadline budget.
    pub policy: &'a RetryPolicy,
    /// Retry/fault counters accumulate here, on success and failure alike.
    pub meter: &'a mut ResilienceMeter,
}

/// What a streaming run does besides producing the answer. The variants
/// exclude each other: analysis slots index the *original* plan's leaves,
/// which a controller's splice would invalidate.
pub enum StreamMode<'a> {
    /// Just the answer.
    Plain,
    /// Record estimated-vs-observed numbers per source query (see
    /// [`crate::analyze`]). Source queries the run never opened (early
    /// termination) are absent from the analysis and render as
    /// `[not executed]`.
    Analyzed {
        /// Prices the estimated and the observed rows.
        model: &'a dyn CostModel,
        /// Estimates each source query's rows.
        card: &'a dyn Cardinality,
    },
    /// After every emitted batch (and on terminal leaf failure) the
    /// controller may pause the pipeline and splice a re-planned residual
    /// sub-plan — possibly against a different source — into the run. A
    /// dedup sketch spanning all segments keeps the emitted set identical
    /// to a non-adaptive run of the original plan.
    Adaptive(&'a mut dyn ReplanController),
}

/// One streaming execution, as a value: the public form of the engine's
/// per-run state.
pub struct StreamRequest<'a> {
    /// Batch size and row limit.
    pub config: &'a StreamConfig,
    /// Per-batch retries; `None` makes any leaf fault terminal (or, on
    /// adaptive runs, the controller's to recover).
    pub retry: Option<Retry<'a>>,
    /// Plain, analyzed or adaptive.
    pub mode: StreamMode<'a>,
    /// Records leaf-open and per-batch spans (plus one `segment N` span per
    /// pipeline segment on adaptive runs) for query profiles.
    pub tracer: Option<&'a csqp_obs::Tracer>,
}

impl<'a> StreamRequest<'a> {
    /// A plain run: no retries, no analysis, no controller, no tracer.
    pub fn new(config: &'a StreamConfig) -> Self {
        StreamRequest { config, retry: None, mode: StreamMode::Plain, tracer: None }
    }
}

/// What one [`execute_stream`] run did.
#[derive(Debug)]
pub struct StreamRun {
    /// Answer rows handed to the sink.
    pub emitted: u64,
    /// Batch/memory stats, accumulated across every pipeline segment.
    pub stats: StreamStats,
    /// Re-planned sub-plans spliced into the pipeline (0 unless adaptive).
    pub splices: u64,
    /// Per-source-query observations of an analyzed run, in plan pre-order.
    pub analysis: Option<PlanAnalysis>,
    /// The answer's schema — what every batch carried, known even when the
    /// answer is empty.
    pub schema: Arc<Schema>,
    /// The run's own transfer, over every segment and source: leaf streams
    /// opened, tuples the leaves pulled, capability-gate rejections.
    pub meter: Meter,
    /// The §6.2 cost of that transfer: each source's share priced at its
    /// own constants, summed in the order the sources joined the run.
    pub measured_cost: f64,
}

/// Streams a concrete plan, handing each answer batch to `sink` as it is
/// produced (return `false` to stop early). Batches arrive deduplicated —
/// the concatenation of all sinks' batches is exactly the set the
/// materialized executor returns, in the same order. The run meters
/// itself ([`StreamRun::meter`]), on every source a splice brings in, so a
/// concurrent run on the same source never counts into it.
pub fn execute_stream(
    plan: &Plan,
    source: &Source,
    request: StreamRequest<'_>,
    sink: &mut dyn FnMut(TupleBatch) -> bool,
) -> Result<StreamRun, ExecError> {
    let StreamRequest { config, mut retry, mode, tracer } = request;
    let (mut analyzed, mut controller) = match mode {
        StreamMode::Plain => (None, None),
        StreamMode::Analyzed { model, card } => {
            let slots = vec![None; plan.source_queries().len()];
            (Some(engine::AnalyzedState { model, card, slots }), None)
        }
        StreamMode::Adaptive(controller) => (None, Some(controller)),
    };
    let mut track = controller.is_some().then(engine::AdaptiveTrack::default);
    // One `segment N` span per pipeline segment, on adaptive runs only.
    let segment_tracer = tracer.filter(|t| track.is_some() && t.is_enabled());
    let mut carried = engine::Carried::default();
    let mut spliced: Option<SpliceAction> = None;
    let mut splices = 0u64;
    loop {
        let (cur_plan, cur_source) = match &spliced {
            Some(a) => (&a.plan, &*a.source),
            None => (plan, source),
        };
        let allow = splices < engine::MAX_SPLICES;
        let seg_span = segment_tracer.map(|t| t.span(&format!("segment {splices}")));
        let seg = engine::run_segment(
            cur_plan,
            cur_source,
            config,
            retry.as_mut(),
            analyzed.as_mut(),
            controller.as_deref_mut().filter(|_| allow),
            track.as_mut(),
            &mut carried,
            tracer,
            sink,
        );
        drop(seg_span);
        let action = match seg {
            Ok(engine::SegmentEnd::Done) => break,
            Ok(engine::SegmentEnd::Spliced(a)) => a,
            Err(e) => {
                // The segment died on a leaf. Give the controller one look
                // (progress state survives in `track`), or past the splice
                // cap only the error; without a splice the error propagates
                // as it would non-adaptively.
                let recovery = match (controller.as_deref_mut(), &track) {
                    (Some(c), Some(t)) if allow => {
                        let probe = ReplanProbe {
                            plan: cur_plan,
                            union_progress: None,
                            leaves: &t.leaves,
                            batches: carried.total.batches,
                            emitted: carried.emitted,
                        };
                        c.on_leaf_error(&probe, &e)
                    }
                    (Some(c), _) => {
                        c.on_final_error(&e);
                        None
                    }
                    _ => None,
                };
                match recovery {
                    Some(a) => a,
                    None => return Err(e),
                }
            }
        };
        splices += 1;
        spliced = Some(action);
    }
    // Executed leaves form a pre-order prefix; stop at
    // the first unopened slot so the renderer's sequential index stays
    // aligned and tail leaves show as `[not executed]`.
    let analysis = analyzed
        .map(|a| PlanAnalysis { subqueries: a.slots.into_iter().map_while(|s| s).collect() });
    let (meter, measured_cost) = carried.transfer();
    Ok(StreamRun {
        emitted: carried.emitted,
        stats: carried.total,
        splices,
        analysis,
        schema: carried.schema.expect("a finished run opened its first segment"),
        meter,
        measured_cost,
    })
}

/// [`execute_stream`] with the sink that keeps the answer: every batch
/// accumulates into a [`Relation`] (pipeline memory stays bounded by
/// `batch_size × depth`; the accumulated answer is the caller's).
pub fn execute_stream_collect(
    plan: &Plan,
    source: &Source,
    request: StreamRequest<'_>,
) -> Result<(Relation, StreamRun), ExecError> {
    let mut answer: Option<Relation> = None;
    let run = execute_stream(plan, source, request, &mut |batch| {
        let rel = answer.get_or_insert_with(|| Relation::empty(batch.schema().clone()));
        batch.insert_into(rel);
        true
    })?;
    let rows = answer.unwrap_or_else(|| Relation::empty(run.schema.clone()));
    Ok((rows, run))
}

/// Appends the streaming footer to an
/// [`explain_analyze`](crate::analyze::explain_analyze) rendering: batch
/// count and peak pipeline memory next to the cost-model summary.
pub fn explain_analyze_streamed(
    plan: &Plan,
    analysis: &PlanAnalysis,
    stats: &StreamStats,
) -> String {
    let mut out = crate::analyze::explain_analyze(plan, analysis);
    out.push_str(&format!(
        "streaming: {} batches, peak resident {} tuples\n",
        stats.batches, stats.peak_resident_tuples
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_measured};
    use crate::plan::attrs;
    use csqp_expr::parse::parse_condition;
    use csqp_expr::CondTree;
    use csqp_relation::datagen;
    use csqp_source::{CostParams, FaultProfile};
    use csqp_ssdl::templates;

    fn cond(s: &str) -> Option<CondTree> {
        Some(parse_condition(s).unwrap())
    }

    fn dealer() -> Source {
        Source::new(datagen::cars(3, 500), templates::car_dealer(), CostParams::default())
    }

    fn union_plan() -> Plan {
        Plan::union(vec![
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model", "year"])),
            Plan::source(cond("make = \"Toyota\" ^ price < 30000"), attrs(["model", "year"])),
            Plan::source(cond("make = \"Ford\" ^ price < 30000"), attrs(["model", "year"])),
        ])
    }

    fn nested_plan() -> Plan {
        Plan::local(
            cond("color = \"red\" _ color = \"black\""),
            attrs(["model", "year"]),
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model", "year", "color"])),
        )
    }

    /// A plain collected run under `cfg`.
    fn stream(plan: &Plan, s: &Source, cfg: &StreamConfig) -> Result<Relation, ExecError> {
        execute_stream_collect(plan, s, StreamRequest::new(cfg)).map(|(rel, _)| rel)
    }

    /// A collected run with per-batch retries under `policy`.
    fn stream_resilient(
        plan: &Plan,
        s: &Source,
        policy: &RetryPolicy,
        res: &mut ResilienceMeter,
    ) -> Result<Relation, ExecError> {
        let cfg = StreamConfig::default();
        let retry = Some(Retry { policy, meter: res });
        execute_stream_collect(plan, s, StreamRequest { retry, ..StreamRequest::new(&cfg) })
            .map(|(rel, _)| rel)
    }

    fn intersect_plan() -> Plan {
        Plan::intersect(vec![
            Plan::source(cond("make = \"BMW\" ^ price < 60000"), attrs(["model"])),
            Plan::source(cond("make = \"BMW\" ^ color = \"red\""), attrs(["model"])),
        ])
    }

    #[test]
    fn stream_matches_materialized_on_plan_shapes() {
        for plan in [union_plan(), nested_plan(), intersect_plan()] {
            let s = dealer();
            let want = execute(&plan, &s).unwrap();
            s.reset_meter();
            let (want_again, want_meter) = execute_measured(&plan, &s).unwrap();
            assert_eq!(want, want_again);
            s.reset_meter();
            let cfg = StreamConfig::default();
            let (got, run) = execute_stream_collect(&plan, &s, StreamRequest::new(&cfg)).unwrap();
            assert_eq!(got, want, "stream ≡ materialized for {plan}");
            assert_eq!(s.meter(), want_meter, "meter deltas agree for {plan}");
            assert_eq!(run.meter, want_meter, "the run meters itself for {plan}");
            assert_eq!(run.measured_cost, want_meter.cost(s.cost_params()));
            assert!(run.stats.batches > 0);
        }
    }

    /// Every operator works on view batches: each answer batch selects
    /// over the source relation's own rows, and the rows come out in the
    /// materialized oracle's order.
    #[test]
    fn view_batches_match_the_materialized_oracle_in_order() {
        let toyota = Plan::source(
            cond("make = \"Toyota\" ^ price < 30000"),
            attrs(["model", "year", "color"]),
        );
        let plans = [
            union_plan(),
            nested_plan(),
            intersect_plan(),
            Plan::local(cond("year > 1990"), attrs(["model"]), union_plan()),
            Plan::union(vec![
                nested_plan(),
                Plan::local(cond("year < 1995"), attrs(["model", "year"]), toyota),
            ]),
        ];
        for plan in plans {
            let s = dealer();
            let want = execute(&plan, &dealer()).unwrap();
            let mut rows = Vec::new();
            let cfg = StreamConfig::default().with_batch_size(5);
            execute_stream(&plan, &s, StreamRequest::new(&cfg), &mut |b| {
                assert!(Arc::ptr_eq(b.store(), s.relation().shared_tuples()), "{plan}");
                rows.extend(b.rows().map(|row| row.to_tuple()));
                true
            })
            .unwrap();
            assert!(!rows.is_empty(), "{plan}");
            assert_eq!(rows, want.tuples(), "{plan}");
        }
    }

    /// A splice takes a leaf root's shipped set off its view stream: the
    /// same plan run again after it emits nothing twice and drops nothing.
    #[test]
    fn a_splice_over_view_batches_emits_each_row_once() {
        struct Once(Option<SpliceAction>);
        impl ReplanController for Once {
            fn on_batch(&mut self, _: &ReplanProbe<'_>) -> Option<SpliceAction> {
                self.0.take()
            }
            fn on_leaf_error(
                &mut self,
                _: &ReplanProbe<'_>,
                _: &ExecError,
            ) -> Option<SpliceAction> {
                None
            }
        }
        // {model, year} keeps the unique model; {make, year} has a seen set.
        for names in [["model", "year"], ["make", "year"]] {
            let s = Arc::new(dealer());
            let plan = Plan::source(cond("make = \"BMW\" ^ price < 90000"), attrs(names));
            let want = execute(&plan, &dealer()).unwrap();
            let mut ctl = Once(Some(SpliceAction { plan: plan.clone(), source: s.clone() }));
            let cfg = StreamConfig::default().with_batch_size(4);
            let request =
                StreamRequest { mode: StreamMode::Adaptive(&mut ctl), ..StreamRequest::new(&cfg) };
            let mut rows = Vec::new();
            let run = execute_stream(&plan, &s, request, &mut |b| {
                rows.extend(b.rows().map(|row| row.to_tuple()));
                true
            })
            .unwrap();
            assert_eq!(run.splices, 1, "{names:?}");
            assert!(want.len() > 4, "the splice happens mid-answer");
            assert_eq!(rows, want.tuples(), "{names:?}");
        }
    }

    #[test]
    fn limit_terminates_early_and_bounds_shipping() {
        let plan = union_plan();
        let s = dealer();
        let full = stream(&plan, &s, &StreamConfig::default()).unwrap();
        assert!(full.len() > 4, "need a result bigger than the limit");
        s.reset_meter();
        let cfg = StreamConfig::default().with_limit(4);
        let (limited, run) = execute_stream_collect(&plan, &s, StreamRequest::new(&cfg)).unwrap();
        assert_eq!(limited.len(), 4);
        assert_eq!(run.emitted, 4);
        assert_eq!(limited.tuples(), &full.tuples()[..4], "limit keeps the prefix");
        assert!(
            s.meter().tuples_shipped < full.len() as u64,
            "early termination stopped the source from shipping everything"
        );
        assert!(run.stats.batches > 0);
    }

    #[test]
    fn peak_resident_is_bounded_by_batches_not_result() {
        let plan = union_plan();
        let s = dealer();
        let cfg = StreamConfig { batch_size: 8, limit: None };
        let (rel, run) = execute_stream_collect(&plan, &s, StreamRequest::new(&cfg)).unwrap();
        let stats = run.stats;
        // Pipeline depth here is 2 (leaf → union root); generous ×4 slack
        // covers transient double-accounting at operator handoff.
        assert!(
            stats.peak_resident_tuples <= (8 * 4 * 2) as u64,
            "peak {} not bounded by batch × depth (result {})",
            stats.peak_resident_tuples,
            rel.len()
        );
        assert!(stats.peak_resident_tuples < rel.len() as u64);
    }

    #[test]
    fn stats_are_deterministic_and_bounded_under_the_default_config() {
        let cfg = StreamConfig::default().with_batch_size(8);
        // Every shape here is two operators deep (leaf → root).
        let bound = (cfg.batch_size * 2) as u64;
        for plan in [union_plan(), nested_plan(), intersect_plan()] {
            let s = dealer();
            let run =
                || execute_stream_collect(&plan, &s, StreamRequest::new(&cfg)).unwrap().1.stats;
            let first = run();
            assert!(
                first.peak_resident_tuples <= bound,
                "peak {} exceeds batch × depth for {plan}",
                first.peak_resident_tuples
            );
            for _ in 1..20 {
                assert_eq!(run(), first, "stats vary run to run for {plan}");
            }
        }
    }

    #[test]
    fn streamed_sink_batches_concatenate_to_the_answer() {
        let plan = nested_plan();
        let s = dealer();
        let want = execute(&plan, &s).unwrap();
        let mut seen = Vec::new();
        let cfg = StreamConfig::default();
        let run = execute_stream(&plan, &s, StreamRequest::new(&cfg), &mut |b| {
            seen.extend(b.into_tuples());
            true
        })
        .unwrap();
        assert_eq!(run.emitted as usize, seen.len());
        assert_eq!(run.splices, 0, "no controller, no splices");
        assert_eq!(Relation::from_tuples(want.schema().clone(), seen), want);
    }

    #[test]
    fn empty_result_still_has_a_schema() {
        let plan = Plan::source(cond("make = \"BMW\" ^ price < 1"), attrs(["model"]));
        let s = dealer();
        let rel = stream(&plan, &s, &StreamConfig::default()).unwrap();
        assert!(rel.is_empty());
        assert_eq!(rel.schema().columns.len(), 1);
    }

    #[test]
    fn malformed_and_unresolved_plans_error_like_materialized() {
        let s = dealer();
        for plan in [Plan::Intersect(vec![]), Plan::Union(vec![])] {
            assert!(matches!(
                stream(&plan, &s, &StreamConfig::default()),
                Err(ExecError::Malformed(_))
            ));
        }
        let choice = Plan::Choice(vec![Plan::source(
            cond("make = \"BMW\" ^ price < 40000"),
            attrs(["model"]),
        )]);
        assert!(matches!(
            stream(&choice, &s, &StreamConfig::default()),
            Err(ExecError::Unresolved)
        ));
        // Children whose schemas disagree are a schema error under ∪ and ∩.
        let leaf = |a: &[&str]| {
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(a.iter().copied()))
        };
        let sides = || vec![leaf(&["model"]), leaf(&["model", "year"])];
        for plan in [Plan::Union(sides()), Plan::Intersect(sides())] {
            assert!(matches!(execute(&plan, &s), Err(ExecError::Schema(_))));
            assert!(matches!(
                stream(&plan, &s, &StreamConfig::default()),
                Err(ExecError::Schema(_))
            ));
        }
    }

    #[test]
    fn resilient_stream_rides_out_mid_stream_faults() {
        let s = Source::new(datagen::cars(3, 500), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(21).with_transient(0.4));
        let plan = union_plan();
        let policy = RetryPolicy { max_retries: 16, ..Default::default() };
        let mut res = ResilienceMeter::default();
        let rows = stream_resilient(&plan, &s, &policy, &mut res).unwrap();
        let oracle = dealer();
        let want = execute(&plan, &oracle).unwrap();
        assert_eq!(rows, want, "per-batch retries keep the answer exact");
        assert_eq!(s.meter().queries, 3);
        assert_eq!(
            s.meter().tuples_shipped,
            oracle.meter().tuples_shipped,
            "faulted pulls never re-ship tuples"
        );
        assert!(res.retries > 0, "the storm actually hit the stream");
    }

    #[test]
    fn resilient_stream_matches_plain_without_faults() {
        let s = dealer();
        let plan = nested_plan();
        let mut res = ResilienceMeter::default();
        let rows = stream_resilient(&plan, &s, &RetryPolicy::default(), &mut res).unwrap();
        // Reference: the materialized walk of a fault-free twin.
        let twin = dealer();
        let (want, want_meter) = execute_measured(&plan, &twin).unwrap();
        assert_eq!(rows, want);
        assert_eq!(s.meter(), want_meter);
        assert_eq!(res.attempts, want_meter.queries, "fault-free attempts = source queries");
        assert_eq!(res.retries, 0);
        assert_eq!(res.ticks, 0);
    }

    #[test]
    fn retries_exhaust_with_per_batch_accounting() {
        let s = Source::new(datagen::cars(3, 100), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(0).with_transient(1.0));
        let plan = Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model"]));
        let policy = RetryPolicy { max_retries: 2, ..Default::default() };
        let mut res = ResilienceMeter::default();
        match stream_resilient(&plan, &s, &policy, &mut res) {
            Err(ExecError::Exhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(res.retries, 2, "counters reach the caller's meter on failure too");
    }

    #[test]
    fn analyzed_stream_reports_peak_memory() {
        let plan = union_plan();
        let s = dealer();
        let model = CostParams::new(50.0, 1.0);
        let card = crate::cost::OracleCard::new(s.relation());
        let cfg = StreamConfig::default();
        let analyzed = || StreamRequest {
            mode: StreamMode::Analyzed { model: &model, card: &card },
            ..StreamRequest::new(&cfg)
        };
        let (rel, run) = execute_stream_collect(&plan, &s, analyzed()).unwrap();
        let want = execute(&plan, &dealer()).unwrap();
        assert_eq!(rel, want);
        let analysis = run.analysis.expect("an analyzed run reports its analysis");
        assert_eq!(analysis.subqueries.len(), 3);
        assert_eq!(analysis.rows_fetched(), s.meter().tuples_shipped);
        let text = explain_analyze_streamed(&plan, &analysis, &run.stats);
        assert!(text.contains("cost model: estimated"), "{text}");
        assert!(text.contains("peak resident"), "{text}");
        // Deterministic rendering, run to run.
        let s2 = dealer();
        let (_, run2) = execute_stream_collect(&plan, &s2, analyzed()).unwrap();
        assert_eq!(text, explain_analyze_streamed(&plan, &run2.analysis.unwrap(), &run2.stats));
    }

    #[test]
    fn stats_record_into_metrics() {
        let plan = union_plan();
        let s = dealer();
        let cfg = StreamConfig::default();
        let stats = execute_stream_collect(&plan, &s, StreamRequest::new(&cfg)).unwrap().1.stats;
        let reg = csqp_obs::MetricsRegistry::new();
        stats.record_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("exec.batches"), stats.batches);
        assert_eq!(snap.gauge("exec.peak_resident_tuples"), stats.peak_resident_tuples as f64);
    }
}
