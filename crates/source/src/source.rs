//! Simulated Internet sources: a relation behind an SSDL capability gate.
//!
//! A [`Source`] substitutes for the paper's live 1999 web sources. The
//! planners only observe (a) which queries the SSDL description accepts and
//! (b) result cardinalities — both of which the gate reproduces faithfully.
//!
//! Two views of the capability description coexist (§6.1):
//!
//! - the **gate** enforces the *original* description — the source really is
//!   order-sensitive if its grammar says so;
//! - the **planning view** is the permutation-closed description, letting
//!   GenCompact drop the commutativity rewrite rule. The mediator admits
//!   each source query back into an order the gate accepts
//!   ([`CompiledSource::admit`]), and the source answers only an
//!   [`Admitted`] query — still checking its own gate, as a remote source
//!   would, though an admitted run never trips it.

use crate::cost::CostParams;
use crate::fault::{Fault, FaultProfile};
use csqp_expr::semantics::BoundCond;
use csqp_expr::CondTree;
use csqp_relation::ops::{project, select};
use csqp_relation::relation::{projected_fingerprint, FingerprintIndex};
use csqp_relation::schema::Schema;
use csqp_relation::stream::{project_indices, DedupSketch, TupleBatch};
use csqp_relation::tuple::{Row, Tuple};
use csqp_relation::{Relation, TableStats};
use csqp_ssdl::check::{Admitted, CompiledSource, SharedCheckCache};
use csqp_ssdl::closure::{permutation_closure, DEFAULT_MAX_SEGMENTS};
use csqp_ssdl::facts::CapabilityFacts;
use csqp_ssdl::SsdlDesc;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Errors raised when querying a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The source's capability description rejects the query.
    Unsupported {
        /// Source name.
        source: String,
        /// Rendered condition (`"true"` for downloads).
        condition: String,
        /// Requested projection.
        attrs: Vec<String>,
    },
    /// The query references attributes outside the source schema.
    Schema(String),
    /// Injected fault: a momentary network-style failure; retry-worthy.
    Transient {
        /// Source name.
        source: String,
    },
    /// Injected fault: the attempt timed out after `ticks` of simulated
    /// latency.
    Timeout {
        /// Source name.
        source: String,
        /// Virtual ticks the attempt burned before giving up.
        ticks: u64,
    },
    /// Injected fault: the source shed load (rate limit) without doing
    /// work.
    RateLimited {
        /// Source name.
        source: String,
    },
    /// Injected fault: the source is hard-down (outage window).
    Unavailable {
        /// Source name.
        source: String,
    },
}

impl SourceError {
    /// Source `source`'s capability description rejects `SP(cond, attrs)`.
    pub fn unsupported(source: &str, cond: Option<&CondTree>, attrs: &BTreeSet<String>) -> Self {
        SourceError::Unsupported {
            source: source.to_string(),
            condition: cond.map_or_else(|| "true".into(), |c| c.to_string()),
            attrs: attrs.iter().cloned().collect(),
        }
    }

    /// Is this failure worth retrying? Injected faults are; capability
    /// rejections and schema errors are deterministic and never are.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SourceError::Transient { .. }
                | SourceError::Timeout { .. }
                | SourceError::RateLimited { .. }
                | SourceError::Unavailable { .. }
        )
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Unsupported { source, condition, attrs } => write!(
                f,
                "source `{source}` does not support SP({condition}, {{{}}})",
                attrs.join(", ")
            ),
            SourceError::Schema(msg) => write!(f, "schema error: {msg}"),
            SourceError::Transient { source } => {
                write!(f, "source `{source}`: transient failure")
            }
            SourceError::Timeout { source, ticks } => {
                write!(f, "source `{source}`: timed out after {ticks} ticks")
            }
            SourceError::RateLimited { source } => {
                write!(f, "source `{source}`: rate limited")
            }
            SourceError::Unavailable { source } => {
                write!(f, "source `{source}`: unavailable (outage)")
            }
        }
    }
}

impl std::error::Error for SourceError {}

/// Transfer metrics: a source's cumulative counters ([`Source::meter`]),
/// or one run's share of them, counted by the engine that ran it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Meter {
    /// Source queries answered.
    pub queries: u64,
    /// Tuples shipped back to the mediator.
    pub tuples_shipped: u64,
    /// Queries rejected by the capability gate.
    pub rejected: u64,
}

impl Meter {
    /// The transfer between an earlier reading `before` of the same meter
    /// and this one.
    pub fn since(&self, before: &Meter) -> Meter {
        Meter {
            queries: self.queries - before.queries,
            tuples_shipped: self.tuples_shipped - before.tuples_shipped,
            rejected: self.rejected - before.rejected,
        }
    }

    /// Measured cost under the §6.2 model.
    pub fn cost(&self, params: &CostParams) -> f64 {
        self.queries as f64 * params.k1 + self.tuples_shipped as f64 * params.k2
    }

    /// Adds this meter's counters to `metrics` under the canonical
    /// `source.*` names.
    pub fn record_into(&self, metrics: &csqp_obs::MetricsRegistry) {
        use csqp_obs::names;
        metrics.add(names::SOURCE_QUERIES, self.queries);
        metrics.add(names::SOURCE_TUPLES_SHIPPED, self.tuples_shipped);
        metrics.add(names::SOURCE_REJECTED, self.rejected);
    }
}

impl std::ops::AddAssign for Meter {
    fn add_assign(&mut self, other: Meter) {
        self.queries += other.queries;
        self.tuples_shipped += other.tuples_shipped;
        self.rejected += other.rejected;
    }
}

/// A capability-gated, metered, simulated Internet source.
#[derive(Debug)]
pub struct Source {
    /// Source name.
    pub name: String,
    relation: Relation,
    /// The gate: the source's true capability.
    original: CompiledSource,
    /// The permutation-closed planning view.
    planning: CompiledSource,
    /// Cross-plan `Check` memo for the planning view (the gate view stays
    /// uncached: execution must exercise the real order-sensitive parser).
    planning_check_cache: SharedCheckCache,
    /// Capability facts of the planning view, compiled on first use (the
    /// federation capability index is built from these).
    facts: OnceLock<CapabilityFacts>,
    stats: TableStats,
    /// Per column, in schema order: does every row hold a different value
    /// there? Read off `stats`' exact distinct counts, never off the
    /// declared schema key, which nothing checks against the rows. A
    /// stream whose projection keeps such a column cannot ship a duplicate,
    /// so it keeps no seen set.
    unique: Vec<bool>,
    cost: CostParams,
    queries: AtomicU64,
    tuples_shipped: AtomicU64,
    rejected: AtomicU64,
    /// Unreliability model; `None` (the default) keeps the fault path at a
    /// single branch per query.
    fault: Option<FaultProfile>,
    /// The fault stream's cursor: attempts the fault gate has drawn for.
    fault_attempts: AtomicU64,
}

/// One simulated network round-trip: the virtual ticks of latency its fault
/// gate drew (0 without a [`FaultProfile`]) and its outcome, so a run
/// charges its own round-trips, never another run's on the same source.
pub type RoundTrip<T> = (u64, Result<T, SourceError>);

impl Source {
    /// Builds a source. The planning view is the permutation closure of
    /// `desc` (pass an already-symmetric description to make this a no-op).
    pub fn new(relation: Relation, desc: SsdlDesc, cost: CostParams) -> Self {
        let name = desc.name.clone();
        let closed = permutation_closure(&desc, DEFAULT_MAX_SEGMENTS);
        let stats = TableStats::build(&relation);
        let unique = relation.schema().columns.iter().map(|c| stats.is_unique(&c.name)).collect();
        Source {
            name,
            relation,
            original: CompiledSource::new(desc),
            planning: CompiledSource::new(closed.desc),
            planning_check_cache: SharedCheckCache::new(),
            facts: OnceLock::new(),
            stats,
            unique,
            cost,
            queries: AtomicU64::new(0),
            tuples_shipped: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            fault: None,
            fault_attempts: AtomicU64::new(0),
        }
    }

    /// Attaches a seeded unreliability model. Subsequent query attempts
    /// draw from the profile's deterministic fault stream.
    pub fn with_fault_profile(mut self, profile: FaultProfile) -> Self {
        self.fault = Some(profile);
        self
    }

    /// The underlying relation (test/experiment oracle access — a real
    /// Internet source would not expose this).
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// Table statistics for cost estimation.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The §6.2 cost constants of this source.
    pub fn cost_params(&self) -> &CostParams {
        &self.cost
    }

    /// The order-insensitive planning view (what planners call `Check` on).
    pub fn planning_view(&self) -> &CompiledSource {
        &self.planning
    }

    /// The original (gate) description.
    pub fn gate_view(&self) -> &CompiledSource {
        &self.original
    }

    /// The cross-plan `Check` memo for the planning view. Planners layer
    /// their per-plan cache over this, so repeated identical conditions —
    /// e.g. a federation planning the same query again — skip the Earley
    /// parse entirely.
    pub fn planning_check_cache(&self) -> &SharedCheckCache {
        &self.planning_check_cache
    }

    /// Capability facts of the planning view, compiled once on first use.
    /// These feed the federation capability index (source pre-selection).
    pub fn capability_facts(&self) -> &CapabilityFacts {
        self.facts.get_or_init(|| CapabilityFacts::compile(&self.planning))
    }

    /// Does either capability view match literal constants? When `true`,
    /// feasibility depends on constant *values*, so a prepared plan keyed
    /// on the parameterized shape must re-run `Check` on the rebound
    /// source conditions before reuse (the plan cache does this).
    pub fn has_const_literals(&self) -> bool {
        self.planning.has_const_literals() || self.original.has_const_literals()
    }

    /// Answers an admitted source query, materialized: the fault gate,
    /// then the **original** capability gate, then σπ over the relation.
    /// Meters the query and the shipped tuples.
    pub fn answer(&self, q: &Admitted) -> Result<Relation, SourceError> {
        self.gates(q).1?;
        let selected = select(&self.relation, q.cond());
        let attr_refs: Vec<&str> = q.attrs().iter().map(String::as_str).collect();
        let result =
            project(&selected, &attr_refs).map_err(|e| SourceError::Schema(e.to_string()))?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.tuples_shipped.fetch_add(result.len() as u64, Ordering::Relaxed);
        Ok(result)
    }

    /// Meters a capability-gate rejection and names it.
    fn reject(&self, cond: Option<&CondTree>, attrs: &BTreeSet<String>) -> SourceError {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        SourceError::unsupported(&self.name, cond, attrs)
    }

    /// The two gates a query passes before the source does any work: the
    /// fault gate, then the original capability description. The second
    /// is the remote source's own check: a query admitted on another
    /// description can still fail it.
    fn gates(&self, q: &Admitted) -> RoundTrip<()> {
        let (ticks, gate) = self.fault_gate();
        let passed = gate.and_then(|()| match self.original.supports(q.cond(), q.attrs()) {
            true => Ok(()),
            false => Err(self.reject(q.cond(), q.attrs())),
        });
        (ticks, passed)
    }

    /// Fault gate: a real Internet source fails before its query engine
    /// ever sees the request, so faults fire ahead of the capability
    /// check. Zero-cost when no profile is attached (one `None` branch).
    /// The streaming path draws once per batch pull, so every network
    /// round-trip faces the same weather.
    fn fault_gate(&self) -> RoundTrip<()> {
        let Some(profile) = &self.fault else { return (0, Ok(())) };
        let fault = profile.decide(self.fault_attempts.fetch_add(1, Ordering::Relaxed));
        let source = || self.name.clone();
        let outcome = match fault {
            None => Ok(()),
            Some(Fault::Transient) => Err(SourceError::Transient { source: source() }),
            Some(Fault::Timeout) => {
                Err(SourceError::Timeout { source: source(), ticks: profile.timeout_ticks })
            }
            Some(Fault::RateLimited) => Err(SourceError::RateLimited { source: source() }),
            Some(Fault::Outage) => Err(SourceError::Unavailable { source: source() }),
        };
        (profile.ticks_for(fault), outcome)
    }

    /// Opens a **streaming** answer to an admitted source query: both
    /// gates run up front (the original description's rejections are
    /// metered), then tuples ship in batches of at most `batch_size` as
    /// the consumer pulls.
    ///
    /// Metering parity with [`Source::answer`]: `queries` increments once at
    /// open, `tuples_shipped` per batch as tuples actually ship (atomics,
    /// because serve workers share one `Source` across threads), and the
    /// stream dedups its
    /// output exactly like the materialized projection — a fully drained
    /// stream leaves the meter exactly where `answer` would have. A
    /// projection that keeps a column unique in the relation cannot repeat
    /// itself, so such a stream ships every kept row without a seen set.
    ///
    /// Fault injection is per *pull*: the gate draws once at open and once
    /// per subsequent batch, so a mid-stream fault surfaces on that pull
    /// while the scan cursor stays put — the consumer can retry the same
    /// pull without re-shipping earlier tuples. The open is a
    /// [`RoundTrip`]: the stream or the error, with the ticks its fault
    /// gate drew.
    pub fn open(&self, q: &Admitted, batch_size: usize) -> RoundTrip<SourceStream<'_>> {
        assert!(batch_size > 0, "batch size must be non-zero");
        let (ticks, passed) = self.gates(q);
        let stream = passed.and_then(|()| {
            let schema = self.relation.schema();
            let attr_refs: Vec<&str> = q.attrs().iter().map(String::as_str).collect();
            let (out_schema, indices) = project_indices(schema, &attr_refs)
                .map_err(|e| SourceError::Schema(e.to_string()))?;
            self.queries.fetch_add(1, Ordering::Relaxed);
            let keeps_unique = indices.iter().any(|&i| self.unique[i]);
            Ok(SourceStream {
                source: self,
                cond: q.cond().map(|c| BoundCond::bind(c, |a| schema.col_index(a))),
                out_schema,
                indices: indices.into(),
                batch_size,
                cursor: 0,
                seen: (!keeps_unique).then(FingerprintIndex::default),
            })
        });
        (ticks, stream)
    }

    /// Admits `SP(cond, attrs)` on this source's gate view, then opens it.
    /// Kept for callers built against it; the engine admits and opens.
    #[doc(hidden)]
    pub fn fix_and_answer_stream(
        &self,
        cond: Option<&CondTree>,
        attrs: &BTreeSet<String>,
        batch_size: usize,
    ) -> Result<SourceStream<'_>, SourceError> {
        self.original
            .admit(cond, attrs)
            .ok_or_else(|| self.reject(cond, attrs))
            .and_then(|q| self.open(&q, batch_size).1)
    }

    /// Current transfer metrics.
    pub fn meter(&self) -> Meter {
        Meter {
            queries: self.queries.load(Ordering::Relaxed),
            tuples_shipped: self.tuples_shipped.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Resets the meter (between experiment runs).
    pub fn reset_meter(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.tuples_shipped.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
    }
}

/// An open streaming answer: a batched scan over one source query's result.
///
/// Created by [`Source::open`]. Each [`SourceStream::pull`]
/// is one simulated network round-trip: the fault gate draws, then up to
/// `batch_size` fresh (selected, projected, deduplicated) tuples ship and
/// are metered. A shipped batch is a view: the positions of the kept rows
/// in the relation's own shared tuples, seen through the projection, so
/// shipping copies no row. A fault leaves the cursor untouched, so
/// retrying the pull resumes the scan without double-shipping.
#[derive(Debug)]
pub struct SourceStream<'a> {
    source: &'a Source,
    /// The condition, bound to the relation's column positions at open.
    cond: Option<BoundCond>,
    out_schema: Arc<Schema>,
    /// The projection every shipped batch sees its rows through.
    indices: Arc<[usize]>,
    batch_size: usize,
    cursor: usize,
    /// The projections shipped so far, each as the position of the first
    /// source row that produced it, keyed by the fingerprint of its
    /// projected columns. The `&'a Source` borrow keeps the relation
    /// immutable, so a position stands for its projection for the whole
    /// life of the stream, and only a row that ships is ever cloned.
    /// `None` when the projection keeps a unique column: every kept row
    /// is then a fresh projection.
    seen: Option<FingerprintIndex<u32>>,
}

/// Does the scan keep row `t` (`None` is the condition `true`)?
fn keeps(cond: Option<&BoundCond>, t: &Tuple) -> bool {
    cond.is_none_or(|c| c.eval(t.values()))
}

/// The fingerprint a stream's seen set keys `t`'s projection under.
fn seen_fingerprint(t: &Tuple, indices: &[usize]) -> u64 {
    #[cfg(test)]
    if tests::COLLIDE.with(std::cell::Cell::get) {
        return 0;
    }
    projected_fingerprint(t, indices)
}

impl SourceStream<'_> {
    /// The schema of every shipped batch (the projected attributes).
    pub fn schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    /// [`SourceStream::pull`] without its ticks. Kept for callers built
    /// against it.
    #[doc(hidden)]
    pub fn next_batch(&mut self) -> Result<Option<TupleBatch>, SourceError> {
        self.pull().1
    }

    /// Pulls the next batch, `Ok(None)` once the scan is exhausted, as a
    /// [`RoundTrip`]: an exhausted scan answers without one, so it draws
    /// no ticks.
    pub fn pull(&mut self) -> RoundTrip<Option<TupleBatch>> {
        let store = self.source.relation.shared_tuples();
        let tuples = &store[..];
        if self.cursor >= tuples.len() {
            return (0, Ok(None));
        }
        let (ticks, gate) = self.source.fault_gate();
        if let Err(e) = gate {
            return (ticks, Err(e));
        }
        // A batch is at most `batch_size` rows, and at most what is left.
        let mut fresh = Vec::with_capacity(self.batch_size.min(tuples.len() - self.cursor));
        while self.cursor < tuples.len() && fresh.len() < self.batch_size {
            let t = &tuples[self.cursor];
            let at = self.cursor as u32;
            self.cursor += 1;
            if !keeps(self.cond.as_ref(), t) {
                continue;
            }
            let indices = &self.indices[..];
            let Some(seen) = &mut self.seen else {
                fresh.push(at);
                continue;
            };
            let same = |&first: &u32| {
                let u = &tuples[first as usize];
                indices.iter().all(|&i| u.values()[i] == t.values()[i])
            };
            if seen.insert_with(seen_fingerprint(t, indices), same, || at) {
                fresh.push(at);
            }
        }
        if fresh.is_empty() {
            return (ticks, Ok(None));
        }
        self.source.tuples_shipped.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        let cols = Some(self.indices.clone());
        let batch = TupleBatch::view(self.out_schema.clone(), store.clone(), fresh, cols);
        (ticks, Ok(Some(batch)))
    }

    /// Closes the stream and returns the set of tuples it shipped, built
    /// from the seen set's row positions, or, without a seen set, from
    /// every row the scan kept so far (a fault leaves the
    /// cursor where it was, so each of those rows shipped). A later pull
    /// returns `Ok(None)`. The engine calls this only when a segment ends
    /// in a splice or a leaf error, so the per-row path never builds the
    /// set.
    pub fn take_shipped(&mut self) -> DedupSketch {
        let rows = self.source.relation.tuples();
        let scanned = std::mem::replace(&mut self.cursor, rows.len());
        let row = |t| Row::projected(&self.out_schema, t, Some(&self.indices));
        let mut shipped = DedupSketch::new();
        match self.seen.take() {
            Some(seen) => {
                for (_, &at) in seen.iter() {
                    shipped.insert_row(row(&rows[at as usize]));
                }
            }
            None => {
                for t in rows[..scanned].iter().filter(|t| keeps(self.cond.as_ref(), t)) {
                    shipped.insert_row(row(t));
                }
            }
        }
        shipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_expr::parse::parse_condition;
    use csqp_expr::ValueType;
    use csqp_relation::datagen;
    use csqp_ssdl::templates;

    thread_local! {
        /// While set, every seen-set fingerprint on this thread is 0, so
        /// every probe collides and dedup rests on the exact comparison.
        pub(super) static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    fn attrs(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn dealer() -> Source {
        Source::new(datagen::cars(3, 500), templates::car_dealer(), CostParams::default())
    }

    const CARS: [(&str, ValueType); 5] = [
        ("make", ValueType::Str),
        ("model", ValueType::Str),
        ("year", ValueType::Int),
        ("color", ValueType::Str),
        ("price", ValueType::Int),
    ];

    fn parsed(cond: Option<&str>) -> Option<CondTree> {
        cond.map(|c| parse_condition(c).unwrap())
    }

    /// `SP(cond, names)` as `s`'s own gate view admits it.
    fn admit(s: &Source, cond: &str, names: &[&str]) -> Admitted {
        s.gate_view().admit(parsed(Some(cond)).as_ref(), &attrs(names)).expect("admitted")
    }

    /// `SP(cond, names)` admitted on a grammar that accepts every query over
    /// the cars: a condition in its raw order, which only the source's own
    /// gate then judges.
    fn foreign(cond: Option<&str>, names: &[&str]) -> Admitted {
        let permissive = CompiledSource::new(templates::full_relational("any", &CARS));
        permissive.admit(parsed(cond).as_ref(), &attrs(names)).expect("accepts every query")
    }

    #[test]
    fn gate_enforces_original_order() {
        let s = dealer();
        let a = attrs(&["model", "year"]);
        let swapped = parse_condition("price < 40000 ^ make = \"BMW\"").unwrap();
        assert!(s.answer(&admit(&s, "make = \"BMW\" ^ price < 40000", &["model", "year"])).is_ok());
        // The gate rejects the swapped order even though planning accepts it.
        assert!(s.planning_view().supports(Some(&swapped), &a));
        let err = s.answer(&foreign(Some("price < 40000 ^ make = \"BMW\""), &["model", "year"]));
        assert!(matches!(err.unwrap_err(), SourceError::Unsupported { .. }));
        // Admission on the gate view repairs the order.
        let fixed = s.gate_view().admit(Some(&swapped), &a).unwrap();
        assert_eq!(fixed.cond(), parsed(Some("make = \"BMW\" ^ price < 40000")).as_ref());
        assert!(s.answer(&fixed).is_ok());
    }

    #[test]
    fn answers_are_selected_and_projected() {
        let s = dealer();
        let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        let r = s.answer(&admit(&s, "make = \"BMW\" ^ price < 40000", &["model", "year"])).unwrap();
        assert_eq!(r.schema().columns.len(), 2);
        let oracle = csqp_relation::ops::select(s.relation(), Some(&c));
        // Projection may collapse duplicates but never invent rows.
        assert!(r.len() <= oracle.len());
        assert!(!r.is_empty());
    }

    #[test]
    fn projection_beyond_exports_rejected() {
        let s = dealer();
        // s2 (make ^ color) exports {make, model, year}: price refused.
        let c = "make = \"BMW\" ^ color = \"red\"";
        assert!(s.answer(&admit(&s, c, &["model"])).is_ok());
        assert!(s.gate_view().admit(parsed(Some(c)).as_ref(), &attrs(&["price"])).is_none());
        assert!(s.answer(&foreign(Some(c), &["price"])).is_err());
    }

    #[test]
    fn metering_counts_queries_and_tuples() {
        let s = dealer();
        let q = admit(&s, "make = \"BMW\" ^ price < 90000", &["make", "model"]);
        let r1 = s.answer(&q).unwrap();
        let r2 = s.answer(&q).unwrap();
        let m = s.meter();
        assert_eq!(m.queries, 2);
        assert_eq!(m.tuples_shipped, (r1.len() + r2.len()) as u64);
        assert_eq!(m.rejected, 0);
        assert_eq!(m.cost(&CostParams::new(50.0, 1.0)), 100.0 + m.tuples_shipped as f64);
        s.reset_meter();
        assert_eq!(s.meter(), Meter::default());
    }

    #[test]
    fn rejected_queries_are_metered() {
        let s = dealer();
        assert!(s.answer(&foreign(Some("year = 1995"), &["make"])).is_err());
        assert_eq!(s.meter().rejected, 1);
        assert_eq!(s.meter().queries, 0);
    }

    #[test]
    fn a_foreign_admission_meets_the_sources_own_gate() {
        // Admitted on a permissive grammar, opened on the strict dealer:
        // the dealer's own gate rejects it and meters the rejection.
        let s = dealer();
        let q = foreign(Some("year = 1995"), &["make"]);
        assert!(s.gate_view().admit(q.cond(), q.attrs()).is_none(), "the dealer never admits it");
        let err = s.open(&q, 8).1.unwrap_err();
        assert!(matches!(&err, SourceError::Unsupported { source, .. } if source == "car_dealer"));
        assert_eq!((s.meter().rejected, s.meter().queries), (1, 0));
        // Behind a fault, the fault gate still fires first.
        let faulty = dealer().with_fault_profile(FaultProfile::new(1).with_transient(1.0));
        assert!(matches!(faulty.open(&q, 8).1, Err(SourceError::Transient { .. })));
        assert_eq!(faulty.meter(), Meter::default(), "the capability gate never saw it");
    }

    #[test]
    fn download_refused_without_true_rule() {
        let s = dealer();
        assert!(s.gate_view().admit(None, &attrs(&["make"])).is_none());
        assert!(s.answer(&foreign(None, &["make"])).is_err());
        // A download-only source accepts it.
        let dl = Source::new(
            datagen::cars(3, 50),
            templates::download_only(
                "dl",
                &[("make", csqp_expr::ValueType::Str), ("price", csqp_expr::ValueType::Int)],
            ),
            CostParams::default(),
        );
        let q = dl.gate_view().admit(None, &attrs(&["make", "price"])).unwrap();
        assert_eq!(q.cond(), None);
        assert!(!dl.answer(&q).unwrap().is_empty());
    }

    #[test]
    fn fault_gate_fires_before_capability_gate() {
        // 100% transient: even a gate-rejected query surfaces the fault
        // (the network fails before the source sees the query).
        let s = Source::new(datagen::cars(3, 50), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(1).with_transient(1.0));
        let err = s.answer(&foreign(Some("year = 1995"), &["make"])).unwrap_err();
        assert!(matches!(err, SourceError::Transient { .. }));
        assert!(err.is_retryable());
        assert_eq!(s.meter().rejected, 0, "gate never consulted");
        assert_eq!(s.meter().queries, 0);
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let profile = FaultProfile::storm(99, 0.7);
        let run = |profile: FaultProfile| -> Vec<bool> {
            let s =
                Source::new(datagen::cars(3, 100), templates::car_dealer(), CostParams::default())
                    .with_fault_profile(profile);
            let q = admit(&s, "make = \"BMW\" ^ price < 40000", &["model"]);
            (0..40).map(|_| s.answer(&q).is_ok()).collect()
        };
        let a = run(profile.clone());
        let b = run(profile);
        assert_eq!(a, b, "same seed replays the same outcome sequence");
        assert!(a.iter().any(|ok| *ok) && a.iter().any(|ok| !ok), "storm mixes outcomes");
    }

    #[test]
    fn outage_window_downs_then_recovers() {
        let s = Source::new(datagen::cars(3, 50), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(0).with_outage(0, 3));
        let q = admit(&s, "make = \"BMW\" ^ price < 40000", &["model"]);
        let outcomes: Vec<_> = (0..4).map(|_| s.answer(&q)).collect();
        let outages =
            outcomes.iter().filter(|o| matches!(o, Err(SourceError::Unavailable { .. }))).count();
        assert_eq!(outages, 3);
        assert!(outcomes[3].is_ok(), "outage window passed");
    }

    #[test]
    fn no_profile_keeps_resilience_meter_zero() {
        let s = dealer();
        let q = admit(&s, "make = \"BMW\" ^ price < 40000", &["model"]);
        let (ticks, stream) = s.open(&q, 8);
        assert_eq!(ticks, 0);
        assert_eq!(stream.unwrap().pull().0, 0, "a pull without a profile draws no ticks");
    }

    #[test]
    fn timeout_burns_ticks() {
        let s = Source::new(datagen::cars(3, 50), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(3).with_timeout(1.0, 25));
        let q = admit(&s, "make = \"BMW\" ^ price < 40000", &["model"]);
        let err = s.answer(&q).unwrap_err();
        assert!(matches!(err, SourceError::Timeout { ticks: 25, .. }));
        let (ticks, opened) = s.open(&q, 8);
        assert!(matches!(opened, Err(SourceError::Timeout { ticks: 25, .. })));
        assert_eq!(ticks, 25, "the round-trip carries the ticks its fault gate drew");
    }

    #[test]
    fn stream_matches_materialized_answer_and_meter() {
        let s = dealer();
        let q = admit(&s, "make = \"BMW\" ^ price < 90000", &["make", "model"]);
        let oracle = s.answer(&q).unwrap();
        let oracle_meter = s.meter();
        s.reset_meter();

        let mut stream = s.open(&q, 7).1.unwrap();
        let mut got = Relation::empty(stream.schema().clone());
        let mut max_batch = 0;
        while let Some(b) = stream.next_batch().unwrap() {
            max_batch = max_batch.max(b.len());
            for t in b.into_tuples() {
                assert!(got.insert(t), "stream output is already deduplicated");
            }
        }
        assert!(max_batch <= 7);
        assert_eq!(got, oracle);
        assert_eq!(s.meter(), oracle_meter, "drained stream meters like answer");
    }

    #[test]
    fn key_dropping_stream_matches_answer_and_a_btreeset_even_when_every_fingerprint_collides() {
        // {make, year} drops the unique model: many rows share a
        // projection, so the stream's seen set really dedups.
        let c = parse_condition("make = \"BMW\" ^ price < 90000").unwrap();
        let a = attrs(&["make", "year"]);
        for collide in [false, true] {
            COLLIDE.with(|f| f.set(collide));
            let s = dealer();
            let q = s.gate_view().admit(Some(&c), &a).unwrap();
            let oracle = s.answer(&q).unwrap();
            let oracle_meter = s.meter();
            s.reset_meter();
            let mut stream = s.open(&q, 5).1.unwrap();
            let mut got = Vec::new();
            while let Some(b) = stream.next_batch().unwrap() {
                got.extend(b.into_tuples());
            }
            COLLIDE.with(|f| f.set(false));
            let mut seen = BTreeSet::new();
            assert!(got.iter().all(|t| seen.insert(t.clone())), "no tuple ships twice");
            let selected = csqp_relation::ops::select(s.relation(), Some(&c));
            let (_, idx) = project_indices(s.relation().schema(), &["make", "year"]).unwrap();
            let want: BTreeSet<Tuple> = selected.tuples().iter().map(|t| t.project(&idx)).collect();
            assert_eq!(seen, want, "collide={collide}");
            assert!(got.len() < selected.len(), "the projection is lossy");
            assert_eq!(got, oracle.tuples(), "same rows in the same order as answer");
            assert_eq!(s.meter(), oracle_meter, "collide={collide}");
        }
    }

    #[test]
    fn take_shipped_is_the_shipped_set_and_closes_the_stream() {
        let c = parse_condition("make = \"BMW\" ^ price < 90000").unwrap();
        let a = attrs(&["make", "year"]);
        for collide in [false, true] {
            let s = dealer();
            COLLIDE.with(|f| f.set(collide));
            let mut stream = s.open(&s.gate_view().admit(Some(&c), &a).unwrap(), 4).1.unwrap();
            let mut shipped = Vec::new();
            for _ in 0..3 {
                shipped.extend(stream.next_batch().unwrap().unwrap().into_tuples());
            }
            let set = stream.take_shipped();
            COLLIDE.with(|f| f.set(false));
            assert_eq!(set.len(), shipped.len());
            assert!(shipped.iter().all(|t| set.contains(t)));
            assert!(stream.next_batch().unwrap().is_none(), "a taken stream is closed");
            assert_eq!(s.meter().tuples_shipped, shipped.len() as u64);
        }
    }

    #[test]
    fn key_keeping_stream_matches_answer_even_when_every_fingerprint_collides() {
        // {make, model} keeps the unique model: the stream keeps no seen
        // set, so a colliding fingerprint has nothing to confuse.
        let c = parse_condition("make = \"BMW\" ^ price < 90000").unwrap();
        let a = attrs(&["make", "model"]);
        for collide in [false, true] {
            let s = dealer();
            assert!(s.stats().is_unique("model") && !s.stats().is_unique("make"));
            let q = s.gate_view().admit(Some(&c), &a).unwrap();
            let oracle = s.answer(&q).unwrap();
            let oracle_meter = s.meter();
            let fresh = dealer();
            COLLIDE.with(|f| f.set(collide));
            let mut stream = fresh.open(&q, 5).1.unwrap();
            assert!(stream.seen.is_none(), "a key-keeping stream keeps no seen set");
            let mut got = Vec::new();
            while let Some(b) = stream.next_batch().unwrap() {
                got.extend(b.into_tuples());
            }
            COLLIDE.with(|f| f.set(false));
            assert_eq!(got, oracle.tuples(), "same rows in the same order, collide={collide}");
            assert_eq!(fresh.meter(), oracle_meter, "collide={collide}");
        }
    }

    #[test]
    fn shipped_batches_select_over_the_relations_own_rows() {
        // {make, model} keeps a unique column, {make, year} has a seen set.
        for names in [&["make", "model"][..], &["make", "year"]] {
            let s = dealer();
            let q = admit(&s, "make = \"BMW\" ^ price < 90000", names);
            let oracle = s.answer(&q).unwrap();
            let mut stream = s.open(&q, 6).1.unwrap();
            let mut got = Vec::new();
            while let Some(b) = stream.pull().1.unwrap() {
                assert!(Arc::ptr_eq(b.store(), s.relation().shared_tuples()), "{names:?}");
                got.extend(b.rows().map(|row| row.to_tuple()));
            }
            assert_eq!(got, oracle.tuples(), "{names:?}");
        }
    }

    #[test]
    fn key_keeping_take_shipped_is_the_shipped_set_and_closes_the_stream() {
        let c = parse_condition("make = \"BMW\" ^ price < 90000").unwrap();
        let a = attrs(&["model", "year"]);
        for collide in [false, true] {
            let s = dealer();
            COLLIDE.with(|f| f.set(collide));
            let mut stream = s.open(&s.gate_view().admit(Some(&c), &a).unwrap(), 4).1.unwrap();
            assert!(stream.seen.is_none());
            let mut shipped = Vec::new();
            for _ in 0..3 {
                shipped.extend(stream.next_batch().unwrap().unwrap().into_tuples());
            }
            let set = stream.take_shipped();
            COLLIDE.with(|f| f.set(false));
            assert_eq!(set.len(), shipped.len(), "collide={collide}");
            assert!(shipped.iter().all(|t| set.contains(t)));
            assert!(stream.next_batch().unwrap().is_none(), "a taken stream is closed");
            assert_eq!(s.meter().tuples_shipped, shipped.len() as u64);
        }
    }

    #[test]
    fn key_keeping_take_shipped_after_a_fault_counts_only_shipped_rows() {
        // Attempt 0 opens, attempt 1 ships, attempt 2 faults: the rows the
        // failed pull would have scanned are not in the shipped set.
        let s = Source::new(datagen::cars(3, 200), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(0).with_outage(2, 1));
        let q = admit(&s, "make = \"BMW\" ^ price < 90000", &["model"]);
        let mut stream = s.open(&q, 3).1.unwrap();
        let shipped = stream.next_batch().unwrap().unwrap().into_tuples();
        assert!(stream.next_batch().is_err());
        let set = stream.take_shipped();
        assert_eq!(set.len(), shipped.len());
        assert!(shipped.iter().all(|t| set.contains(t)));
    }

    #[test]
    fn stream_gate_rejects_at_open() {
        let s = dealer();
        assert!(s.open(&foreign(Some("year = 1995"), &["make"]), 8).1.is_err());
        assert_eq!(s.meter().rejected, 1);
        assert_eq!(s.meter().queries, 0);
        // The raw swapped order fails the gate; admitted on the gate view,
        // it opens.
        let swapped = "price < 40000 ^ make = \"BMW\"";
        assert!(s.open(&foreign(Some(swapped), &["model"]), 8).1.is_err());
        assert!(s.open(&admit(&s, swapped, &["model"]), 8).1.is_ok());
    }

    #[test]
    fn mid_stream_fault_is_resumable() {
        // Outage covers attempts 1..4: the open succeeds (attempt 0), then
        // three pulls fault, then the scan resumes where it left off.
        let s = Source::new(datagen::cars(3, 200), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::new(0).with_outage(1, 3));
        let q = admit(&s, "make = \"BMW\" ^ price < 90000", &["make", "model"]);
        let mut stream = s.open(&q, 4).1.unwrap();
        let mut rows = Relation::empty(stream.schema().clone());
        let mut faults = 0;
        loop {
            match stream.next_batch() {
                Ok(Some(b)) => {
                    for t in b.into_tuples() {
                        assert!(rows.insert(t), "no tuple ships twice across retries");
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    assert!(e.is_retryable());
                    faults += 1;
                    assert!(faults < 100, "outage must end");
                }
            }
        }
        assert_eq!(faults, 3);
        let oracle =
            Source::new(datagen::cars(3, 200), templates::car_dealer(), CostParams::default());
        assert_eq!(rows, oracle.answer(&q).unwrap());
        assert_eq!(s.meter().tuples_shipped, rows.len() as u64);
    }

    #[test]
    fn stats_available_for_costing() {
        let s = dealer();
        let c = parse_condition("make = \"BMW\"").unwrap();
        let est = s.stats().estimate_rows(Some(&c));
        let actual = csqp_relation::ops::select(s.relation(), Some(&c)).len() as f64;
        assert!((est - actual).abs() < 1.0, "exact frequencies: est {est} vs {actual}");
    }
}
