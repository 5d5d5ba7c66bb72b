//! Federation-wide prepared-plan cache keyed on *parameterized* shape
//! fingerprints.
//!
//! Two queries that differ only in their constants — `make = "BMW" ^
//! price < 40000` and `make = "Audi" ^ price < 25000` — walk the exact
//! same planner search: capability checks depend on constant *types*
//! (SSDL placeholders match `$str`/`$int`/…, not values), so the winning
//! plan differs only in the constants bound at its leaves. This cache
//! exploits that: the first query plans cold and the winner is stored
//! under its [`shape_fingerprint`]; later queries with the same shape
//! rebind their constants into the stored plan slot-by-slot
//! ([`csqp_expr::param`]) and skip the planning fan-out entirely.
//!
//! ## Soundness
//!
//! Rebinding substitutes atoms homomorphically, so the Boolean
//! equivalences the planner relied on (commutativity, associativity,
//! distributivity, maxeval weakening + local re-filter) transfer to the
//! rebound condition verbatim. Three hazards remain, each handled:
//!
//! - **Aliased slots**: if one prepare-time atom fills several slots but
//!   the incoming query binds those slots to *different* values,
//!   substitution is ambiguous — [`csqp_expr::param::rebind_map`] reports
//!   a [`RebindError::SlotConflict`] and the query falls back to cold
//!   planning.
//! - **Const-literal grammars**: an SSDL description can match literal
//!   constants (`style = "sedan"`), making feasibility depend on values.
//!   For such sources ([`Source::has_const_literals`]) every rebound
//!   source-query condition is re-validated: `Check` must export the
//!   same sets (under both the planning and the gate view) as the
//!   prepare-time condition, otherwise the entry is rejected.
//! - **Stale world**: a membership change wipes the cache
//!   ([`PlanCache::invalidate_all`]); breaker transitions do not. An entry
//!   is the decision an all-closed federation makes, and a hit whose member
//!   is quarantined is rejected (`breaker-open`, [`PlanCache::lookup_admitting`]).
//!
//! A cache hit's `est_cost` is the prepare-time estimate — constants
//! shift selectivities, so the cached plan may be slightly suboptimal
//! for the rebound values, but it is always *correct*: answers are
//! byte-identical to a cold plan's (pinned by the differential suite).

use crate::types::{PlannedQuery, TargetQuery};
use csqp_expr::param::{rebind_map, substitute, RebindError};
use csqp_expr::{Atom, CondTree, Value};
use csqp_plan::{AttrSet, Plan};
use csqp_source::Source;
use csqp_ssdl::linearize::{shape_fingerprint, Fingerprint, FingerprintHasher};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default entry capacity ([`PlanCache::with_capacity`] overrides).
pub const DEFAULT_CAPACITY: usize = 256;

/// One cached prepared plan.
#[derive(Debug)]
struct Entry {
    /// Index of the winning federation member at prepare time.
    member: usize,
    /// The prepare-time condition — the rebind template.
    cond: CondTree,
    /// The prepare-time projection (collision guard: the key folds the
    /// attrs in, but equality is re-checked structurally).
    attrs: AttrSet,
    /// The winning plan as planned cold.
    planned: PlannedQuery,
    /// Monotonic use stamp for least-recently-used eviction.
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Fingerprint, Entry, BuildHasherDefault<FingerprintHasher>>,
    /// Monotonic use counter (not wall clock — deterministic).
    tick: u64,
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum Lookup {
    /// Shape matched and every constant rebound cleanly: execute this.
    Hit {
        /// The cached winner's member index.
        member: usize,
        /// The cached plan with the incoming constants substituted in.
        /// Boxed: a full plan tree dwarfs the other variants.
        planned: Box<PlannedQuery>,
    },
    /// No live entry for the shape.
    Miss,
    /// An entry exists but could not be reused; the reason is a stable
    /// label (`slot-conflict`, `shape-mismatch`, `unknown-atom`,
    /// `const-literal-check`, `attr-mismatch`, `member-gone`,
    /// `breaker-open`).
    Rejected(&'static str),
}

/// How the federation satisfied a `prepare` call — surfaced in the serve
/// trailer, the query profile, and the audit journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// Served from the prepared-plan cache.
    Hit,
    /// Planned cold; the winner was inserted.
    Miss,
    /// An entry existed but was rejected at rebind time; planned cold and
    /// the entry was replaced.
    Rejected(&'static str),
    /// No cache installed on this federation.
    Bypass,
}

impl CacheDecision {
    /// Stable label for trailers and journals.
    pub fn label(&self) -> &'static str {
        match self {
            CacheDecision::Hit => "hit",
            CacheDecision::Miss => "miss",
            CacheDecision::Rejected(_) => "rejected",
            CacheDecision::Bypass => "bypass",
        }
    }
}

/// Point-in-time cache counters ([`PlanCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered with a rebound plan.
    pub hits: u64,
    /// Probes with no live entry.
    pub misses: u64,
    /// Probes whose entry failed rebinding/validation.
    pub rejected: u64,
    /// Entries displaced by capacity.
    pub evictions: u64,
    /// Wipes of the whole cache.
    pub invalidations: u64,
    /// Live entries.
    pub entries: usize,
}

/// A bounded map from parameterized query shapes to prepared plans.
/// Thread-safe: probes, inserts and wipes take one mutex.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// A cache with the [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        PlanCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache bounded to `capacity` entries (minimum 1); the
    /// least-recently-used entry is evicted on overflow.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The cache key: the condition's parameterized shape folded with the
    /// projected attributes (two queries with the same condition shape but
    /// different projections plan differently).
    pub fn key(query: &TargetQuery) -> Fingerprint {
        let shape = shape_fingerprint(Some(&query.cond));
        // Fold the attrs into both 64-bit lanes with the same FNV-style
        // mixing the shape fingerprint itself uses; names are
        // length-prefixed so distinct attr lists give distinct streams.
        let mut a = (shape >> 64) as u64;
        let mut b = shape as u64;
        let mut mix = |x: u8| {
            a = (a ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
            b = (b ^ (u64::from(x) << 17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        };
        for attr in &query.attrs {
            for &byte in (attr.len() as u64).to_le_bytes().iter() {
                mix(byte);
            }
            for &byte in attr.as_bytes() {
                mix(byte);
            }
        }
        (u128::from(a) << 64) | u128::from(b)
    }

    /// Probes the cache for `query`. On a hit the stored plan is returned
    /// with the incoming constants rebound; `members` is the federation's
    /// member list (for const-literal revalidation on the cached winner).
    pub fn lookup(&self, query: &TargetQuery, members: &[Arc<Source>]) -> Lookup {
        self.lookup_admitting(query, members, |_| true)
    }

    /// [`PlanCache::lookup`] that rejects an entry whose member `admit`
    /// turns away (`breaker-open`) before rebinding anything.
    pub fn lookup_admitting(
        &self,
        query: &TargetQuery,
        members: &[Arc<Source>],
        admit: impl Fn(usize) -> bool,
    ) -> Lookup {
        let key = Self::key(query);
        let mut inner = self.inner.lock().expect("plan cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let Some(entry) = inner.map.get_mut(&key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        };
        entry.last_used = tick;
        let reject = |counter: &AtomicU64, reason: &'static str| {
            counter.fetch_add(1, Ordering::Relaxed);
            Lookup::Rejected(reason)
        };
        if entry.attrs != query.attrs {
            // A key collision across different projections: vanishingly
            // unlikely, but rebinding across it would be unsound.
            return reject(&self.rejected, "attr-mismatch");
        }
        let Some(source) = members.get(entry.member) else {
            return reject(&self.rejected, "member-gone");
        };
        if !admit(entry.member) {
            return reject(&self.rejected, "breaker-open");
        }
        let map = match rebind_map(&entry.cond, &query.cond) {
            Ok(m) => m,
            Err(RebindError::SlotConflict) => return reject(&self.rejected, "slot-conflict"),
            Err(RebindError::ShapeMismatch) => return reject(&self.rejected, "shape-mismatch"),
            Err(RebindError::UnknownAtom) => return reject(&self.rejected, "unknown-atom"),
        };
        let plan = match rebind_plan(&entry.planned.plan, &map) {
            Ok(p) => p,
            Err(_) => return reject(&self.rejected, "unknown-atom"),
        };
        // Value-sensitive grammars: every rebound source-query condition
        // must export exactly what its prepare-time twin did, under both
        // the planning and the execution-gate views.
        if source.has_const_literals() && !checks_match(source, &entry.planned.plan, &plan) {
            return reject(&self.rejected, "const-literal-check");
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Lookup::Hit {
            member: entry.member,
            planned: Box::new(PlannedQuery {
                plan,
                est_cost: entry.planned.est_cost,
                report: entry.planned.report,
                // The caller opens this query's own flight.
                flight_id: 0,
            }),
        }
    }

    /// Stores (or replaces) the prepared plan for `query`'s shape,
    /// evicting the least-recently-used entry when full. Returns the
    /// number of entries evicted (0 or 1).
    pub fn insert(&self, query: &TargetQuery, member: usize, planned: PlannedQuery) -> u64 {
        let key = Self::key(query);
        let mut inner = self.inner.lock().expect("plan cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let mut evicted = 0;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // O(capacity) victim scan: at the bounded sizes this cache
            // runs at, a scan beats maintaining an ordered index.
            if let Some(victim) = inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
            {
                inner.map.remove(&victim);
                evicted = 1;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(
            key,
            Entry {
                member,
                cond: query.cond.clone(),
                attrs: query.attrs.clone(),
                planned,
                last_used: tick,
            },
        );
        evicted
    }

    /// Wipes the cache (a membership change). Returns how many entries
    /// were dropped.
    pub fn invalidate_all(&self) -> usize {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("plan cache lock");
        let n = inner.map.len();
        inner.map.clear();
        n
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache lock").map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Rebinds every condition in `plan` through `map`, preserving structure
/// and shared attribute sets.
fn rebind_plan(plan: &Plan, map: &HashMap<Atom, Value>) -> Result<Plan, RebindError> {
    let rebind_cond = |cond: &Option<CondTree>| -> Result<Option<CondTree>, RebindError> {
        cond.as_ref().map(|c| substitute(c, map)).transpose()
    };
    match plan {
        Plan::SourceQuery { cond, attrs } => {
            Ok(Plan::SourceQuery { cond: rebind_cond(cond)?, attrs: attrs.clone() })
        }
        Plan::LocalSp { cond, attrs, input } => Ok(Plan::LocalSp {
            cond: rebind_cond(cond)?,
            attrs: attrs.clone(),
            input: Box::new(rebind_plan(input, map)?),
        }),
        Plan::Intersect(cs) => {
            Ok(Plan::Intersect(cs.iter().map(|c| rebind_plan(c, map)).collect::<Result<_, _>>()?))
        }
        Plan::Union(cs) => {
            Ok(Plan::Union(cs.iter().map(|c| rebind_plan(c, map)).collect::<Result<_, _>>()?))
        }
        Plan::Choice(cs) => {
            Ok(Plan::Choice(cs.iter().map(|c| rebind_plan(c, map)).collect::<Result<_, _>>()?))
        }
    }
}

/// For value-sensitive (const-literal) grammars: does every rebound
/// source-query condition export exactly what its prepare-time twin did,
/// under both capability views? Source queries are compared positionally —
/// [`rebind_plan`] preserves plan structure, so the lists zip 1:1.
fn checks_match(source: &Source, prepared: &Plan, rebound: &Plan) -> bool {
    let before = prepared.source_queries();
    let after = rebound.source_queries();
    debug_assert_eq!(before.len(), after.len(), "rebind preserves plan structure");
    before.iter().zip(&after).all(|((pc, _), (rc, _))| {
        source.planning_view().check(pc.as_ref()) == source.planning_view().check(rc.as_ref())
            && source.gate_view().check(pc.as_ref()) == source.gate_view().check(rc.as_ref())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mediator::Mediator;
    use csqp_relation::datagen;
    use csqp_source::CostParams;
    use csqp_ssdl::{parse_ssdl, templates};

    fn car_source() -> Arc<Source> {
        Arc::new(Source::new(
            datagen::cars(3, 400),
            templates::car_dealer(),
            CostParams::new(10.0, 1.0),
        ))
    }

    fn planned_for(source: &Arc<Source>, q: &TargetQuery) -> PlannedQuery {
        Mediator::new(source.clone()).plan(q).expect("feasible")
    }

    fn q(cond: &str) -> TargetQuery {
        TargetQuery::parse(cond, &["model", "year"]).unwrap()
    }

    #[test]
    fn same_shape_hits_and_rebinds_constants() {
        let source = car_source();
        let cache = PlanCache::new();
        let members = vec![source.clone()];
        let prepare = q("make = \"BMW\" ^ price < 40000");
        let incoming = q("make = \"Audi\" ^ price < 25000");
        assert!(matches!(cache.lookup(&prepare, &members), Lookup::Miss));
        cache.insert(&prepare, 0, planned_for(&source, &prepare));
        let Lookup::Hit { member, planned } = cache.lookup(&incoming, &members) else {
            panic!("expected hit");
        };
        assert_eq!(member, 0);
        // The rebound plan matches what cold planning would produce for
        // the incoming query (same shape, same grammar, value-insensitive).
        let cold = planned_for(&source, &incoming);
        assert_eq!(planned.plan, cold.plan);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn different_shapes_miss_and_projections_are_part_of_the_key() {
        let source = car_source();
        let cache = PlanCache::new();
        let members = vec![source.clone()];
        let prepare = q("make = \"BMW\" ^ price < 40000");
        cache.insert(&prepare, 0, planned_for(&source, &prepare));
        // Different condition shape: same attrs/ops but a different tree.
        let other = q("make = \"BMW\" ^ color = \"red\"");
        assert!(matches!(cache.lookup(&other, &members), Lookup::Miss));
        // Same condition shape, different projection: distinct key.
        let narrower = TargetQuery::parse("make = \"Audi\" ^ price < 25000", &["model"]).unwrap();
        assert!(matches!(cache.lookup(&narrower, &members), Lookup::Miss));
        // Same shape, different constant *type*: distinct key ($int vs $str).
        let retyped = q("make = \"BMW\" ^ price < \"x\"");
        assert!(matches!(cache.lookup(&retyped, &members), Lookup::Miss));
    }

    #[test]
    fn aliased_slots_with_conflicting_values_reject() {
        let source = car_source();
        let cache = PlanCache::new();
        let members = vec![source.clone()];
        // The same atom fills two slots at prepare time…
        let prepare = TargetQuery::parse(
            "(make = \"BMW\" ^ price < 40000) _ (make = \"BMW\" ^ color = \"red\")",
            &["model", "year"],
        )
        .unwrap();
        cache.insert(&prepare, 0, planned_for(&source, &prepare));
        // …but the incoming query binds those slots to different values.
        let conflicted = TargetQuery::parse(
            "(make = \"BMW\" ^ price < 40000) _ (make = \"Audi\" ^ color = \"red\")",
            &["model", "year"],
        )
        .unwrap();
        match cache.lookup(&conflicted, &members) {
            Lookup::Rejected(reason) => assert_eq!(reason, "slot-conflict"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(cache.stats().rejected, 1);
        // Consistent aliasing still hits.
        let consistent = TargetQuery::parse(
            "(make = \"Audi\" ^ price < 9000) _ (make = \"Audi\" ^ color = \"blue\")",
            &["model", "year"],
        )
        .unwrap();
        assert!(matches!(cache.lookup(&consistent, &members), Lookup::Hit { .. }));
    }

    #[test]
    fn const_literal_grammars_revalidate_check_on_rebind() {
        // A grammar that matches ONE literal make besides the generic
        // price form: feasibility depends on the constant's value.
        let desc = parse_ssdl(
            "source picky {\n\
             s1 -> make = \"BMW\" ^ price < $int ;\n\
             attributes :: s1 : { make, model, year, price } ;\n}",
        )
        .unwrap();
        let source = Arc::new(Source::new(datagen::cars(3, 400), desc, CostParams::default()));
        assert!(source.has_const_literals());
        let cache = PlanCache::new();
        let members = vec![source.clone()];
        let prepare = q("make = \"BMW\" ^ price < 40000");
        cache.insert(&prepare, 0, planned_for(&source, &prepare));
        // Same shape, but the literal no longer matches: the prepared
        // plan would push an unsupported source query. Must reject.
        let other = q("make = \"Audi\" ^ price < 40000");
        match cache.lookup(&other, &members) {
            Lookup::Rejected(reason) => assert_eq!(reason, "const-literal-check"),
            other => panic!("expected rejection, got {other:?}"),
        }
        // The matching literal still hits.
        let same = q("make = \"BMW\" ^ price < 10000");
        assert!(matches!(cache.lookup(&same, &members), Lookup::Hit { .. }));
    }

    #[test]
    fn invalidation_wipes_and_lru_eviction_bounds_the_map() {
        let source = car_source();
        let members = vec![source.clone()];
        let cache = PlanCache::with_capacity(2);
        let q1 = q("make = \"BMW\" ^ price < 40000");
        let q2 = q("make = \"BMW\" ^ color = \"red\"");
        let q3 = q("(make = \"VW\" ^ price < 1000) _ (make = \"VW\" ^ color = \"red\")");
        cache.insert(&q1, 0, planned_for(&source, &q1));
        cache.insert(&q2, 0, planned_for(&source, &q2));
        // Touch q1 so q2 is the LRU victim.
        assert!(matches!(cache.lookup(&q1, &members), Lookup::Hit { .. }));
        cache.insert(&q3, 0, planned_for(&source, &q3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(matches!(cache.lookup(&q1, &members), Lookup::Hit { .. }), "recently used kept");
        assert!(matches!(cache.lookup(&q2, &members), Lookup::Miss), "LRU victim evicted");
        assert!(matches!(cache.lookup(&q3, &members), Lookup::Hit { .. }));
        // A wipe kills everything.
        assert_eq!(cache.invalidate_all(), 2);
        assert!(matches!(cache.lookup(&q1, &members), Lookup::Miss));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn decision_labels_are_stable() {
        assert_eq!(CacheDecision::Hit.label(), "hit");
        assert_eq!(CacheDecision::Miss.label(), "miss");
        assert_eq!(CacheDecision::Rejected("x").label(), "rejected");
        assert_eq!(CacheDecision::Bypass.label(), "bypass");
    }
}
