//! Prepared-plan cache differential: cached-plan answers ≡ cold-planned
//! answers.
//!
//! [`Federation::prepare`] may answer a query from the prepared-plan cache
//! by rebinding the incoming constants into a plan built for an earlier
//! query of the same *shape*. The promise pinned here is capability-cache
//! transparency: for any sequence of feasible queries, executing the
//! prepared plan returns exactly the rows that planning the query cold
//! would have returned — hits, misses and rejects alike.
//!
//! The deterministic tests additionally pin the soundness gate for
//! const-literal grammars: a cached plan whose winner's grammar hardwires a
//! constant (`make = "BMW" ^ price < $int`) must be *rejected* — not
//! served — when the incoming constants change what the source can check,
//! and the query must fall back to a cold plan with correct answers. No run
//! may send a member a query its description does not accept.
//!
//! Breaker transitions leave the cache alone: every entry is the decision
//! an all-closed federation makes, a hit on a quarantined member plans
//! cold around it without caching that decision, and after every
//! transition a decision whose winner is not quarantined is the cold one.

mod common;

use csqp_core::federation::{BreakerHealth, CircuitBreakerConfig, Federation};
use csqp_core::mediator::{Mediator, StreamOptions};
use csqp_core::plancache::{CacheDecision, PlanCache};
use csqp_core::types::{PlannedQuery, TargetQuery};
use csqp_obs::names;
use csqp_plan::StreamConfig;
use csqp_relation::datagen;
use csqp_source::{CostParams, FaultProfile, Source};
use csqp_ssdl::{parse_ssdl, templates};
use proptest::prelude::*;
use std::sync::Arc;

/// Three capability-limited mirrors over the same car data: two full
/// car-dealer grammars at different cost points, plus a cheap source whose
/// grammar hardwires `make = "BMW"` — the const-literal member that forces
/// the cache's revalidation gate to earn its keep.
fn members() -> Vec<Arc<Source>> {
    let data = || datagen::cars(3, 400);
    let dealer = Arc::new(Source::new(data(), templates::car_dealer(), CostParams::new(10.0, 1.0)));
    let mirror = Arc::new(Source::new(data(), templates::car_dealer(), CostParams::new(50.0, 1.0)));
    let bmw_only = Arc::new(Source::new(
        data(),
        parse_ssdl(
            "source bmw_only {\n  s1 -> make = \"BMW\" ^ price < $int ;\n  \
             attributes :: s1 : { make, model, year, color, price } ;\n}",
        )
        .expect("bmw_only SSDL parses"),
        CostParams::new(1.0, 1.0),
    ));
    vec![dealer, mirror, bmw_only]
}

struct Rig {
    federation: Federation,
    mediators: Vec<Mediator>,
    cache: Arc<PlanCache>,
}

fn rig(with_cache: bool) -> Rig {
    let members = members();
    let cache = Arc::new(PlanCache::new());
    let mut federation = members.iter().fold(Federation::new(), |f, m| f.with_member(m.clone()));
    if with_cache {
        federation = federation.with_plan_cache(cache.clone());
    }
    let mediators = members.iter().map(|m| Mediator::new(m.clone())).collect();
    Rig { federation, mediators, cache }
}

/// Executes a planned query on `member`'s warm mediator and returns the
/// sorted row renderings — the byte-comparable answer.
fn rows_of(rig: &Rig, member: usize, planned: PlannedQuery) -> Vec<String> {
    let mut rows = Vec::new();
    rig.mediators[member]
        .run_stream(
            planned,
            StreamOptions::plain(&StreamConfig::default()),
            Some(&mut |batch| {
                for row in batch.rows() {
                    rows.push(row.to_string());
                }
                true
            }),
        )
        .expect("planned execution succeeds");
    common::assert_no_rejections(rig.federation.members());
    rows.sort();
    rows
}

/// Plans `q` cold (no cache) and returns its sorted answer.
fn cold_answer(cold: &Rig, q: &TargetQuery) -> Vec<String> {
    let fp = cold.federation.plan(q).expect("cold plan succeeds");
    assert!(Arc::ptr_eq(&cold.federation.members()[fp.member], &fp.source));
    rows_of(cold, fp.member, fp.planned)
}

fn q(cond: &str, attrs: &[&str]) -> TargetQuery {
    TargetQuery::parse(cond, attrs).unwrap_or_else(|e| panic!("bad query {cond:?}: {e}"))
}

const MAKES: &[&str] = &["BMW", "Toyota", "Honda", "Ford"];
const COLORS: &[&str] = &["red", "black", "blue", "white"];

/// Decodes one sampled seed into a query: a shape family plus the
/// constants bound into its slots (the vendored proptest shim samples
/// integer ranges only, so composite inputs decode from a `u64`). Families
/// share shapes across instances, so a sequence of these drives hits,
/// rejects and misses through the cache.
fn decode(seed: u64) -> TargetQuery {
    let make = MAKES[(seed % MAKES.len() as u64) as usize];
    let make2 = MAKES[((seed >> 3) % MAKES.len() as u64) as usize];
    let color = COLORS[((seed >> 6) % COLORS.len() as u64) as usize];
    let price = 9_000 + ((seed >> 9) % 81_000) as i64;
    let cond = match (seed >> 28) % 3 {
        0 => format!("make = \"{make}\" ^ price < {price}"),
        1 => format!(
            "(make = \"{make}\" ^ price < {price}) _ (make = \"{make2}\" ^ color = \"{color}\")"
        ),
        _ => format!("make = \"{make}\" ^ color = \"{color}\""),
    };
    let attrs: &[&str] = if (seed >> 31) & 1 == 1 { &["model"] } else { &["model", "year"] };
    q(&cond, attrs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any query sequence, the prepared path (cache hits, rebinds,
    /// rejects and cold fallbacks interleaved) answers byte-identically to
    /// planning every query cold.
    #[test]
    fn prepared_answers_match_cold_planned(seeds in proptest::collection::vec(0u64..u64::MAX, 1..10)) {
        let cached = rig(true);
        let cold = rig(false);
        for &seed in &seeds {
            let query = decode(seed);
            let prepared = cached.federation.prepare(&query).expect("prepare succeeds");
            let got = rows_of(&cached, prepared.member, prepared.planned);
            let want = cold_answer(&cold, &query);
            prop_assert_eq!(&got, &want, "cached-path answer diverged for {}", query);
        }
        // Coherence: every prepare was accounted as exactly one of
        // hit/miss/reject (the cache is installed, so never a bypass).
        let stats = cached.cache.stats();
        prop_assert_eq!(stats.hits + stats.misses + stats.rejected, seeds.len() as u64);
    }
}

/// Repeat shapes hit: the second query of a shape family skips planning,
/// rebinds the constants, and still answers exactly like a cold plan.
#[test]
fn same_shape_second_query_hits_and_matches_cold() {
    let cached = rig(true);
    let cold = rig(false);
    // Toyota first so the const-literal BMW member is infeasible and the
    // cached winner is a full-grammar dealer.
    let first = q("make = \"Toyota\" ^ price < 30000", &["model", "year"]);
    let second = q("make = \"Honda\" ^ price < 20000", &["model", "year"]);
    let p1 = cached.federation.prepare(&first).expect("first prepare");
    assert!(matches!(p1.decision, CacheDecision::Miss), "cold cache misses first");
    assert_eq!(rows_of(&cached, p1.member, p1.planned), cold_answer(&cold, &first));
    let p2 = cached.federation.prepare(&second).expect("second prepare");
    assert!(matches!(p2.decision, CacheDecision::Hit), "same shape hits: {:?}", p2.decision);
    assert!(p2.considered.verdicts.is_empty(), "a hit skips the planner fan-out");
    assert_eq!(rows_of(&cached, p2.member, p2.planned), cold_answer(&cold, &second));
    assert_eq!(cached.cache.stats().hits, 1);
}

/// The const-literal soundness gate: a plan cached on the `make = "BMW"`
/// hardwired member must not be rebound to a Toyota query — the cache
/// rejects, the query replans cold, and the answer is still exact.
#[test]
fn const_literal_winner_rejects_foreign_constants() {
    let cached = rig(true);
    let cold = rig(false);
    // BMW + price: the const-literal member is feasible and, at cost 1.0,
    // wins — the cached plan is pinned to it.
    let bmw = q("make = \"BMW\" ^ price < 60000", &["model", "year"]);
    let p1 = cached.federation.prepare(&bmw).expect("BMW prepare");
    assert_eq!(cached.federation.members()[p1.member].name, "bmw_only", "const member wins");
    assert_eq!(rows_of(&cached, p1.member, p1.planned), cold_answer(&cold, &bmw));
    // Same shape, different make: rebinding would silently flip what the
    // hardwired grammar checks, so the lookup must reject and replan.
    let toyota = q("make = \"Toyota\" ^ price < 30000", &["model", "year"]);
    let p2 = cached.federation.prepare(&toyota).expect("Toyota prepare");
    assert!(
        matches!(p2.decision, CacheDecision::Rejected(_)),
        "const-literal rebind must reject: {:?}",
        p2.decision
    );
    assert_ne!(cached.federation.members()[p2.member].name, "bmw_only");
    let got = rows_of(&cached, p2.member, p2.planned);
    let want = cold_answer(&cold, &toyota);
    assert_eq!(got, want);
    assert!(!got.is_empty(), "Toyota rows exist in the corpus");
}

/// Projection attrs are part of the cache key: the same condition shape
/// with a different projection must not reuse the cached plan.
#[test]
fn different_projection_does_not_hit() {
    let cached = rig(true);
    let wide = q("make = \"Toyota\" ^ price < 30000", &["model", "year"]);
    let narrow = q("make = \"Honda\" ^ price < 20000", &["model"]);
    let p1 = cached.federation.prepare(&wide).expect("wide prepare");
    assert!(matches!(p1.decision, CacheDecision::Miss));
    let p2 = cached.federation.prepare(&narrow).expect("narrow prepare");
    assert!(
        matches!(p2.decision, CacheDecision::Miss),
        "projection change must miss: {:?}",
        p2.decision
    );
}

/// A car dealer named `name` over the shared car data.
fn dealer_named(name: &str, cost: CostParams) -> Source {
    let mut desc = templates::car_dealer();
    desc.name = name.into();
    Source::new(datagen::cars(3, 400), desc, cost)
}

/// Breaker transitions interleaved with prepares: the cheap dealer dies on
/// its first two attempts (breaker threshold 1, cooldown 1), so the runs
/// below open its breaker, fail a half-open probe, and close it with a
/// successful one. Every decision, run or not, takes one tick of the
/// breaker clock. After each transition a decision whose winner is not
/// quarantined equals the cold all-closed plan in winner, plan and rows; a
/// decision the quarantined dealer would win plans around it and is not
/// cached; and nothing is ever invalidated.
#[test]
fn breaker_transitions_keep_cached_decisions_equal_to_cold() {
    let [dealer, mirror] = [("dealer", 10.0), ("mirror", 50.0)]
        .map(|(name, k1)| dealer_named(name, CostParams::new(k1, 1.0)));
    let bmw_only = members().pop().expect("the const-literal member");
    let cold_members = [Arc::new(dealer), Arc::new(mirror), bmw_only.clone()];
    let cold = Rig {
        federation: cold_members.iter().fold(Federation::new(), |f, m| f.with_member(m.clone())),
        mediators: cold_members.iter().map(|m| Mediator::new(m.clone())).collect(),
        cache: Arc::new(PlanCache::new()),
    };
    let dark = dealer_named("dealer", CostParams::new(10.0, 1.0))
        .with_fault_profile(FaultProfile::new(0).with_outage(0, 2));
    let cache = Arc::new(PlanCache::new());
    let cached = [Arc::new(dark), cold_members[1].clone(), bmw_only]
        .into_iter()
        .fold(Federation::new(), Federation::with_member)
        .with_breaker(CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 1 })
        .with_plan_cache(cache.clone());
    let stream = StreamConfig::default();
    let toyota = q("make = \"Toyota\" ^ price < 30000", &["model", "year"]);
    let run = || {
        let run = cached.run_stream(&toyota, StreamOptions::plain(&stream), None);
        common::assert_no_rejections(cached.members());
        run.expect("a mirror rescues every run").source_name
    };
    let dealer_health = || cached.breaker_states()[0].1;
    // After each transition: the dealer's shape (its all-closed winner) and
    // a narrower projection, its own shape, that bmw_only wins, against
    // cold planning.
    let check = |round: usize| {
        for (cond, attrs) in [
            ("make = \"Honda\" ^ price < 20000", &["model", "year"][..]),
            ("make = \"BMW\" ^ price < 33000", &["model"][..]),
        ] {
            let query = q(cond, attrs);
            let want = cold.federation.plan(&query).expect("cold plan");
            let (entries, health) = (cache.len(), dealer_health());
            let got = cached.prepare(&query).expect("prepare");
            let ctx = format!("round {round}, {query}, {:?}", got.decision);
            if health == BreakerHealth::Open && want.member == 0 {
                assert_eq!(got.decision, CacheDecision::Rejected("breaker-open"), "{ctx}");
                assert_eq!(got.source.name, "mirror", "{ctx}: the mirror stands in");
                assert_eq!(cache.len(), entries, "{ctx}: the stand-in is not cached");
                continue;
            }
            assert_eq!(got.member, want.member, "{ctx}: winner");
            assert_eq!(got.planned.plan, want.planned.plan, "{ctx}: plan");
            let rows = rows_of(&cold, got.member, got.planned);
            assert_eq!(rows, cold_answer(&cold, &query), "{ctx}: rows");
        }
        assert_eq!(cache.stats().invalidations, 0, "round {round}");
        assert_eq!(cached.metrics_snapshot().counter(names::PLANCACHE_INVALIDATIONS), 0);
    };
    // Tick 1: the dealer wins, dies, and its breaker opens until tick 3.
    assert_eq!((run(), dealer_health()), ("mirror".to_string(), BreakerHealth::Open));
    // Tick 2 sits the dealer out; tick 3 finds it half-open.
    check(1);
    // Tick 4 probes it on a cache hit, and the probe dies: open until 6.
    assert_eq!((run(), dealer_health()), ("mirror".to_string(), BreakerHealth::Open));
    check(2);
    // Tick 7 probes it again; the probe succeeds and closes the breaker.
    assert_eq!(dealer_health(), BreakerHealth::HalfOpen);
    assert_eq!((run(), dealer_health()), ("dealer".to_string(), BreakerHealth::Closed));
    let hit = cached.prepare(&toyota).expect("prepare");
    assert_eq!((hit.decision, hit.member), (CacheDecision::Hit, 0));
    check(3);
}
