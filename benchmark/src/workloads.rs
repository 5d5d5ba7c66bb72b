//! The four workloads: which federation each serves, which requests it
//! sends, and under which load shape.
//!
//! Data is fixed (the relations and capabilities never depend on `--seed`);
//! the seed feeds only the request generators — constants and order — and
//! the server sees nothing but the generated requests. Mirrors of one domain
//! share one relation, so the expected answer never depends on which member
//! the planner picks.

use crate::verify::{expect_query, Expect};
use csqp::relation::{datagen, Relation};
use csqp::source::{CostParams, Source};
use csqp::ssdl::parse_ssdl;
use csqp_bench::fedcorpus::{corpus_members, FedCorpusConfig};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Capacity of the served prepared-plan cache (`ServeConfig` default); the
/// workloads are sized against it.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// Mirrors per `fedcorpus` domain.
const MIRRORS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    PlanCold,
    StreamBig,
    MixedOpen,
}

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Each client sends its next request when the previous one completed.
    Closed { clients: usize },
    /// Requests are due on a fixed schedule whatever the server does.
    Open { rate: f64 },
}

/// One generated request, before its expected answer is known.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    Query {
        /// Index of the domain (and so the relation) the query is about.
        domain: usize,
        cond: String,
        attrs: String,
        limit: Option<u64>,
    },
    /// A telemetry read.
    Page(&'static str),
}

impl Spec {
    /// The request target sent on the wire.
    pub fn path(&self) -> String {
        match self {
            Spec::Page(p) => (*p).to_string(),
            Spec::Query { cond, attrs, limit, .. } => {
                let mut p = format!("/query?cond={}&attrs={attrs}", urlencode(cond));
                if let Some(n) = limit {
                    let _ = write!(p, "&limit={n}");
                }
                p
            }
        }
    }
}

/// A request ready to send: target plus what a correct response looks like.
#[derive(Debug, Clone)]
pub struct Request {
    pub spec: Spec,
    pub path: String,
    pub expect: Expect,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ServeHot, Workload::PlanCold, Workload::StreamBig, Workload::MixedOpen];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::PlanCold => "plan_cold",
            Workload::StreamBig => "stream_big",
            Workload::MixedOpen => "mixed_open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One sentence: why this workload exists (copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeHot => {
                "8 mirrors, 8 query shapes that fit the plan cache, small answers, closed loop: \
                 accept, admission, parse, cache rebind, telemetry epilogue and socket own the time"
            }
            Workload::PlanCold => {
                "4000 members, 1500 shapes cycled through a 256-entry cache so every request \
                 misses, closed loop: index select, Check/IPG/MCSC and O(members) bookkeeping own it"
            }
            Workload::StreamBig => {
                "2 mirrors of a 40k-row relation, one cached shape, 10k-row answers, closed loop: \
                 scan, stream pipeline, dedup, row rendering and socket writes own the time"
            }
            Workload::MixedOpen => {
                "1000 members, 75% hits 15% inserts+evictions 5% limit=5 5% telemetry reads, open \
                 loop at a fixed 250 req/s: latency from due time, cache and registry read while written"
            }
        }
    }

    pub fn load(self) -> Load {
        match self {
            Workload::MixedOpen => Load::Open { rate: 250.0 },
            _ => Load::Closed { clients: 2 },
        }
    }

    /// The three fixed rates (req/s) of the traced run's open-loop ladder:
    /// about a quarter, a half and the whole of the closed-loop capacity
    /// first measured on the reference box, so the top step overloads.
    pub fn ladder(self) -> [f64; 3] {
        match self {
            Workload::ServeHot => [1000.0, 2000.0, 4000.0],
            Workload::PlanCold => [50.0, 100.0, 200.0],
            Workload::StreamBig => [25.0, 50.0, 100.0],
            Workload::MixedOpen => [125.0, 250.0, 500.0],
        }
    }

    /// Builds the federation members. This is the first step of what
    /// `setup_s` times.
    pub fn members(self) -> Vec<Arc<Source>> {
        match self {
            Workload::ServeHot => {
                let cars = datagen::cars(3, 400);
                (0..MIRRORS).map(|i| dealer(i, cars.clone())).collect()
            }
            Workload::PlanCold => corpus_members(&fed_config(self)),
            Workload::StreamBig => {
                let cars = datagen::cars(11, 40_000);
                (0..2).map(|i| year_range_mirror(i, cars.clone())).collect()
            }
            Workload::MixedOpen => corpus_members(&fed_config(self)),
        }
    }

    /// The relation behind domain `d` of `members` (every mirror of a
    /// domain serves the same one).
    pub fn domain_relation(self, members: &[Arc<Source>], d: usize) -> &Relation {
        match self {
            Workload::ServeHot | Workload::StreamBig => members[0].relation(),
            Workload::PlanCold | Workload::MixedOpen => members[d * MIRRORS].relation(),
        }
    }

    /// The request corpus for `seed`: a finite list, cycled by the load
    /// generator. Same seed, same list, byte for byte.
    pub fn specs(self, seed: u64) -> Vec<Spec> {
        // Each workload draws from its own stream so adding a request to
        // one never shifts another's constants.
        let mut rng = SplitMix64::new(seed ^ (self as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        match self {
            Workload::ServeHot => {
                // Per family, 64 constant sets on an evenly spaced grid
                // shifted by the seed, in a seeded order: answer sizes (and
                // so cost and rows) average the same on every seed.
                let shift = rng.next_u64() as usize;
                let mut order: Vec<usize> = (0..64).collect();
                rng.shuffle(&mut order);
                (0..512).map(|i| hot_car_query(i % 8, order[i / 8], shift)).collect()
            }
            Workload::PlanCold => {
                let domains = fed_config(self).n_sources / MIRRORS;
                // Domain-major, so every stretch of the corpus carries the
                // three condition shapes in equal parts and no round is
                // made of one shape alone.
                (0..domains)
                    .flat_map(|d| (0..3).map(move |v| (d, v)))
                    .map(|(d, v)| domain_query(d, v, None, &mut rng))
                    .collect()
            }
            Workload::StreamBig => {
                // Ten three-year windows over twelve uniformly spread
                // years: each selects about a quarter of the relation. Six
                // shuffled passes over all ten, then four more windows of
                // the seed's choosing, so that the seed decides a little
                // more than the order.
                let mut windows: Vec<i64> = (1988..=1997).collect();
                let mut years = Vec::new();
                for _ in 0..6 {
                    rng.shuffle(&mut windows);
                    years.extend_from_slice(&windows);
                }
                rng.shuffle(&mut windows);
                years.extend_from_slice(&windows[..4]);
                years
                    .into_iter()
                    .map(|y| Spec::Query {
                        domain: 0,
                        cond: format!("year >= {y} ^ year <= {}", y + 2),
                        attrs: "model,year,color,price".to_string(),
                        limit: None,
                    })
                    .collect()
            }
            Workload::MixedOpen => {
                // The mix is exact on every seed; the seed decides the order
                // and the constants.
                let mut kinds = [
                    vec![0u8; 5 * MIXED_COLD_SHAPES],
                    vec![1; MIXED_COLD_SHAPES],
                    vec![2; MIXED_COLD_SHAPES / 3],
                    vec![3; MIXED_COLD_SHAPES / 3],
                ]
                .concat();
                rng.shuffle(&mut kinds);
                let (mut next_hot, mut next_cold, mut next_limit, mut next_page) = (0, 0, 0, 0);
                kinds
                    .into_iter()
                    .map(|kind| match kind {
                        0 => {
                            // Hot shapes take turns, so every seed asks
                            // each shape equally often.
                            let shape = next_hot % MIXED_HOT_SHAPES;
                            next_hot += 1;
                            domain_query(shape / 2, shape % 2, None, &mut rng)
                        }
                        1 => {
                            // Every cold shape once per pass, in order: with
                            // the hot shapes kept alive by their hits, a cold
                            // shape is evicted long before its turn comes
                            // again, so each of these inserts and evicts.
                            let shape = next_cold;
                            next_cold += 1;
                            domain_query(MIXED_HOT_DOMAINS + shape / 3, shape % 3, None, &mut rng)
                        }
                        2 => {
                            next_limit += 1;
                            domain_query(next_limit % MIXED_HOT_DOMAINS, 1, Some(5), &mut rng)
                        }
                        _ => {
                            next_page += 1;
                            Spec::Page(["/metrics", "/status", "/profile"][next_page % 3])
                        }
                    })
                    .collect()
            }
        }
    }

    /// Attaches the expected answer to every spec. Identical requests share
    /// one evaluation.
    pub fn requests(self, specs: &[Spec], members: &[Arc<Source>]) -> Vec<Request> {
        let mut known: HashMap<String, Expect> = HashMap::new();
        specs
            .iter()
            .map(|spec| {
                let path = spec.path();
                let expect = known
                    .entry(path.clone())
                    .or_insert_with(|| match spec {
                        Spec::Page(_) => Expect::Page,
                        Spec::Query { domain, cond, attrs, limit } => {
                            let attrs: Vec<&str> = attrs.split(',').collect();
                            expect_query(
                                self.domain_relation(members, *domain),
                                cond,
                                &attrs,
                                *limit,
                            )
                        }
                    })
                    .clone();
                Request { spec: spec.clone(), path, expect }
            })
            .collect()
    }
}

/// Domains of `mixed_open` whose first two condition shapes are the hot
/// set (the third is answered by the domain's expensive download mirror: a
/// quarter of the hits in that slower mode would put the median time to
/// first row on the edge between the two). The three shapes of all the
/// other domains are the cold pool, each asked once per pass: 75 % hot,
/// 15 % cold, 5 % `limit=5`, 5 % telemetry reads, exactly, on every seed.
pub const MIXED_HOT_DOMAINS: usize = 36;
const MIXED_HOT_SHAPES: usize = MIXED_HOT_DOMAINS * 2;
const MIXED_COLD_SHAPES: usize = (1000 / MIRRORS - MIXED_HOT_DOMAINS) * 3;

fn fed_config(w: Workload) -> FedCorpusConfig {
    match w {
        // 96 rows per domain (fedcorpus defaults to 24): nearly every answer
        // has rows, so time to first row is the first batch's and not, for a
        // seed-dependent half of the requests, the empty answer's trailer;
        // and `limit=5` really cuts an answer short. Execution stays
        // negligible beside planning.
        Workload::PlanCold => FedCorpusConfig {
            n_sources: 4000,
            sources_per_domain: MIRRORS,
            rows_per_source: 96,
            seed: 7,
        },
        Workload::MixedOpen => FedCorpusConfig {
            n_sources: 1000,
            sources_per_domain: MIRRORS,
            rows_per_source: 96,
            seed: 7,
        },
        _ => unreachable!("{} is not built from fedcorpus", w.name()),
    }
}

const MAKES: [&str; 6] = ["Toyota", "BMW", "Honda", "Ford", "Mercedes", "Chevrolet"];
const COLORS: [&str; 6] = ["red", "black", "blue", "white", "silver", "green"];

/// Mirror `i` of the `serve_hot` car relation. Capabilities vary — both
/// forms, price form only, colour form only, both plus a bare make form —
/// and so do the cost constants, so a cold plan has real choices to rank.
fn dealer(i: usize, cars: Relation) -> Arc<Source> {
    let s1 =
        "s1 -> make = $str ^ price < $int ;\n  attributes :: s1 : { make, model, year, color } ;";
    let s2 = "s2 -> make = $str ^ color = $str ;\n  attributes :: s2 : { make, model, year } ;";
    let s3 = "s3 -> make = $str ;\n  attributes :: s3 : { make, model, year } ;";
    let forms = match i % 4 {
        0 => format!("{s1}\n  {s2}"),
        1 => s1.to_string(),
        2 => s2.to_string(),
        _ => format!("{s1}\n  {s2}\n  {s3}"),
    };
    let desc =
        parse_ssdl(&format!("source dealer_{i} {{\n  {forms}\n}}")).expect("dealer SSDL parses");
    Arc::new(Source::new(cars, desc, CostParams::new(10.0 + i as f64, 1.0)))
}

/// Mirror `i` of the `stream_big` relation: a year-range form exporting
/// every column. The second mirror costs more and is never picked, but a
/// cold plan still has to rank it.
fn year_range_mirror(i: usize, cars: Relation) -> Arc<Source> {
    let desc = parse_ssdl(&format!(
        "source big_{i} {{\n  s1 -> year >= $int ^ year <= $int ;\n  \
         attributes :: s1 : {{ make, model, year, color, price }} ;\n}}"
    ))
    .expect("year-range SSDL parses");
    Arc::new(Source::new(cars, desc, CostParams::new(50.0 + 30.0 * i as f64, 1.0 + 0.5 * i as f64)))
}

/// One of the eight `serve_hot` shape families with its `k`-th constant set
/// (`k` in 0..64). Union shapes take distinct constants per slot, so no
/// prepare-time atom fills two slots and a cached plan always rebinds.
fn hot_car_query(family: usize, k: usize, shift: usize) -> Spec {
    // Which make meets which price cell is the same on every seed (so the
    // answer sizes are); the seed moves the price inside its cell, rotates
    // the colours and orders the requests.
    let m = k % MAKES.len();
    let m2 = (m + 1 + (k / MAKES.len()) % (MAKES.len() - 1)) % MAKES.len();
    let c = (k + shift / 3) % COLORS.len();
    let c2 = (c + 1 + (k / COLORS.len() + shift / 11) % (COLORS.len() - 1)) % COLORS.len();
    let (m, m2, c, c2) = (MAKES[m], MAKES[m2], COLORS[c], COLORS[c2]);
    // 64 steps of 781 cover the 50 000-wide price range once.
    let p = 10_000 + (k * 781 + shift % 781) % 50_000;
    let p2 = p + 1_000 + (k * 311 + shift % 311) % 20_000;
    let price = |m: &str, p: usize| format!("make = \"{m}\" ^ price < {p}");
    let color = |m: &str, c: &str| format!("make = \"{m}\" ^ color = \"{c}\"");
    let (cond, attrs) = match family {
        0 => (price(m, p), "model,year"),
        1 => (color(m, c), "model,year"),
        2 => (format!("({}) _ ({})", price(m, p), color(m2, c)), "model,year"),
        3 => (format!("({}) _ ({})", price(m, p), color(m2, c)), "model"),
        4 => (format!("({}) _ ({})", price(m, p), price(m2, p2)), "model,year"),
        5 => (format!("({}) _ ({})", color(m, c), color(m2, c2)), "model,year"),
        6 => (price(m, p), "model"),
        _ => (color(m, c), "model"),
    };
    Spec::Query { domain: 0, cond, attrs: attrs.to_string(), limit: None }
}

/// A query against `fedcorpus` domain `d`: the three condition shapes of
/// `fedcorpus::domain_query`, chosen explicitly, constants from `rng`.
fn domain_query(d: usize, variant: usize, limit: Option<u64>, rng: &mut SplitMix64) -> Spec {
    let cond = match variant {
        0 => format!("a{d} = {} ^ b{d} = {}", rng.below(7), rng.below(5)),
        1 => format!("a{d} = {}", rng.below(7)),
        _ => format!("b{d} = {} ^ c{d} = \"c{}\"", rng.below(5), rng.below(3)),
    };
    Spec::Query { domain: d, cond, attrs: format!("k,a{d}"), limit }
}

/// Percent-encodes a condition for the `cond=` query parameter.
pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// The request generators' own random stream. Deliberately not the
/// repository's vendored `rand`: a change there must not change what this
/// benchmark sends.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp::core::plancache::PlanCache;
    use csqp::core::types::TargetQuery;
    use std::collections::{BTreeMap, HashSet};

    fn paths(w: Workload, seed: u64) -> Vec<String> {
        w.specs(seed).iter().map(Spec::path).collect()
    }

    /// Cache keys of the query requests, in corpus order.
    fn shape_keys(w: Workload, seed: u64) -> Vec<u128> {
        w.specs(seed)
            .iter()
            .filter_map(|s| match s {
                Spec::Query { cond, attrs, .. } => {
                    let attrs: Vec<&str> = attrs.split(',').collect();
                    Some(PlanCache::key(&TargetQuery::parse(cond, &attrs).expect("corpus parses")))
                }
                Spec::Page(_) => None,
            })
            .collect()
    }

    fn shape_counts(w: Workload, seed: u64) -> Vec<usize> {
        let mut counts: BTreeMap<u128, usize> = BTreeMap::new();
        for k in shape_keys(w, seed) {
            *counts.entry(k).or_default() += 1;
        }
        let mut c: Vec<usize> = counts.into_values().collect();
        c.sort_unstable();
        c
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_constants() {
        for w in Workload::ALL {
            assert_eq!(paths(w, 1), paths(w, 1), "{}: same seed", w.name());
            assert_ne!(paths(w, 1), paths(w, 2), "{}: another seed", w.name());
            assert_eq!(paths(w, 1).len(), paths(w, 2).len(), "{}: corpus size", w.name());
        }
    }

    #[test]
    fn closed_loop_corpora_keep_their_shape_counts_across_seeds() {
        for w in [Workload::ServeHot, Workload::PlanCold, Workload::StreamBig] {
            assert_eq!(shape_counts(w, 1), shape_counts(w, 99), "{}", w.name());
        }
        assert_eq!(shape_counts(Workload::ServeHot, 1), vec![64; 8]);
        assert_eq!(shape_counts(Workload::PlanCold, 1), vec![1; 1500]);
        assert_eq!(shape_counts(Workload::StreamBig, 1), vec![64]);
    }

    /// Smallest number of *other* shapes between two uses of one shape, when
    /// the corpus is cycled: an LRU cache at least that large would hit.
    fn min_reuse_distance(keys: &[u128], pool: &HashSet<u128>) -> usize {
        let mut last: HashMap<u128, usize> = HashMap::new();
        let mut min = usize::MAX;
        for (i, k) in keys.iter().chain(keys.iter()).enumerate() {
            if !pool.contains(k) {
                continue;
            }
            if let Some(prev) = last.insert(*k, i) {
                let between: HashSet<&u128> =
                    keys.iter().cycle().skip(prev + 1).take(i - prev - 1).collect();
                min = min.min(between.len());
            }
        }
        min
    }

    #[test]
    fn cache_fit_holds_on_every_seed() {
        for seed in [1, 2, 77] {
            let hot: HashSet<u128> = shape_keys(Workload::ServeHot, seed).into_iter().collect();
            assert!(hot.len() <= PLAN_CACHE_CAPACITY, "serve_hot fits the cache");

            let cold = shape_keys(Workload::PlanCold, seed);
            let pool: HashSet<u128> = cold.iter().copied().collect();
            assert!(
                min_reuse_distance(&cold, &pool) > 2 * PLAN_CACHE_CAPACITY,
                "plan_cold: a shape is evicted long before it is asked again"
            );

            // mixed_open: the hot set fits with room to spare, hot plus cold
            // does not, and a cold shape never survives until its next use.
            let specs = Workload::MixedOpen.specs(seed);
            let keys = shape_keys(Workload::MixedOpen, seed);
            let (mut hot, mut cold) = (HashSet::new(), HashSet::new());
            for (spec, key) in specs.iter().filter(|s| matches!(s, Spec::Query { .. })).zip(&keys) {
                let Spec::Query { domain, .. } = spec else { unreachable!() };
                if *domain < MIXED_HOT_DOMAINS {
                    hot.insert(*key)
                } else {
                    cold.insert(*key)
                };
            }
            assert!(hot.len() <= MIXED_HOT_SHAPES && hot.len() < PLAN_CACHE_CAPACITY / 2);
            assert!(hot.len() + cold.len() > PLAN_CACHE_CAPACITY);
            assert!(min_reuse_distance(&keys, &cold) > PLAN_CACHE_CAPACITY);
        }
    }

    #[test]
    fn mixed_open_keeps_its_mix_on_every_seed() {
        for seed in [1, 5] {
            let specs = Workload::MixedOpen.specs(seed);
            let count = |f: &dyn Fn(&Spec) -> bool| specs.iter().filter(|s| f(s)).count();
            assert_eq!(specs.len(), 1780);
            assert_eq!(count(&|s| matches!(s, Spec::Page(_))), 89);
            assert_eq!(count(&|s| matches!(s, Spec::Query { limit: Some(_), .. })), 89);
            assert_eq!(
                count(&|s| matches!(s, Spec::Query { domain, .. } if *domain >= MIXED_HOT_DOMAINS)),
                MIXED_COLD_SHAPES
            );
        }
    }

    #[test]
    fn every_stream_big_answer_is_about_ten_thousand_rows() {
        let w = Workload::StreamBig;
        let members = w.members();
        let specs = w.specs(1);
        for r in w.requests(&specs[..10], &members) {
            let Expect::Rows(d) = r.expect else { panic!("full answers") };
            assert!((9_000..=11_000).contains(&d.count), "{}: {} rows", r.path, d.count);
        }
    }

    #[test]
    fn limit_queries_really_cut_answers_short() {
        let w = Workload::MixedOpen;
        let members = w.members();
        let specs: Vec<Spec> = w
            .specs(1)
            .into_iter()
            .filter(|s| matches!(s, Spec::Query { limit: Some(_), .. }))
            .collect();
        let cut = w
            .requests(&specs, &members)
            .iter()
            .filter(|r| matches!(&r.expect, Expect::Limit { n, rows } if rows.len() as u64 > *n))
            .count();
        assert!(
            cut * 10 >= specs.len() * 9,
            "{cut} of {} limit queries are cut short",
            specs.len()
        );
    }

    #[test]
    fn urlencoding_escapes_everything_but_unreserved() {
        assert_eq!(urlencode("a = \"x\" ^ b<1"), "a%20%3D%20%22x%22%20%5E%20b%3C1");
    }
}
