//! The E1–E10 experiment suite (DESIGN.md §2).
//!
//! The ICDE'99 paper defers its result tables to the extended version,
//! which is no longer retrievable; each experiment here regenerates one of
//! the paper's *stated claims* as a table or series. EXPERIMENTS.md records
//! claim-vs-measured for every entry.

use crate::table::{fnum, Table};
use crate::workload::{
    random_query, random_source, scaling_query, scaling_source, CapabilityParams,
};
use csqp_core::mediator::{Mediator, Scheme};
use csqp_core::types::TargetQuery;
use csqp_core::{GenCompactConfig, GenModularConfig, IpgConfig};
use csqp_expr::rewrite::RewriteBudget;
use csqp_expr::CondTree;
use csqp_relation::datagen::{books, car_listings, BookGenConfig, CarGenConfig};
use csqp_source::{CostParams, Source};
use csqp_ssdl::linearize::linearize;
use csqp_ssdl::templates;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Scale knob for the whole suite: `Full` reproduces the paper-size
/// numbers; `Quick` shrinks data and sweeps for CI-speed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Paper-scale data (50k books, 20k listings, full sweeps).
    Full,
    /// Reduced scale for tests and quick looks.
    Quick,
}

impl RunScale {
    fn books(self) -> usize {
        match self {
            RunScale::Full => 50_000,
            RunScale::Quick => 5_000,
        }
    }
    fn listings(self) -> usize {
        match self {
            RunScale::Full => 20_000,
            RunScale::Quick => 3_000,
        }
    }
    fn max_scaling_atoms(self) -> usize {
        match self {
            RunScale::Full => 8,
            RunScale::Quick => 6,
        }
    }
    fn e6_pairs(self) -> u64 {
        match self {
            RunScale::Full => 60,
            RunScale::Quick => 15,
        }
    }
    fn e7_corpus(self) -> u64 {
        match self {
            RunScale::Full => 40,
            RunScale::Quick => 10,
        }
    }
}

/// One scheme's outcome on one query, for comparison tables.
struct SchemeRow {
    scheme: Scheme,
    outcome: Option<(u64, u64, usize, f64)>, // queries, tuples, rows, cost
}

fn run_schemes(source: &Arc<Source>, q: &TargetQuery, schemes: &[Scheme]) -> Vec<SchemeRow> {
    schemes
        .iter()
        .map(|&scheme| {
            let mediator = Mediator::new(source.clone()).with_scheme(scheme);
            let outcome = mediator.run(q).ok().map(|out| {
                (out.meter.queries, out.meter.tuples_shipped, out.rows.len(), out.measured_cost)
            });
            SchemeRow { scheme, outcome }
        })
        .collect()
}

fn scheme_table(title: &str, rows: &[SchemeRow]) -> Table {
    let mut t = Table::new(
        title,
        &["scheme", "feasible", "src queries", "tuples shipped", "answer rows", "measured cost"],
    );
    for r in rows {
        match r.outcome {
            Some((q, tup, n, cost)) => t.row(vec![
                r.scheme.name().to_string(),
                "yes".into(),
                q.to_string(),
                tup.to_string(),
                n.to_string(),
                fnum(cost),
            ]),
            None => t.row(vec![
                r.scheme.name().to_string(),
                "NO".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    t
}

fn get(rows: &[SchemeRow], s: Scheme) -> Option<(u64, u64, usize, f64)> {
    rows.iter().find(|r| r.scheme == s).and_then(|r| r.outcome)
}

/// E1 (Table 1) — Example 1.1, the bookstore.
pub fn e1_bookstore(scale: RunScale) -> Table {
    let source = Arc::new(Source::new(
        books(7, &BookGenConfig { n_books: scale.books(), ..Default::default() }),
        templates::bookstore(),
        CostParams::default(),
    ));
    let q = TargetQuery::parse(
        r#"(author = "Sigmund Freud" _ author = "Carl Jung") ^ title contains "dreams""#,
        &["isbn", "author", "title"],
    )
    .expect("valid query");
    let rows = run_schemes(&source, &q, &Scheme::ALL);
    let mut t = scheme_table(
        &format!("E1 (Table 1): Example 1.1 bookstore, {} books", scale.books()),
        &rows,
    );
    let gc = get(&rows, Scheme::GenCompact).expect("GenCompact feasible");
    let cnf = get(&rows, Scheme::Cnf).expect("CNF feasible");
    t.note(format!(
        "paper: two-query plan extracts fewer than 20 entries -> measured {} {}",
        gc.1,
        ok(gc.1 < 20 || scale == RunScale::Quick)
    ));
    t.note(format!(
        "paper: Garlic/CNF plan extracts over 2,000 entries -> measured {} {}",
        cnf.1,
        ok(cnf.1 > 2_000 || scale == RunScale::Quick)
    ));
    t.note(format!(
        "paper: DISCO fails on this query -> {}",
        ok(get(&rows, Scheme::Disco).is_none())
    ));
    t
}

/// E2 (Table 2) — Example 1.2, the car shopping guide.
pub fn e2_carguide(scale: RunScale) -> Table {
    let source = Arc::new(Source::new(
        car_listings(11, &CarGenConfig { n_listings: scale.listings() }),
        templates::car_guide(),
        CostParams::default(),
    ));
    let q = TargetQuery::parse(
        r#"style = "sedan" ^ (size = "compact" _ size = "midsize") ^
           ((make = "Toyota" ^ price <= 20000) _ (make = "BMW" ^ price <= 40000))"#,
        &["listing_id", "make", "model", "price", "size"],
    )
    .expect("valid query");
    let rows = run_schemes(&source, &q, &Scheme::ALL);
    let mut t = scheme_table(
        &format!("E2 (Table 2): Example 1.2 car guide, {} listings", scale.listings()),
        &rows,
    );
    let gc = get(&rows, Scheme::GenCompact).expect("GenCompact feasible");
    let dnf = get(&rows, Scheme::Dnf).expect("DNF feasible");
    let cnf = get(&rows, Scheme::Cnf).expect("CNF feasible");
    t.note(format!("paper: GenCompact uses two source queries -> {} {}", gc.0, ok(gc.0 == 2)));
    t.note(format!("paper: DNF uses four source queries -> {} {}", dnf.0, ok(dnf.0 == 4)));
    t.note(format!(
        "paper: same data transferred by both -> {} vs {} {}",
        gc.1,
        dnf.1,
        ok(gc.1 == dnf.1)
    ));
    t.note(format!(
        "paper: CNF transfers many more entries -> {} vs {} {}",
        cnf.1,
        gc.1,
        ok(cnf.1 > 2 * gc.1)
    ));
    t.note(format!(
        "paper: DISCO fails on this query -> {}",
        ok(get(&rows, Scheme::Disco).is_none())
    ));
    t
}

fn ok(b: bool) -> &'static str {
    if b {
        "[OK]"
    } else {
        "[MISMATCH]"
    }
}

/// Per-query GenModular budget for the scaling experiments: atom headroom
/// of +2 keeps the copy closure finite (DESIGN.md §5 budgets).
fn modular_budget(cond: &CondTree, max_cts: usize) -> GenModularConfig {
    GenModularConfig {
        rewrite_budget: RewriteBudget { max_cts, max_atoms: cond.n_atoms() + 2, max_depth: 6 },
        ..Default::default()
    }
}

/// E3 (Fig. A) — plan-generation time vs query size.
pub fn e3_gen_time(scale: RunScale) -> Table {
    let mut t = Table::new(
        "E3 (Fig. A): plan-generation time vs atoms (ms; GenModular truncation flagged *)",
        &["atoms", "GenModular ms", "GenModular CTs", "GenCompact ms", "GenCompact CTs", "speedup"],
    );
    let source = scaling_source(5, 500);
    let seeds = [101u64, 202];
    for n in 2..=scale.max_scaling_atoms() {
        let mut mod_ms = 0.0;
        let mut gc_ms = 0.0;
        let mut mod_cts = 0usize;
        let mut gc_cts = 0usize;
        let mut truncated = false;
        for &seed in &seeds {
            let cond = scaling_query(seed, n);
            let q = TargetQuery::new(cond.clone(), csqp_plan::attrs(["k"]));
            let cfg = modular_budget(&cond, 20_000);
            let m = Mediator::new(source.clone())
                .with_scheme(Scheme::GenModular)
                .with_modular_config(cfg);
            let t0 = Instant::now();
            let rm = m.plan(&q);
            mod_ms += t0.elapsed().as_secs_f64() * 1e3;
            if let Ok(p) = &rm {
                mod_cts += p.report.cts_processed;
                truncated |= p.report.truncated;
            }
            let g = Mediator::new(source.clone());
            let t0 = Instant::now();
            let rg = g.plan(&q);
            gc_ms += t0.elapsed().as_secs_f64() * 1e3;
            if let Ok(p) = &rg {
                gc_cts += p.report.cts_processed;
            }
        }
        let k = seeds.len() as f64;
        t.row(vec![
            n.to_string(),
            format!("{}{}", fnum(mod_ms / k), if truncated { "*" } else { "" }),
            (mod_cts / seeds.len()).to_string(),
            fnum(gc_ms / k),
            (gc_cts / seeds.len()).to_string(),
            format!("{:.0}x", mod_ms / gc_ms.max(1e-9)),
        ]);
    }
    t.note("claim (§6): GenCompact generates the same plans much more efficiently");
    t.note("* = GenModular hit its 20,000-CT budget (the space keeps growing)");
    t
}

/// E4 (Fig. B) — search-space size vs query size.
pub fn e4_search_space(scale: RunScale) -> Table {
    let mut t = Table::new(
        "E4 (Fig. B): search-space size vs atoms",
        &[
            "atoms",
            "Modular CTs",
            "Modular plans",
            "Modular EPG calls",
            "Compact CTs",
            "Compact sub-plans",
            "Compact IPG calls",
        ],
    );
    let source = scaling_source(5, 500);
    for n in 2..=scale.max_scaling_atoms() {
        let cond = scaling_query(101, n);
        let q = TargetQuery::new(cond.clone(), csqp_plan::attrs(["k"]));
        let rm = Mediator::new(source.clone())
            .with_scheme(Scheme::GenModular)
            .with_modular_config(modular_budget(&cond, 20_000))
            .plan(&q);
        let rg = Mediator::new(source.clone()).plan(&q);
        let (mc, mp, me) = rm
            .map(|p| (p.report.cts_processed, p.report.plans_considered, p.report.generator_calls))
            .unwrap_or((0, 0, 0));
        let (gc, gp, gi) = rg
            .map(|p| (p.report.cts_processed, p.report.plans_considered, p.report.generator_calls))
            .unwrap_or((0, 0, 0));
        t.row(vec![
            n.to_string(),
            mc.to_string(),
            mp.to_string(),
            me.to_string(),
            gc.to_string(),
            gp.to_string(),
            gi.to_string(),
        ]);
    }
    t.note("claim (§6): GenCompact reduces significantly the number of CTs processed");
    t
}

/// E5 (Table 3) — pruning-rule ablation.
pub fn e5_pruning(scale: RunScale) -> Table {
    let mut t = Table::new(
        "E5 (Table 3): pruning-rule ablation (GenCompact)",
        &["config", "time ms", "max Q", "sub-plans", "MCSC nodes", "IPG calls", "best cost"],
    );
    let source = scaling_source(5, 500);
    let n = scale.max_scaling_atoms().min(7);
    let cond = scaling_query(303, n);
    let q = TargetQuery::new(cond, csqp_plan::attrs(["k"]));
    let configs: [(&str, IpgConfig); 5] = [
        ("PR1+PR2+PR3", IpgConfig::default()),
        ("no PR1", IpgConfig { pr1: false, ..IpgConfig::default() }),
        ("no PR2", IpgConfig { pr2: false, ..IpgConfig::default() }),
        ("no PR3", IpgConfig { pr3: false, ..IpgConfig::default() }),
        ("none", IpgConfig { pr1: false, pr2: false, pr3: false, ..IpgConfig::default() }),
    ];
    let mut costs: Vec<f64> = Vec::new();
    for (name, ipg) in configs {
        let cfg = GenCompactConfig { ipg, ..Default::default() };
        let m = Mediator::new(source.clone()).with_compact_config(cfg);
        let t0 = Instant::now();
        match m.plan(&q) {
            Ok(p) => {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                costs.push(p.est_cost);
                t.row(vec![
                    name.to_string(),
                    fnum(ms),
                    p.report.max_q.to_string(),
                    p.report.plans_considered.to_string(),
                    "-".to_string(),
                    p.report.generator_calls.to_string(),
                    fnum(p.est_cost),
                ]);
            }
            Err(e) => t.row(vec![
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("{e}"),
            ]),
        }
    }
    let all_equal = !costs.is_empty() && costs.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-6);
    t.note(format!(
        "claim (§6.3): pruning never loses the optimal plan -> all costs equal {}",
        ok(all_equal)
    ));
    t.note("claim (§6.3): the rules keep Q very small -> compare `max Q` across rows");
    t
}

/// E6 (Fig. C) — plan quality across a randomized workload.
pub fn e6_quality(scale: RunScale, seed: u64) -> Table {
    let mut t = Table::new(
        "E6 (Fig. C): plan quality over random (capability, query) pairs",
        &["scheme", "feasible", "of pairs", "mean cost ratio", "max cost ratio"],
    );
    // Richer capabilities than the default so a good fraction of pairs is
    // plannable and the schemes actually differentiate: many small forms
    // (singletons are what recursive splitting needs), frequent value
    // lists, occasional downloads.
    let params = CapabilityParams {
        n_forms: 10,
        max_form_atoms: 2,
        list_prob: 0.5,
        download_prob: 0.25,
        ..Default::default()
    };
    let n_pairs = scale.e6_pairs();
    // Collect per-scheme measured costs on each pair.
    let schemes = Scheme::ALL;
    let mut feasible = vec![0u64; schemes.len()];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut usable_pairs = 0u64;
    // Pairs are independent (sources and queries are seeded per index):
    // evaluate them concurrently, fold in index order so the floating-point
    // aggregates match the sequential run bit-for-bit.
    let pairs: Vec<u64> = (0..n_pairs).collect();
    let pair_rows = crate::par::par_map(&pairs, |&i| {
        let source = random_source(seed + i, 1_500, &params);
        // Alternate conjunctive- and disjunctive-leaning query shapes.
        let and_bias = if i % 2 == 0 { 0.7 } else { 0.35 };
        let cond = crate::workload::random_query_shaped(seed + 7_000 + i, 4, 3, and_bias);
        let q = TargetQuery::new(cond, csqp_plan::attrs(["k"]));
        run_schemes(&source, &q, &schemes)
    });
    for rows in pair_rows {
        let Some(gc) = get(&rows, Scheme::GenCompact) else {
            continue; // nothing feasible at all on this pair
        };
        usable_pairs += 1;
        let gc_cost = gc.3.max(1e-9);
        for (j, s) in schemes.iter().enumerate() {
            if let Some(out) = get(&rows, *s) {
                feasible[j] += 1;
                ratios[j].push(out.3 / gc_cost);
            }
        }
    }
    for (j, s) in schemes.iter().enumerate() {
        let rs = &ratios[j];
        let mean = if rs.is_empty() { f64::NAN } else { rs.iter().sum::<f64>() / rs.len() as f64 };
        let max = rs.iter().copied().fold(f64::NAN, f64::max);
        t.row(vec![
            s.name().to_string(),
            feasible[j].to_string(),
            usable_pairs.to_string(),
            fnum(mean),
            fnum(max),
        ]);
    }
    t.note("cost ratio = scheme's measured cost / GenCompact's, on pairs the scheme can plan");
    t.note("claims (§1/§2): baselines are infeasible or inefficient where GenCompact is not");
    t.note("ratios slightly below 1 are estimator tie-breaks: planners minimize ESTIMATED");
    t.note("cost; E7 verifies estimated-cost optimality exactly");
    t
}

/// E7 (Table 4) — optimality: GenCompact vs exhaustive GenModular.
pub fn e7_optimality(scale: RunScale, seed: u64) -> Table {
    let mut t = Table::new(
        "E7 (Table 4): GenCompact vs exhaustive GenModular (small-query corpus)",
        &["corpus", "both feasible", "equal cost", "compact cheaper", "modular cheaper"],
    );
    let source = scaling_source(5, 400);
    let n_queries = scale.e7_corpus();
    // The corpus entries are independent (query generation is seeded per
    // index): plan them concurrently, then fold the results in corpus order
    // so the counters and the worst-case pick match the sequential run.
    let corpus: Vec<u64> = (0..n_queries).collect();
    let outcomes = crate::par::par_map(&corpus, |&i| {
        let n_atoms = 2 + (i % 3) as usize; // 2..=4
        let cond = random_query(seed + i, n_atoms, 3);
        let q = TargetQuery::new(cond.clone(), csqp_plan::attrs(["k"]));
        let rg = Mediator::new(source.clone()).plan(&q);
        let rm = Mediator::new(source.clone())
            .with_scheme(Scheme::GenModular)
            .with_modular_config(modular_budget(&cond, 100_000))
            .plan(&q);
        match (rg, rm) {
            (Ok(g), Ok(m)) => Some((cond.to_string(), g.est_cost, m.est_cost)),
            _ => None,
        }
    });
    let mut both = 0u64;
    let mut equal = 0u64;
    let mut compact_cheaper = 0u64;
    let mut modular_cheaper = 0u64;
    let mut worst: Option<(String, f64, f64)> = None;
    for (cond, g_cost, m_cost) in outcomes.into_iter().flatten() {
        both += 1;
        let d = g_cost - m_cost;
        if d.abs() < 1e-6 {
            equal += 1;
        } else if d < 0.0 {
            compact_cheaper += 1;
        } else {
            modular_cheaper += 1;
            if worst.as_ref().is_none_or(|(_, wg, wm)| d > wg - wm) {
                worst = Some((cond, g_cost, m_cost));
            }
        }
    }
    t.row(vec![
        n_queries.to_string(),
        both.to_string(),
        equal.to_string(),
        compact_cheaper.to_string(),
        modular_cheaper.to_string(),
    ]);
    t.note(format!(
        "claim (§6.4): GenCompact never worse than GenModular -> {}",
        ok(modular_cheaper == 0)
    ));
    if let Some((cond, g, m)) = worst {
        t.note(format!("worst case: {cond} (compact {g} vs modular {m})"));
    }
    t.note("`compact cheaper` happens when GenModular's (budgeted) closure misses a rewriting");
    t
}

/// E8 (Fig. D) — Check() parse time is linear in condition size, and
/// unaffected by the permutation-closure rule blow-up.
pub fn e8_parse_linear(scale: RunScale) -> Table {
    let mut t = Table::new(
        "E8 (Fig. D): Check() scaling on size-list conditions (car guide grammar)",
        &["list len", "tokens", "gate µs", "gate items/tok", "closed µs", "closed items/tok"],
    );
    let source = Arc::new(Source::new(
        car_listings(11, &CarGenConfig { n_listings: 100 }),
        templates::car_guide(),
        CostParams::default(),
    ));
    let lens: &[usize] = match scale {
        RunScale::Full => &[4, 8, 16, 32, 64, 128],
        RunScale::Quick => &[4, 8, 16, 32],
    };
    for &len in lens {
        let parts: Vec<CondTree> = (0..len)
            .map(|i| CondTree::leaf(csqp_expr::Atom::eq("size", format!("v{i}"))))
            .collect();
        let cond = CondTree::or(parts);
        let tokens = linearize(Some(&cond)).len();
        let reps = 50;
        let mut cells = vec![len.to_string(), tokens.to_string()];
        for view in [source.gate_view(), source.planning_view()] {
            let t0 = Instant::now();
            let mut stats_items = 0usize;
            for _ in 0..reps {
                let (_, stats) = view.check_with_stats(Some(&cond));
                stats_items = stats.items;
            }
            let us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
            cells.push(fnum(us));
            cells.push(fnum(stats_items as f64 / tokens as f64));
        }
        t.row(cells);
    }
    t.note("claim (§6.1): the parser runs in time linear in the condition size,");
    t.note("irrespective of the number of CFG rules (closed grammar has more rules)");
    t.note("flat items/token across rows = linear parsing (Leo optimization active)");
    t
}

/// E9 (Table 5) — exact vs greedy MCSC.
pub fn e9_mcsc(scale: RunScale, seed: u64) -> Table {
    use csqp_core::mcsc::{cover_cost, solve_exact, solve_greedy, CoverItem};
    let mut t = Table::new(
        "E9 (Table 5): exact O(2^Q) vs greedy MCSC",
        &["Q", "exact µs", "greedy µs", "mean cost ratio", "max cost ratio", "greedy optimal"],
    );
    let qs: &[usize] = match scale {
        RunScale::Full => &[5, 10, 15, 20],
        RunScale::Quick => &[5, 10],
    };
    let mut rng = StdRng::seed_from_u64(seed);
    for &qn in qs {
        let universe_bits = 8u32.min(qn as u32);
        let universe = (1u64 << universe_bits) - 1;
        let trials = 25;
        let mut exact_us = 0.0;
        let mut greedy_us = 0.0;
        let mut ratios: Vec<f64> = Vec::new();
        let mut optimal = 0usize;
        let mut solved = 0usize;
        for _ in 0..trials {
            let items: Vec<CoverItem> = (0..qn)
                .map(|_| CoverItem {
                    set: rng.random_range(1..=universe),
                    cost: rng.random_range(1..100) as f64,
                })
                .collect();
            let t0 = Instant::now();
            let (ex, _) = solve_exact(&items, universe);
            exact_us += t0.elapsed().as_secs_f64() * 1e6;
            let t0 = Instant::now();
            let (gr, _) = solve_greedy(&items, universe);
            greedy_us += t0.elapsed().as_secs_f64() * 1e6;
            if let (Some(ex), Some(gr)) = (ex, gr) {
                solved += 1;
                let ce = cover_cost(&items, &ex);
                let cg = cover_cost(&items, &gr);
                ratios.push(cg / ce);
                if (cg - ce).abs() < 1e-9 {
                    optimal += 1;
                }
            }
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let max = ratios.iter().copied().fold(1.0f64, f64::max);
        t.row(vec![
            qn.to_string(),
            fnum(exact_us / trials as f64),
            fnum(greedy_us / trials as f64),
            fnum(mean),
            fnum(max),
            format!("{optimal}/{solved}"),
        ]);
    }
    t.note("exact is affordable at the small Q the pruning rules maintain (§6.4.2)");
    t.note("greedy (Hochbaum-style) trades bounded sub-optimality for near-linear time");
    t
}

/// E10 (Fig. E) — estimated vs measured cost (§6.2 model adequacy).
pub fn e10_cost_model(scale: RunScale, seed: u64) -> Table {
    let mut t = Table::new(
        "E10 (Fig. E): estimated (statistics) vs measured cost",
        &["pair", "atoms", "est cost", "measured cost", "rel err %"],
    );
    let params = CapabilityParams {
        n_forms: 10,
        max_form_atoms: 2,
        list_prob: 0.5,
        download_prob: 0.25,
        ..Default::default()
    };
    let n_pairs = scale.e6_pairs().min(25);
    let mut errs: Vec<f64> = Vec::new();
    for i in 0..n_pairs {
        let source = random_source(seed + 500 + i, 1_500, &params);
        let cond = random_query(seed + 9_000 + i, 3, 3);
        let n_atoms = cond.n_atoms();
        let q = TargetQuery::new(cond, csqp_plan::attrs(["k"]));
        let m = Mediator::new(source.clone());
        if let Ok(out) = m.run(&q) {
            let rel = if out.measured_cost > 0.0 {
                (out.planned.est_cost - out.measured_cost).abs() / out.measured_cost * 100.0
            } else {
                0.0
            };
            errs.push(rel);
            t.row(vec![
                i.to_string(),
                n_atoms.to_string(),
                fnum(out.planned.est_cost),
                fnum(out.measured_cost),
                fnum(rel),
            ]);
        }
    }
    let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    t.note(format!(
        "mean relative error {:.1}% over {} plannable pairs (independence-assumption noise)",
        mean,
        errs.len()
    ));
    t.note("with CardKind::Oracle the error is 0 by construction (integration-tested)");
    t
}

/// E11 (Table 6, extension) — ablating the §6.1 permutation closure.
///
/// GenCompact drops the commutativity rewrite rule because the source
/// description is closed over segment permutations once, at registration.
/// Planning against the *original* (unclosed) grammar with the rule still
/// dropped shows what the closure buys: order-scrambled queries become
/// infeasible.
pub fn e11_closure_ablation(scale: RunScale, seed: u64) -> Table {
    let mut t = Table::new(
        "E11 (Table 6): permutation-closure ablation (GenCompact, order-scrambled workload)",
        &["variant", "grammar rules", "feasible", "of queries", "mean plan ms"],
    );
    let source = Arc::new(Source::new(
        csqp_relation::datagen::cars(3, 500),
        templates::car_dealer(),
        CostParams::default(),
    ));
    let n_queries = scale.e6_pairs().min(30);
    let mut rng = StdRng::seed_from_u64(seed);
    // Order-scrambled instances of the two supported car_dealer forms.
    let makes = ["BMW", "Toyota", "Honda", "Ford"];
    let colors = ["red", "black", "blue", "white"];
    let queries: Vec<TargetQuery> = (0..n_queries)
        .map(|_| {
            let make = makes[rng.random_range(0..makes.len())];
            let cond = if rng.random_bool(0.5) {
                format!("price < {} ^ make = \"{make}\"", rng.random_range(15_000..60_000))
            } else {
                format!(
                    "color = \"{}\" ^ make = \"{make}\"",
                    colors[rng.random_range(0..colors.len())]
                )
            };
            TargetQuery::parse(&cond, &["model", "year"]).expect("valid query")
        })
        .collect();
    for (variant, use_gate_view) in [("with closure (§6.1)", false), ("no closure", true)] {
        let cfg = GenCompactConfig { use_gate_view, ..Default::default() };
        let view = if use_gate_view { source.gate_view() } else { source.planning_view() };
        let mut feasible = 0u64;
        let t0 = Instant::now();
        for q in &queries {
            let m = Mediator::new(source.clone()).with_compact_config(cfg);
            if m.plan(q).is_ok() {
                feasible += 1;
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
        t.row(vec![
            variant.to_string(),
            view.grammar().n_rules().to_string(),
            feasible.to_string(),
            queries.len().to_string(),
            fnum(ms),
        ]);
    }
    t.note("every query is answerable by the source modulo atom order;");
    t.note("without the closure (commutativity rule also dropped), scrambled orders fail");
    t.note("the closure grows the grammar, but E8 shows parse time stays linear");
    t
}

/// E12 (Table 7, extension) — capability-sensitive joins: hash vs bind.
pub fn e12_join(scale: RunScale) -> Table {
    use csqp_core::join::{JoinConfig, JoinMediator, JoinQuery, JoinStrategy};
    use csqp_relation::datagen::{books as gen_books, reviews as gen_reviews};
    let mut t = Table::new(
        "E12 (Table 7): join strategies over bookstore × review site",
        &["strategy", "left tuples", "right tuples", "joined rows", "measured cost"],
    );
    let n_books = scale.books() / 2;
    let book_rel = gen_books(7, &BookGenConfig { n_books, ..Default::default() });
    let isbn_idx = book_rel.schema().col_index("isbn").expect("isbn exists");
    let isbns: Vec<csqp_expr::Value> =
        book_rel.tuples().iter().map(|b| b.get(isbn_idx).expect("arity").clone()).collect();
    let review_rel = gen_reviews(11, &isbns, 3);
    let bookstore = Arc::new(Source::new(book_rel, templates::bookstore(), CostParams::default()));
    let review_site =
        Arc::new(Source::new(review_rel, templates::reviews(), CostParams::default()));
    let q = JoinQuery {
        left: TargetQuery::parse(
            r#"author = "Sigmund Freud" ^ title contains "dreams""#,
            &["isbn", "title"],
        )
        .expect("valid query"),
        right: TargetQuery::parse(r#"rating >= 4"#, &["review_id", "isbn", "rating", "reviewer"])
            .expect("valid query"),
        left_key: "isbn".into(),
        right_key: "isbn".into(),
    };
    let mut costs: Vec<(String, f64)> = Vec::new();
    for (label, force) in [
        ("auto (cost-based)", None),
        ("hash join", Some(JoinStrategy::Hash)),
        ("bind join (L→R)", Some(JoinStrategy::BindLeftIntoRight)),
    ] {
        bookstore.reset_meter();
        review_site.reset_meter();
        let jm = JoinMediator::new(bookstore.clone(), review_site.clone())
            .with_config(JoinConfig { force, ..Default::default() });
        match jm.run(&q) {
            Ok(out) => {
                t.row(vec![
                    format!("{label} = {}", out.strategy),
                    out.left_meter.tuples_shipped.to_string(),
                    out.right_meter.tuples_shipped.to_string(),
                    out.rows.len().to_string(),
                    fnum(out.measured_cost),
                ]);
                costs.push((label.to_string(), out.measured_cost));
            }
            Err(e) => {
                t.row(vec![label.to_string(), "-".into(), "-".into(), "-".into(), format!("{e}")])
            }
        }
    }
    let auto = costs.iter().find(|(l, _)| l.starts_with("auto")).map(|(_, c)| *c);
    let hash = costs.iter().find(|(l, _)| l.starts_with("hash")).map(|(_, c)| *c);
    if let (Some(a), Some(h)) = (auto, hash) {
        t.note(format!(
            "cost-based choice picks the bind join -> {:.0}x cheaper than hash {}",
            h / a.max(1e-9),
            ok(a <= h)
        ));
    }
    t.note("the bind join pushes the book isbns into the review site's isbn-list form;");
    t.note("only a capability-aware planner knows that form exists (SSDL probe)");
    t
}

/// E13 (Table 8, extension) — cost-model sensitivity (§7 flexibility):
/// does planning under a width-aware model change the chosen plans?
pub fn e13_cost_models(scale: RunScale, seed: u64) -> Table {
    use csqp_plan::model::LatencyBandwidthCost;
    let mut t = Table::new(
        "E13 (Table 8): affine (§6.2) vs width-aware cost model",
        &["pairs planned", "same plan", "different plan", "mean width affine", "mean width LBC"],
    );
    let params = CapabilityParams {
        n_forms: 10,
        max_form_atoms: 2,
        list_prob: 0.5,
        download_prob: 0.25,
        ..Default::default()
    };
    // A model that punishes wide fetches hard.
    let lbc = Arc::new(LatencyBandwidthCost {
        latency: 50.0,
        bytes_per_attr: 64.0,
        tuple_overhead: 0.0,
        bandwidth: 32.0,
    });
    let n_pairs = scale.e6_pairs();
    let mut planned = 0u64;
    let mut same = 0u64;
    let mut different = 0u64;
    let mut width_affine = 0.0f64;
    let mut width_lbc = 0.0f64;
    for i in 0..n_pairs {
        let source = random_source(seed + i, 1_500, &params);
        let and_bias = if i.is_multiple_of(2) { 0.7 } else { 0.35 };
        let cond = crate::workload::random_query_shaped(seed + 7_000 + i, 4, 3, and_bias);
        let q = TargetQuery::new(cond, csqp_plan::attrs(["k"]));
        let affine = Mediator::new(source.clone()).plan(&q);
        let width_aware = Mediator::new(source.clone()).with_cost_model(lbc.clone()).plan(&q);
        if let (Ok(a), Ok(w)) = (affine, width_aware) {
            planned += 1;
            let fetch_width = |p: &csqp_core::types::PlannedQuery| -> f64 {
                let sqs = p.plan.source_queries();
                sqs.iter().map(|(_, attrs)| attrs.len() as f64).sum::<f64>()
                    / sqs.len().max(1) as f64
            };
            width_affine += fetch_width(&a);
            width_lbc += fetch_width(&w);
            if a.plan == w.plan {
                same += 1;
            } else {
                different += 1;
            }
        }
    }
    let n = planned.max(1) as f64;
    t.row(vec![
        planned.to_string(),
        same.to_string(),
        different.to_string(),
        fnum(width_affine / n),
        fnum(width_lbc / n),
    ]);
    t.note(format!(
        "width-aware planning never fetches wider on average -> {}",
        ok(width_lbc <= width_affine + 1e-9)
    ));
    t.note("claim (§7): GenCompact adapts to different cost models without changes;");
    t.note("both models go through the same IPG, only source_query_cost differs");
    t
}

/// Runs the full suite.
pub fn run_all(scale: RunScale, seed: u64) -> Vec<Table> {
    vec![
        e1_bookstore(scale),
        e2_carguide(scale),
        e3_gen_time(scale),
        e4_search_space(scale),
        e5_pruning(scale),
        e6_quality(scale, seed),
        e7_optimality(scale, seed),
        e8_parse_linear(scale),
        e9_mcsc(scale, seed),
        e10_cost_model(scale, seed),
        e11_closure_ablation(scale, seed),
        e12_join(scale),
        e13_cost_models(scale, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each experiment runs at Quick scale and produces a well-formed table.
    // Claim checks are embedded as [OK]/[MISMATCH] notes; the paper-scale
    // claims (E1/E2 absolute numbers) are asserted at Full scale by the
    // harness binary and the examples.

    #[test]
    fn e1_quick() {
        let t = e1_bookstore(RunScale::Quick);
        assert_eq!(t.rows.len(), Scheme::ALL.len());
        assert!(t.to_string().contains("DISCO fails on this query -> [OK]"));
    }

    #[test]
    fn e2_quick() {
        let t = e2_carguide(RunScale::Quick);
        assert!(!t.to_string().contains("[MISMATCH]"), "{t}");
    }

    #[test]
    fn e3_e4_quick() {
        let t3 = e3_gen_time(RunScale::Quick);
        assert!(t3.rows.len() >= 4);
        let t4 = e4_search_space(RunScale::Quick);
        assert_eq!(t4.rows.len(), t3.rows.len());
    }

    #[test]
    fn e5_quick_costs_agree() {
        let t = e5_pruning(RunScale::Quick);
        assert!(
            t.to_string().contains("all costs equal [OK]"),
            "pruning must not lose the optimum:\n{t}"
        );
    }

    #[test]
    fn e6_quick() {
        let t = e6_quality(RunScale::Quick, 42);
        assert_eq!(t.rows.len(), Scheme::ALL.len());
    }

    #[test]
    fn e7_quick_no_modular_wins() {
        let t = e7_optimality(RunScale::Quick, 42);
        assert!(
            t.to_string().contains("never worse than GenModular -> [OK]"),
            "optimality violated:\n{t}"
        );
    }

    #[test]
    fn e8_quick_linearity() {
        let t = e8_parse_linear(RunScale::Quick);
        // items/token flat within 2x across the sweep, for both views.
        for col in [3usize, 5] {
            let first: f64 = t.rows[0][col].parse().unwrap();
            let last: f64 = t.rows.last().unwrap()[col].parse().unwrap();
            assert!(last < first * 2.0, "col {col}: {first} -> {last}\n{t}");
        }
    }

    #[test]
    fn e9_quick_greedy_never_beats_exact() {
        let t = e9_mcsc(RunScale::Quick, 42);
        for row in &t.rows {
            let mean: f64 = row[3].parse().unwrap();
            assert!(mean >= 0.999, "greedy beat exact?\n{t}");
        }
    }

    #[test]
    fn e11_quick_closure_matters() {
        let t = e11_closure_ablation(RunScale::Quick, 42);
        let with_closure: u64 = t.rows[0][2].parse().unwrap();
        let without: u64 = t.rows[1][2].parse().unwrap();
        let total: u64 = t.rows[0][3].parse().unwrap();
        assert_eq!(with_closure, total, "closure makes every scrambled query plannable");
        assert!(without < total, "without closure some scrambled orders must fail");
        // The closed grammar is strictly larger.
        let rules_closed: u64 = t.rows[0][1].parse().unwrap();
        let rules_gate: u64 = t.rows[1][1].parse().unwrap();
        assert!(rules_closed > rules_gate);
    }

    #[test]
    fn e13_quick_width_awareness() {
        let t = e13_cost_models(RunScale::Quick, 42);
        assert!(!t.to_string().contains("[MISMATCH]"), "{t}");
    }

    #[test]
    fn e12_quick_bind_beats_hash() {
        let t = e12_join(RunScale::Quick);
        assert!(t.to_string().contains("[OK]"), "{t}");
        assert!(!t.to_string().contains("[MISMATCH]"), "{t}");
    }

    #[test]
    fn e10_quick() {
        let t = e10_cost_model(RunScale::Quick, 42);
        assert!(!t.rows.is_empty());
    }
}
