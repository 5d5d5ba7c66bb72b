//! Capability-sensitive join processing across two sources — the "complex
//! queries" extension the paper defers to its extended version ("selection
//! queries … form the building blocks of more complex queries", §1).
//!
//! Two strategies, both built from selection queries each side's
//! [`Mediator`] plans (GenCompact) and runs:
//!
//! - **Hash join**: plan and execute each side independently, join at the
//!   mediator.
//! - **Bind join**: execute the (estimated) smaller side first, then push
//!   its distinct join-key values into the other side's condition as a
//!   value-list disjunction `key = v1 _ key = v2 _ …`. This is only
//!   *feasible when the bound side's capability accepts value lists* — the
//!   planner probes the SSDL description before committing, which is
//!   exactly the kind of decision capability-blind optimizers cannot make.
//!
//! Strategy choice is cost-based (estimated §6.2 cost of all source
//! queries), with a runtime fallback to hash join if the bind side turns
//! out to produce more keys than [`JoinConfig::max_bind_values`].

use crate::gencompact::GenCompactConfig;
use crate::mediator::{Mediator, MediatorError, StreamOptions};
use crate::types::{PlanError, PlannedQuery, TargetQuery};
use csqp_expr::{Atom, CondTree, Value};
use csqp_plan::exec_stream::StreamConfig;
use csqp_relation::Relation;
use csqp_source::{Meter, Source};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A two-source equi-join of selection queries.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    /// Selection over the left source (the join key is added to its
    /// projection automatically).
    pub left: TargetQuery,
    /// Selection over the right source.
    pub right: TargetQuery,
    /// Join attribute on the left source.
    pub left_key: String,
    /// Join attribute on the right source.
    pub right_key: String,
}

/// How the join was (or must be) executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Both sides fetched independently; joined at the mediator.
    Hash,
    /// Left side fetched first; its keys bound into the right side's
    /// condition.
    BindLeftIntoRight,
    /// Right side fetched first; its keys bound into the left side's
    /// condition.
    BindRightIntoLeft,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinStrategy::Hash => write!(f, "hash join"),
            JoinStrategy::BindLeftIntoRight => write!(f, "bind join (left → right)"),
            JoinStrategy::BindRightIntoLeft => write!(f, "bind join (right → left)"),
        }
    }
}

/// Join-processing configuration.
#[derive(Debug, Clone, Copy)]
pub struct JoinConfig {
    /// Maximum distinct key values pushed in a bind join (web forms and
    /// URLs bound the practical list length).
    pub max_bind_values: usize,
    /// Force a specific strategy instead of choosing by cost.
    pub force: Option<JoinStrategy>,
    /// GenCompact settings used for every selection sub-plan.
    pub compact: GenCompactConfig,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig { max_bind_values: 64, force: None, compact: GenCompactConfig::default() }
    }
}

/// The result of a join run.
#[derive(Debug)]
pub struct JoinOutcome {
    /// Joined rows: left attributes then right attributes (right columns
    /// that collide with a left name are prefixed `r_`).
    pub rows: csqp_relation::Relation,
    /// The strategy actually executed.
    pub strategy: JoinStrategy,
    /// Transfer from the left source.
    pub left_meter: Meter,
    /// Transfer from the right source.
    pub right_meter: Meter,
    /// Measured §6.2 cost across both sources.
    pub measured_cost: f64,
}

/// A mediator joining two capability-limited sources, each behind its own
/// selection-query [`Mediator`].
#[derive(Debug)]
pub struct JoinMediator {
    left: Mediator,
    right: Mediator,
    cfg: JoinConfig,
}

/// One fetched side: its rows and the transfer they caused.
type Fetch = (Relation, Meter);

/// One side of a join run: its mediator, its selection with the join key
/// added to the projection, and that selection's plan.
struct Side<'a> {
    med: &'a Mediator,
    query: TargetQuery,
    key: &'a str,
    plan: Result<PlannedQuery, PlanError>,
}

impl<'a> Side<'a> {
    fn new(med: &'a Mediator, q: &TargetQuery, key: &'a str) -> Self {
        let query = JoinMediator::keyed(q, key);
        let plan = med.plan_quiet(&query);
        Side { med, query, key, plan }
    }

    /// Estimated rows of the side's selection.
    fn est_rows(&self) -> f64 {
        self.med.source().stats().estimate_rows(Some(&self.query.cond))
    }

    /// Runs the side's own plan.
    fn fetch(self) -> Result<Fetch, MediatorError> {
        let stream = StreamConfig::default();
        let run = self.med.run_stream(self.plan?, StreamOptions::plain(&stream), None)?;
        Ok((run.outcome.rows, run.outcome.meter))
    }
}

impl JoinMediator {
    /// Builds a join mediator with default configuration.
    pub fn new(left: Arc<Source>, right: Arc<Source>) -> Self {
        JoinMediator {
            left: Mediator::new(left),
            right: Mediator::new(right),
            cfg: JoinConfig::default(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, cfg: JoinConfig) -> Self {
        self.left = self.left.with_compact_config(cfg.compact);
        self.right = self.right.with_compact_config(cfg.compact);
        self.cfg = cfg;
        self
    }

    /// Augments a side's query so the join key is fetched.
    fn keyed(q: &TargetQuery, key: &str) -> TargetQuery {
        let mut attrs = q.attrs.clone();
        attrs.insert(key.to_string());
        TargetQuery::new(q.cond.clone(), attrs)
    }

    /// The value-list disjunction `key = v1 _ … _ key = vk`.
    fn key_list(key: &str, values: &[Value]) -> CondTree {
        if values.len() == 1 {
            CondTree::leaf(Atom::eq(key, values[0].clone()))
        } else {
            CondTree::or(values.iter().map(|v| CondTree::leaf(Atom::eq(key, v.clone()))).collect())
        }
    }

    /// A side's condition augmented with a bound key list (canonical shape:
    /// the list joins the existing conjunction).
    fn bound_condition(base: &CondTree, key: &str, values: &[Value]) -> CondTree {
        CondTree::and(vec![base.clone(), Self::key_list(key, values)])
    }

    /// Can `side` answer `base ∧ key ∈ {2 probe values}`? Probes capability
    /// with representative constants (grammar acceptance depends on types
    /// and shape, not the specific values — except for literal-constant
    /// grammars, which the probe then correctly rejects).
    fn bind_feasible(&self, side: &Side<'_>) -> bool {
        let probe_values = self.probe_values(side.med.source(), side.key);
        let cond = Self::bound_condition(&side.query.cond, side.key, &probe_values);
        side.med.plan_quiet(&TargetQuery::new(cond, side.query.attrs.clone())).is_ok()
    }

    /// Two representative key constants: real values when statistics carry
    /// exact frequencies, typed placeholders otherwise.
    fn probe_values(&self, source: &Source, key: &str) -> Vec<Value> {
        if let Some(col) = source.stats().column(key) {
            if let Some(freqs) = &col.freqs {
                let vs: Vec<Value> = freqs.keys().take(2).cloned().collect();
                if vs.len() == 2 {
                    return vs;
                }
            }
        }
        match source.relation().schema().column(key).map(|c| c.ty) {
            Some(csqp_expr::ValueType::Int) => vec![Value::Int(0), Value::Int(1)],
            Some(csqp_expr::ValueType::Float) => vec![Value::Float(0.0), Value::Float(1.0)],
            _ => vec![Value::str("?a"), Value::str("?b")],
        }
    }

    /// Plans + runs the join.
    pub fn run(&self, q: &JoinQuery) -> Result<JoinOutcome, MediatorError> {
        let left = Side::new(&self.left, &q.left, &q.left_key);
        let right = Side::new(&self.right, &q.right, &q.right_key);
        let strategy = match self.cfg.force {
            Some(s) => s,
            None => {
                // Prefer binding the side with the smaller estimated result
                // into the other, when the list capability exists and the
                // estimate fits the bind cap. Otherwise hash.
                let (left_rows_est, right_rows_est) = (left.est_rows(), right.est_rows());
                let bind_r2l = right_rows_est <= self.cfg.max_bind_values as f64
                    && right.plan.is_ok()
                    && self.bind_feasible(&left);
                let bind_l2r = left_rows_est <= self.cfg.max_bind_values as f64
                    && left.plan.is_ok()
                    && self.bind_feasible(&right);
                if bind_r2l && (!bind_l2r || right_rows_est <= left_rows_est) {
                    JoinStrategy::BindRightIntoLeft
                } else if bind_l2r {
                    JoinStrategy::BindLeftIntoRight
                } else {
                    JoinStrategy::Hash
                }
            }
        };
        let (strategy, left, right) = match strategy {
            JoinStrategy::Hash => (strategy, left.fetch()?, right.fetch()?),
            JoinStrategy::BindLeftIntoRight => self.bind_join(strategy, left, right)?,
            JoinStrategy::BindRightIntoLeft => {
                let (strategy, right, left) = self.bind_join(strategy, right, left)?;
                (strategy, left, right)
            }
        };
        self.finish(q, left, right, strategy)
    }

    /// Fetches `driver` first, then `bound` restricted to the driver's
    /// distinct join keys; over the bind cap it falls back, at runtime, to
    /// fetching `bound` whole — a hash join. Returns the strategy executed
    /// and the two fetches, driver first.
    fn bind_join(
        &self,
        strategy: JoinStrategy,
        driver: Side<'_>,
        bound: Side<'_>,
    ) -> Result<(JoinStrategy, Fetch, Fetch), MediatorError> {
        let driver_key = driver.key;
        let driven = driver.fetch()?;
        let Some(keys) = self.distinct_keys(&driven.0, driver_key) else {
            return Ok((JoinStrategy::Hash, driven, bound.fetch()?));
        };
        if keys.is_empty() {
            // Empty driver side: empty join, and no query sent for it.
            let attrs: Vec<&str> = bound.query.attrs.iter().map(String::as_str).collect();
            let schema = bound.med.source().relation().schema().project(&attrs);
            let schema = schema.map_err(|e| PlanError::MalformedQuery(e.to_string()))?;
            return Ok((strategy, driven, (Relation::empty(schema), Meter::default())));
        }
        let cond = Self::bound_condition(&bound.query.cond, bound.key, &keys);
        let out = bound.med.run(&TargetQuery::new(cond, bound.query.attrs))?;
        Ok((strategy, driven, (out.rows, out.meter)))
    }

    /// Distinct key values of `rows[key]` (None = over the bind cap).
    fn distinct_keys(&self, rows: &Relation, key: &str) -> Option<Vec<Value>> {
        let idx = rows.schema().col_index(key)?;
        let mut seen: Vec<Value> = Vec::new();
        for t in rows.tuples() {
            let v = t.get(idx)?.clone();
            if !seen.contains(&v) {
                seen.push(v);
                if seen.len() > self.cfg.max_bind_values {
                    return None;
                }
            }
        }
        Some(seen)
    }

    /// Hash-joins the two fetched sides and assembles the outcome.
    fn finish(
        &self,
        q: &JoinQuery,
        (left_rows, left_meter): Fetch,
        (right_rows, right_meter): Fetch,
        strategy: JoinStrategy,
    ) -> Result<JoinOutcome, MediatorError> {
        use csqp_relation::{Schema, Tuple};
        let ls = left_rows.schema().clone();
        let rs = right_rows.schema().clone();
        // Output schema: left columns, then right columns (collisions
        // prefixed `r_`).
        let mut columns: Vec<(String, csqp_expr::ValueType)> =
            ls.columns.iter().map(|c| (c.name.clone(), c.ty)).collect();
        for c in &rs.columns {
            let name = if ls.col_index(&c.name).is_some() {
                format!("r_{}", c.name)
            } else {
                c.name.clone()
            };
            columns.push((name, c.ty));
        }
        let col_refs: Vec<(&str, csqp_expr::ValueType)> =
            columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let schema = Schema::new(format!("{}_join_{}", ls.name, rs.name), col_refs, &[])
            .map_err(|e| MediatorError::Plan(PlanError::MalformedQuery(e.to_string())))?;

        let lkey = ls.col_index(&q.left_key).ok_or_else(|| {
            MediatorError::Plan(PlanError::MalformedQuery(format!(
                "left key {} missing from fetched columns",
                q.left_key
            )))
        })?;
        let rkey = rs.col_index(&q.right_key).ok_or_else(|| {
            MediatorError::Plan(PlanError::MalformedQuery(format!(
                "right key {} missing from fetched columns",
                q.right_key
            )))
        })?;

        // Hash the smaller side.
        let mut table: HashMap<&Value, Vec<&Tuple>> = HashMap::new();
        for t in right_rows.tuples() {
            table.entry(t.get(rkey).expect("arity checked")).or_default().push(t);
        }
        let mut out = csqp_relation::Relation::empty(schema);
        for lt in left_rows.tuples() {
            let key = lt.get(lkey).expect("arity checked");
            if let Some(matches) = table.get(key) {
                for rt in matches {
                    let mut vals = lt.values().to_vec();
                    vals.extend(rt.values().iter().cloned());
                    out.insert(Tuple::new(vals));
                }
            }
        }
        let measured_cost = left_meter.cost(self.left.source().cost_params())
            + right_meter.cost(self.right.source().cost_params());
        Ok(JoinOutcome { rows: out, strategy, left_meter, right_meter, measured_cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_relation::datagen::{books, reviews, BookGenConfig};
    use csqp_source::CostParams;
    use csqp_ssdl::templates;

    fn setup() -> (Arc<Source>, Arc<Source>) {
        let book_rel = books(7, &BookGenConfig { n_books: 1_000, ..Default::default() });
        let isbn_idx = book_rel.schema().col_index("isbn").unwrap();
        let isbns: Vec<Value> =
            book_rel.tuples().iter().map(|t| t.get(isbn_idx).unwrap().clone()).collect();
        let review_rel = reviews(11, &isbns, 3);
        let bookstore =
            Arc::new(Source::new(book_rel, templates::bookstore(), CostParams::default()));
        let review_site =
            Arc::new(Source::new(review_rel, templates::reviews(), CostParams::default()));
        (bookstore, review_site)
    }

    fn the_join() -> JoinQuery {
        JoinQuery {
            left: TargetQuery::parse(
                r#"author = "Sigmund Freud" ^ title contains "dreams""#,
                &["isbn", "title"],
            )
            .unwrap(),
            right: TargetQuery::parse(
                r#"rating >= 4"#,
                &["review_id", "isbn", "rating", "reviewer"],
            )
            .unwrap(),
            left_key: "isbn".into(),
            right_key: "isbn".into(),
        }
    }

    /// Oracle: nested loops over the raw relations.
    fn oracle_count(left: &Source, right: &Source, q: &JoinQuery) -> usize {
        use csqp_relation::ops::select;
        let l = select(left.relation(), Some(&q.left.cond));
        let r = select(right.relation(), Some(&q.right.cond));
        let li = l.schema().col_index(&q.left_key).unwrap();
        let ri = r.schema().col_index(&q.right_key).unwrap();
        let mut n = 0;
        for lt in l.tuples() {
            for rt in r.tuples() {
                if lt.get(li) == rt.get(ri) {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn bind_join_chosen_and_exact() {
        let (bookstore, review_site) = setup();
        let q = the_join();
        let jm = JoinMediator::new(bookstore.clone(), review_site.clone());
        let out = jm.run(&q).unwrap();
        // The left side (Freud's dream books) is tiny; its keys bind into
        // the review site's isbn-list capability.
        assert_eq!(out.strategy, JoinStrategy::BindLeftIntoRight, "{}", out.strategy);
        assert_eq!(out.rows.len(), oracle_count(&bookstore, &review_site, &q));
        assert!(!out.rows.is_empty(), "test data must produce matches");
        // The bind join never downloads all high-rated reviews.
        let all_high =
            csqp_relation::ops::select(review_site.relation(), Some(&q.right.cond)).len() as u64;
        assert!(out.right_meter.tuples_shipped < all_high / 2);
    }

    #[test]
    fn forced_hash_join_matches_bind_join() {
        let (bookstore, review_site) = setup();
        let q = the_join();
        let hash = JoinMediator::new(bookstore.clone(), review_site.clone())
            .with_config(JoinConfig { force: Some(JoinStrategy::Hash), ..Default::default() })
            .run(&q)
            .unwrap();
        let bind = JoinMediator::new(bookstore.clone(), review_site.clone()).run(&q).unwrap();
        assert_eq!(hash.strategy, JoinStrategy::Hash);
        assert_eq!(hash.rows, bind.rows, "strategies agree on the answer");
        assert!(
            bind.measured_cost <= hash.measured_cost,
            "bind {} vs hash {}",
            bind.measured_cost,
            hash.measured_cost
        );
    }

    #[test]
    fn runtime_fallback_when_bind_cap_exceeded() {
        let (bookstore, review_site) = setup();
        // A broad left side (keyword only): far more than 4 keys.
        let q = JoinQuery {
            left: TargetQuery::parse(r#"title contains "the""#, &["isbn"]).unwrap(),
            right: TargetQuery::parse(r#"rating >= 1"#, &["review_id", "isbn", "rating"]).unwrap(),
            left_key: "isbn".into(),
            right_key: "isbn".into(),
        };
        let jm =
            JoinMediator::new(bookstore.clone(), review_site.clone()).with_config(JoinConfig {
                max_bind_values: 4,
                force: Some(JoinStrategy::BindLeftIntoRight),
                ..Default::default()
            });
        let out = jm.run(&q).unwrap();
        assert_eq!(out.strategy, JoinStrategy::Hash, "fell back at runtime");
        assert_eq!(out.rows.len(), oracle_count(&bookstore, &review_site, &q));
    }

    #[test]
    fn bind_into_listless_side_degrades_to_local_filtering() {
        // Reverse direction: the bookstore form has no isbn field, so the
        // pushed key list cannot reach the source — but GenCompact still
        // plans the bound query by filtering the list LOCALLY on the
        // author+keyword fetch. Correct, just not cheaper than hash.
        let (bookstore, review_site) = setup();
        let q = the_join();
        let forced = JoinMediator::new(bookstore.clone(), review_site.clone())
            .with_config(JoinConfig {
                force: Some(JoinStrategy::BindRightIntoLeft),
                max_bind_values: 100_000,
                ..Default::default()
            })
            .run(&q)
            .unwrap();
        assert_eq!(forced.rows.len(), oracle_count(&bookstore, &review_site, &q));
        // The automatic chooser never picks this direction (the right side
        // exceeds the bind cap and binding buys nothing).
        let auto = JoinMediator::new(bookstore, review_site).run(&q).unwrap();
        assert_ne!(auto.strategy, JoinStrategy::BindRightIntoLeft);
    }

    #[test]
    fn empty_driver_side_gives_empty_join() {
        let (bookstore, review_site) = setup();
        let q = JoinQuery {
            left: TargetQuery::parse(r#"author = "Nobody Nowhere""#, &["isbn"]).unwrap(),
            right: TargetQuery::parse(r#"rating >= 4"#, &["isbn", "rating"]).unwrap(),
            left_key: "isbn".into(),
            right_key: "isbn".into(),
        };
        let out = JoinMediator::new(bookstore, review_site)
            .with_config(JoinConfig {
                force: Some(JoinStrategy::BindLeftIntoRight),
                ..Default::default()
            })
            .run(&q)
            .unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(out.right_meter.queries, 0, "no query sent for an empty key set");
    }

    #[test]
    fn column_collisions_are_prefixed() {
        let (bookstore, review_site) = setup();
        let out = JoinMediator::new(bookstore, review_site).run(&the_join()).unwrap();
        let names: Vec<&str> = out.rows.schema().column_names().collect();
        // `isbn` appears on both sides: the right one is prefixed.
        assert!(names.contains(&"isbn"));
        assert!(names.contains(&"r_isbn"));
        assert!(names.contains(&"rating"));
    }
}
