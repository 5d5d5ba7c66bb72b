//! The federation capability index: compiled source pre-selection.
//!
//! A federation walking N members re-runs full `Check()`-based planning on
//! every member for every query — O(N × parse), fatal at thousands of
//! sources. This module denormalizes each member's compiled
//! [`CapabilityFacts`] into
//! federation-wide inverted bitset postings over dense member ids, so
//! "which sources could possibly answer this condition shape?" resolves by
//! a handful of [`SymSet`] intersections — no grammar is parsed for members
//! the index rules out.
//!
//! ## Layout
//!
//! One federation-level [`Interner`] maps namespaced keys to dense symbols:
//!
//! - `x:{attr}` — *export postings*: members with `attr` in some form's
//!   export set;
//! - `m:{attr}:{op}` / `m:{attr}:*` — *may postings*: members whose grammar
//!   can accept an atom of that class (`*` = operator unknown/any);
//! - `c:{attr}:{op}` / `c:{attr}:*` — *required-class keys*: the alphabet of
//!   per-form required-class sets. Forms sharing a required set collapse
//!   into one *required group* (`SymSet` of class keys → `SymSet` of member
//!   ids), so the per-query scan is over distinct requirement shapes, not
//!   over members.
//!
//! ## Soundness
//!
//! Candidates are a **superset** of the truly feasible members — full
//! `Check`-based planning remains the oracle and answers stay
//! byte-identical (the differential suite in
//! `tests/capindex_differential.rs` enforces this). Three pruning rules,
//! each justified by "rewritings never invent atoms absent from the query":
//!
//! 1. **Projection** — every requested attribute must be in the member's
//!    export union.
//! 2. **Entry** — the member is downloadable, or some form's required
//!    classes are contained in the query's atom classes.
//! 3. **Enforcement** — each query atom's class is accepted somewhere in
//!    the grammar, or its attribute is exportable (locally filterable).
//!    Applied **only when the query's atoms are pairwise distinct**: with
//!    duplicated atoms the absorption rewrite `a _ (a ^ y) ≡ a` can drop an
//!    atom entirely, and the rule would over-prune.

use crate::types::TargetQuery;
use csqp_expr::{Interner, Sym, SymSet};
use csqp_source::Source;
use csqp_ssdl::facts::CapabilityFacts;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The outcome of an index probe for one query: the surviving member ids
/// plus the counts the observability layer reports.
#[derive(Debug, Clone)]
pub struct IndexDecision {
    /// Members in the federation.
    pub total: usize,
    /// Surviving member ids (dense, in federation member order).
    pub candidates: SymSet,
    /// `total - |candidates|`.
    pub pruned: usize,
}

impl IndexDecision {
    /// Is the member a candidate?
    pub fn is_candidate(&self, member_idx: usize) -> bool {
        self.candidates.contains(member_idx as Sym)
    }
}

/// A federation-wide inverted/bitset index over member capability facts.
#[derive(Debug, Default)]
pub struct CapabilityIndex {
    interner: Interner,
    /// Postings per interned key (`x:`/`m:` namespaces), indexed by symbol.
    postings: Vec<SymSet>,
    /// Distinct per-form required-class sets → members owning such a form.
    /// Keys are sorted symbol lists, not bitsets: class symbols are sparse
    /// in the federation-wide interner space, so a bitset key would cost
    /// O(interner size) to build and hash per form.
    required_groups: Vec<(Box<[Sym]>, SymSet)>,
    group_ids: HashMap<Box<[Sym]>, usize>,
    /// Group ids keyed by a representative class key (the group's minimum
    /// symbol): a group's required set can only be contained in the query's
    /// class keys if its representative is one of them, so the per-query
    /// scan touches O(query atoms) groups instead of all of them.
    groups_by_rep: HashMap<Sym, Vec<usize>>,
    /// Members owning a form with an empty required set (always enterable).
    always_entry: SymSet,
    /// Members with a download (`true`) rule.
    downloadables: SymSet,
    /// All member ids.
    all: SymSet,
    n_sources: usize,
}

impl CapabilityIndex {
    /// An empty index.
    pub fn new() -> Self {
        CapabilityIndex::default()
    }

    /// Builds the index over a federation's members, in member order (the
    /// dense member ids are the `members` indices).
    pub fn build(members: &[Arc<Source>]) -> Self {
        let mut idx = CapabilityIndex::new();
        for m in members {
            idx.add_source(m.capability_facts());
        }
        idx
    }

    /// Number of indexed members.
    pub fn len(&self) -> usize {
        self.n_sources
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.n_sources == 0
    }

    fn posting_mut(&mut self, key: &str) -> &mut SymSet {
        let sym = self.interner.intern(key) as usize;
        if self.postings.len() <= sym {
            self.postings.resize(sym + 1, SymSet::new());
        }
        &mut self.postings[sym]
    }

    fn posting(&self, key: &str) -> Option<&SymSet> {
        self.interner.lookup(key).and_then(|sym| self.postings.get(sym as usize))
    }

    /// Indexes one member's facts; returns its dense member id.
    pub fn add_source(&mut self, facts: &CapabilityFacts) -> usize {
        let id = self.n_sources as Sym;
        self.n_sources += 1;
        self.all.insert(id);

        for attr in &facts.exports_union {
            self.posting_mut(&format!("x:{attr}")).insert(id);
        }
        for class in &facts.may {
            let key = match class.op {
                Some(op) => format!("m:{}:{}", class.attr, op),
                None => format!("m:{}:*", class.attr),
            };
            self.posting_mut(&key).insert(id);
        }
        if facts.downloadable {
            self.downloadables.insert(id);
        }
        for form in &facts.forms {
            // ⊤ (non-productive) forms can never match — not indexed.
            let Some(required) = &form.required else { continue };
            let mut keys: Vec<Sym> = required
                .iter()
                .map(|class| {
                    let key = match class.op {
                        Some(op) => format!("c:{}:{}", class.attr, op),
                        None => format!("c:{}:*", class.attr),
                    };
                    self.interner.intern(&key)
                })
                .collect();
            keys.sort_unstable();
            if keys.is_empty() {
                self.always_entry.insert(id);
                continue;
            }
            let keys: Box<[Sym]> = keys.into();
            let gid = match self.group_ids.get(&keys) {
                Some(&gid) => gid,
                None => {
                    let gid = self.required_groups.len();
                    let rep = keys[0];
                    self.required_groups.push((keys.clone(), SymSet::new()));
                    self.group_ids.insert(keys, gid);
                    self.groups_by_rep.entry(rep).or_default().push(gid);
                    gid
                }
            };
            self.required_groups[gid].1.insert(id);
        }
        id as usize
    }

    /// Resolves the candidate member set for a query by set intersections.
    /// The result is a superset of the members for which full planning is
    /// feasible; everything outside it is infeasible with certainty.
    pub fn candidates(&self, query: &TargetQuery) -> IndexDecision {
        let done = |candidates: SymSet| {
            let pruned = self.n_sources - candidates.len();
            IndexDecision { total: self.n_sources, candidates, pruned }
        };
        let mut cand = self.all.clone();

        // Rule 1 — projection: intersect export postings over requested
        // attributes. An attribute no member exports empties the result.
        for attr in &query.attrs {
            match self.posting(&format!("x:{attr}")) {
                Some(p) => cand.intersect_with(p),
                None => return done(SymSet::new()),
            }
            if cand.is_empty() {
                return done(cand);
            }
        }

        let atoms = query.cond.atoms();
        // The query's class-key set, for required-group containment: each
        // atom satisfies both its exact class key and the wildcard key.
        // (A hash set, not a SymSet: class symbols are sparse in the
        // federation-wide interner space.)
        let mut class_syms: HashSet<Sym> = HashSet::new();
        for a in &atoms {
            if let Some(sym) = self.interner.lookup(&format!("c:{}:{}", a.attr, a.op)) {
                class_syms.insert(sym);
            }
            if let Some(sym) = self.interner.lookup(&format!("c:{}:*", a.attr)) {
                class_syms.insert(sym);
            }
        }

        // Rule 2 — entry: downloadable/always-enterable members plus
        // members owning a form whose required classes the query contains.
        // Only groups whose representative key is among the query's class
        // keys can match, so the scan is O(query atoms), not O(groups).
        // (Union order over an unordered set is irrelevant: the result set
        // is the same whichever way the unions associate.)
        let mut entry = self.downloadables.union(&self.always_entry);
        for key in &class_syms {
            for &gid in self.groups_by_rep.get(key).map_or(&[][..], Vec::as_slice) {
                let (required, members) = &self.required_groups[gid];
                if required.iter().all(|k| class_syms.contains(k)) {
                    entry.union_with(members);
                }
            }
        }
        cand.intersect_with(&entry);
        if cand.is_empty() {
            return done(cand);
        }

        // Rule 3 — enforcement, only under pairwise-distinct atoms (see
        // module docs: absorption can drop duplicated atoms).
        let distinct = atoms.iter().enumerate().all(|(i, a)| !atoms[..i].contains(a));
        if distinct {
            for a in &atoms {
                let mut ok = SymSet::new();
                if let Some(p) = self.posting(&format!("m:{}:{}", a.attr, a.op)) {
                    ok.union_with(p);
                }
                if let Some(p) = self.posting(&format!("m:{}:*", a.attr)) {
                    ok.union_with(p);
                }
                if let Some(p) = self.posting(&format!("x:{}", a.attr)) {
                    ok.union_with(p);
                }
                cand.intersect_with(&ok);
                if cand.is_empty() {
                    return done(cand);
                }
            }
        }
        done(cand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_expr::ValueType;
    use csqp_relation::datagen;
    use csqp_source::CostParams;
    use csqp_ssdl::{parse_ssdl, templates};
    use std::collections::BTreeSet;

    fn mirrors() -> Vec<Arc<Source>> {
        let data = datagen::cars(3, 60);
        vec![
            Arc::new(Source::new(
                data.clone(),
                templates::car_dealer(),
                CostParams::new(10.0, 1.0),
            )),
            Arc::new(Source::new(
                data.clone(),
                templates::download_only(
                    "dump",
                    &[
                        ("make", ValueType::Str),
                        ("model", ValueType::Str),
                        ("year", ValueType::Int),
                        ("color", ValueType::Str),
                        ("price", ValueType::Int),
                    ],
                ),
                CostParams::new(200.0, 5.0),
            )),
            Arc::new(Source::new(
                data,
                parse_ssdl(
                    "source color_only {\n\
                     s1 -> color = $str ;\n\
                     attributes :: s1 : { make, model, year, color } ;\n}",
                )
                .unwrap(),
                CostParams::new(10.0, 1.0),
            )),
        ]
    }

    fn q(cond: &str, attrs: &[&str]) -> TargetQuery {
        TargetQuery::parse(cond, attrs).unwrap()
    }

    fn ids(d: &IndexDecision) -> Vec<u32> {
        d.candidates.iter().collect()
    }

    #[test]
    fn routes_by_capability_shape() {
        let members = mirrors();
        let idx = CapabilityIndex::build(&members);
        assert_eq!(idx.len(), 3);
        // make+price form: dealer and dump qualify; color_only lacks both
        // an entry form and the price export.
        let d = idx.candidates(&q("make = \"BMW\" ^ price < 40000", &["model", "year"]));
        assert_eq!(ids(&d), vec![0, 1]);
        assert_eq!((d.total, d.pruned), (3, 1));
        // Bare color query: the dealer has no color-only form.
        let d = idx.candidates(&q("color = \"red\"", &["make", "model"]));
        assert_eq!(ids(&d), vec![1, 2]);
        // year-only: only the dump can enter.
        let d = idx.candidates(&q("year = 1995", &["make"]));
        assert_eq!(ids(&d), vec![1]);
    }

    #[test]
    fn unexported_attribute_empties_candidates() {
        let members = mirrors();
        let idx = CapabilityIndex::build(&members);
        let d = idx.candidates(&q("make = \"BMW\"", &["mileage"]));
        assert!(d.candidates.is_empty());
        assert_eq!(d.pruned, 3);
    }

    #[test]
    fn duplicate_atoms_disable_rule_three_only() {
        let members = mirrors();
        let idx = CapabilityIndex::build(&members);
        // Duplicated atom (absorption territory): rule 3 must not fire, but
        // rules 1–2 still prune the form-only members.
        let d = idx.candidates(&q("year = 1995 _ (year = 1995 ^ make = \"BMW\")", &["make"]));
        assert_eq!(ids(&d), vec![1], "entry rule still applies");
    }

    #[test]
    fn agrees_with_per_source_facts_oracle() {
        let members = mirrors();
        let idx = CapabilityIndex::build(&members);
        let queries = [
            q("make = \"BMW\" ^ price < 40000", &["model", "year"]),
            q("color = \"red\"", &["make", "model"]),
            q("year = 1995", &["make", "model"]),
            q("make = \"BMW\" ^ color = \"red\"", &["year"]),
            q("price < 10000", &["price"]),
            q("make = \"BMW\"", &["mileage"]),
        ];
        for query in &queries {
            let d = idx.candidates(query);
            let classes = CapabilityFacts::query_classes(&query.cond);
            let atoms = query.cond.atoms();
            let distinct = atoms.iter().enumerate().all(|(i, a)| !atoms[..i].contains(a));
            let attrs: BTreeSet<String> = query.attrs.iter().cloned().collect();
            for (i, m) in members.iter().enumerate() {
                assert_eq!(
                    d.is_candidate(i),
                    m.capability_facts().may_support(&classes, &attrs, distinct),
                    "index and facts oracle disagree on member {i} for {query}"
                );
            }
        }
    }

    #[test]
    fn empty_index_prunes_nothing_nonexistent() {
        let idx = CapabilityIndex::new();
        let d = idx.candidates(&q("a = 1", &["k"]));
        assert_eq!((d.total, d.pruned), (0, 0));
        assert!(d.candidates.is_empty());
    }
}
