//! The `Check` function of §4, and compiled sources.
//!
//! `Check(C, R)` parses the linearized condition `C` against `R`'s grammar
//! and returns the attributes `R` exports when evaluating `C`. The paper
//! implicitly assumes a single matching condition nonterminal; when several
//! match, we keep the *antichain of maximal attribute sets* — a source query
//! `SP(C, A, R)` is supported iff `A` is covered by some element
//! (see DESIGN.md §5 "Antichain exports").
//!
//! Attribute sets are stored as interned bitsets ([`SymSet`]): each
//! compiled source owns an [`Interner`] mapping its export-attribute names
//! to dense ids, and per-nonterminal export sets are precomputed at compile
//! time, so a `Check` call does no string hashing or `BTreeSet` allocation
//! (see DESIGN.md, "Implementation notes: interning & bitsets").

use crate::ast::SsdlDesc;
use crate::closure::{orderings, FIX_ORDER_BUDGET};
use crate::earley::{matching_condition_nts, recognize, ParseStats};
use crate::grammar::Grammar;
use crate::linearize::linearize;
use crate::token::CondToken;
use csqp_expr::{CondTree, Interner, SymSet};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Interner backing export sets constructed without a source (tests,
/// hand-built antichains). Sources own their own interner.
fn standalone_interner() -> Arc<Interner> {
    static SHARED: OnceLock<Arc<Interner>> = OnceLock::new();
    SHARED.get_or_init(|| Arc::new(Interner::new())).clone()
}

/// The set of attribute sets a source can export for a condition: a maximal
/// antichain under `⊆`. Empty means the condition is not supported at all.
#[derive(Debug, Clone)]
pub struct ExportSet {
    interner: Arc<Interner>,
    sets: Vec<SymSet>,
}

impl Default for ExportSet {
    fn default() -> Self {
        ExportSet::empty()
    }
}

impl PartialEq for ExportSet {
    fn eq(&self, other: &Self) -> bool {
        // Compare by name so sets from different interners (e.g. a test
        // fixture vs. a compiled source) agree with set semantics. Order of
        // antichain elements is significant, as it was for the string
        // representation.
        self.sets.len() == other.sets.len() && self.sets() == other.sets()
    }
}

impl Eq for ExportSet {}

impl ExportSet {
    /// The unsupported outcome (`Check` returned "the empty set").
    pub fn empty() -> Self {
        ExportSet { interner: standalone_interner(), sets: Vec::new() }
    }

    /// An empty export set whose symbols resolve through `interner`.
    pub fn with_interner(interner: Arc<Interner>) -> Self {
        ExportSet { interner, sets: Vec::new() }
    }

    /// An export set with a single alternative.
    pub fn single(set: BTreeSet<String>) -> Self {
        let mut e = ExportSet::empty();
        e.insert(set);
        e
    }

    /// The interner this set's symbols resolve through.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Inserts an attribute set, maintaining maximality: dominated sets are
    /// dropped; inserting a subset of an existing set is a no-op.
    pub fn insert(&mut self, set: BTreeSet<String>) {
        let syms = set.iter().map(|a| self.interner.intern(a)).collect();
        self.insert_syms(syms);
    }

    /// As [`ExportSet::insert`], for a pre-interned set. The symbols must
    /// come from this set's interner.
    pub fn insert_syms(&mut self, set: SymSet) {
        if self.sets.iter().any(|s| set.is_subset(s)) {
            return;
        }
        self.sets.retain(|s| !s.is_subset(&set));
        self.sets.push(set);
    }

    /// Is the condition unsupported?
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Can the source export all of `attrs` (in one supported query form)?
    pub fn covers<S: Ord + AsRef<str>>(&self, attrs: &BTreeSet<S>) -> bool {
        if self.sets.is_empty() {
            return false;
        }
        // An attribute the interner has never seen is in no export set.
        let mut syms = SymSet::new();
        for a in attrs {
            match self.interner.lookup(a.as_ref()) {
                Some(sym) => syms.insert(sym),
                None => return false,
            }
        }
        self.covers_syms(&syms)
    }

    /// As [`ExportSet::covers`], for a pre-interned attribute set — the
    /// planner's per-node fast path (no string hashing).
    #[inline]
    pub fn covers_syms(&self, attrs: &SymSet) -> bool {
        self.sets.iter().any(|s| attrs.is_subset(s))
    }

    /// The maximal attribute sets, materialized as names (diagnostics and
    /// tests; the planner iterates [`ExportSet::sym_sets`] instead).
    pub fn sets(&self) -> Vec<BTreeSet<String>> {
        self.sets.iter().map(|s| s.iter().map(|sym| self.interner.name(sym)).collect()).collect()
    }

    /// The maximal attribute sets as interned bitsets.
    pub fn sym_sets(&self) -> &[SymSet] {
        &self.sets
    }

    /// Union of all alternatives (useful for display; NOT for feasibility —
    /// use [`ExportSet::covers`]).
    pub fn union_all(&self) -> BTreeSet<String> {
        self.sets().into_iter().flatten().collect()
    }
}

/// A thread-safe, fingerprint-keyed `Check(C, R)` memo that persists across
/// planning calls.
///
/// Per-plan check caches die with the plan, so a federation planning the
/// same query twice re-parses every member's grammar from scratch. A source
/// owns one `SharedCheckCache` for its planning view; planners layer their
/// per-plan cache on top and backfill both, so repeated identical
/// conditions cost one read-locked map probe instead of an Earley parse.
///
/// Reads take a shared lock; a racing double-insert is harmless (`Check` is
/// deterministic, so both writers store the same value).
#[derive(Debug, Default)]
pub struct SharedCheckCache {
    map: std::sync::RwLock<
        std::collections::HashMap<
            crate::linearize::Fingerprint,
            ExportSet,
            std::hash::BuildHasherDefault<crate::linearize::FingerprintHasher>,
        >,
    >,
}

impl SharedCheckCache {
    /// An empty cache.
    pub fn new() -> Self {
        SharedCheckCache::default()
    }

    /// Looks up a memoized `Check` result by condition fingerprint.
    pub fn get(&self, fp: crate::linearize::Fingerprint) -> Option<ExportSet> {
        self.map.read().expect("shared check cache poisoned").get(&fp).cloned()
    }

    /// Memoizes a `Check` result.
    pub fn insert(&self, fp: crate::linearize::Fingerprint, exports: ExportSet) {
        self.map.write().expect("shared check cache poisoned").insert(fp, exports);
    }

    /// Number of memoized conditions.
    pub fn len(&self) -> usize {
        self.map.read().expect("shared check cache poisoned").len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A source query the mediator may send: a condition in an order the gate
/// grammar accepts, with a projection that grammar exports. Only
/// [`CompiledSource::admit`] mints one, so a query that reaches a source
/// has been through the §6.1 fix step.
#[derive(Debug, PartialEq, Eq)]
pub struct Admitted {
    cond: Option<CondTree>,
    attrs: BTreeSet<String>,
}

impl Admitted {
    /// The condition, in the accepted order (`None` = download).
    pub fn cond(&self) -> Option<&CondTree> {
        self.cond.as_ref()
    }

    /// The projection.
    pub fn attrs(&self) -> &BTreeSet<String> {
        &self.attrs
    }
}

/// A source description compiled for fast `Check` calls (grammar built once,
/// when the source joins the system — §6.1).
#[derive(Debug, Clone)]
pub struct CompiledSource {
    /// The original description.
    pub desc: SsdlDesc,
    grammar: Grammar,
    interner: Arc<Interner>,
    /// Export [`SymSet`] per nonterminal id; `None` for nonterminals without
    /// an `attributes ::` clause (helper rules).
    nt_exports: Vec<Option<SymSet>>,
}

impl CompiledSource {
    /// Compiles a description.
    pub fn new(desc: SsdlDesc) -> Self {
        let grammar = Grammar::compile(&desc);
        let interner = Arc::new(Interner::new());
        let mut nt_exports: Vec<Option<SymSet>> = vec![None; grammar.nt_names.len()];
        // BTreeMap iteration gives a deterministic id assignment.
        for (nt_name, attrs) in &desc.exports {
            if let Some(nt) = grammar.nt_id(nt_name) {
                let set = attrs.iter().map(|a| interner.intern(a)).collect();
                nt_exports[nt as usize] = Some(set);
            }
        }
        CompiledSource { desc, grammar, interner, nt_exports }
    }

    /// The compiled grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The interner mapping this source's export attributes to symbols.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Does the grammar match literal constants (see
    /// [`Grammar::has_const_literals`])? When `true`, `Check` answers are
    /// constant-value-sensitive and a shape-keyed prepared plan must
    /// re-validate before rebinding.
    pub fn has_const_literals(&self) -> bool {
        self.grammar.has_const_literals()
    }

    fn collect_exports(&self, nts: impl IntoIterator<Item = crate::grammar::NtId>) -> ExportSet {
        let mut out = ExportSet::with_interner(self.interner.clone());
        for nt in nts {
            if let Some(Some(set)) = self.nt_exports.get(nt as usize) {
                out.insert_syms(set.clone());
            }
        }
        out
    }

    /// `Check(C, R)` on a pre-linearized token stream.
    pub fn check_tokens(&self, tokens: &[CondToken]) -> ExportSet {
        self.collect_exports(matching_condition_nts(&self.grammar, tokens))
    }

    /// `Check(C, R)`: the attributes exported when processing `C`
    /// (`None` = the trivially-true download condition).
    ///
    /// ```
    /// use csqp_ssdl::{parse_ssdl, CompiledSource};
    /// use csqp_expr::parse::parse_condition;
    ///
    /// let source = CompiledSource::new(parse_ssdl(r#"
    ///     source r {
    ///       s1 -> make = $str ^ price < $int ;
    ///       attributes :: s1 : { make, model, year, color } ;
    ///     }
    /// "#).unwrap());
    /// let cond = parse_condition(r#"make = "BMW" ^ price < 40000"#).unwrap();
    /// let exports = source.check(Some(&cond));
    /// assert!(!exports.is_empty());
    /// // The swapped order is a different token string: not accepted.
    /// let swapped = parse_condition(r#"price < 40000 ^ make = "BMW""#).unwrap();
    /// assert!(source.check(Some(&swapped)).is_empty());
    /// ```
    pub fn check(&self, cond: Option<&CondTree>) -> ExportSet {
        self.check_tokens(&linearize(cond))
    }

    /// As [`CompiledSource::check`], returning parser statistics (E8).
    pub fn check_with_stats(&self, cond: Option<&CondTree>) -> (ExportSet, ParseStats) {
        let toks = linearize(cond);
        let (nts, stats) = recognize(&self.grammar, &toks);
        (self.collect_exports(nts), stats)
    }

    /// Is `SP(C, A, R)` supported? (`A ⊆ Check(C, R)` in the paper's
    /// notation, i.e. covered by some matching form.)
    pub fn supports(&self, cond: Option<&CondTree>, attrs: &BTreeSet<String>) -> bool {
        self.check(cond).covers(attrs)
    }

    /// Admits `SP(C, A, R)` for execution: `cond` reordered, by permuting
    /// the children of its `^`/`_` nodes, into an order this grammar
    /// accepts with `attrs` exported (§6.1: the mediator "only fixes the
    /// source queries of just one plan"). `None` when no order within
    /// [`FIX_ORDER_BUDGET`] is accepted.
    pub fn admit(&self, cond: Option<&CondTree>, attrs: &BTreeSet<String>) -> Option<Admitted> {
        let accepted = |c: Option<&CondTree>| self.supports(c, attrs);
        let cond = match cond {
            c if accepted(c) => c.cloned(),
            None => return None,
            Some(c) => {
                Some(orderings(c, FIX_ORDER_BUDGET).into_iter().find(|o| accepted(Some(o)))?)
            }
        };
        Some(Admitted { cond, attrs: attrs.clone() })
    }

    /// Names of condition nonterminals matching `cond` (diagnostics).
    pub fn matching_forms(&self, cond: Option<&CondTree>) -> Vec<String> {
        matching_condition_nts(&self.grammar, &linearize(cond))
            .into_iter()
            .map(|nt| self.grammar.nt_name(nt).to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ssdl;
    use csqp_expr::parse::parse_condition;

    fn attrs(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn car_dealer() -> CompiledSource {
        CompiledSource::new(
            parse_ssdl(
                "source car_dealer {\n\
                 s1 -> make = $str ^ price < $int ;\n\
                 s2 -> make = $str ^ color = $str ;\n\
                 attributes :: s1 : { make, model, year, color } ;\n\
                 attributes :: s2 : { make, model, year } ;\n}",
            )
            .unwrap(),
        )
    }

    #[test]
    fn check_example_4_1() {
        let r = car_dealer();
        let c1 = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        let e = r.check(Some(&c1));
        assert_eq!(e.sets().len(), 1);
        assert_eq!(e.sets()[0], attrs(&["make", "model", "year", "color"]));
        // §4: SP(n1, {model, year}, R) supported...
        assert!(r.supports(Some(&c1), &attrs(&["model", "year"])));
        // ...but the disjunction on color is not supported at all.
        let c2 = parse_condition("color = \"red\" _ color = \"black\"").unwrap();
        assert!(r.check(Some(&c2)).is_empty());
        assert!(!r.supports(Some(&c2), &attrs(&["model"])));
    }

    #[test]
    fn projection_beyond_exports_rejected() {
        let r = car_dealer();
        let c = parse_condition("make = \"BMW\" ^ color = \"red\"").unwrap();
        // s2 exports {make, model, year}: price is not retrievable.
        assert!(r.supports(Some(&c), &attrs(&["make", "model"])));
        assert!(!r.supports(Some(&c), &attrs(&["price"])));
        assert!(!r.supports(Some(&c), &attrs(&["make", "price"])));
    }

    #[test]
    fn download_check_true() {
        let open = CompiledSource::new(
            parse_ssdl("s_dl -> true ;\nattributes :: s_dl : { a, b } ;").unwrap(),
        );
        assert!(open.supports(None, &attrs(&["a", "b"])));
        assert!(!open.supports(None, &attrs(&["c"])));
        // A source without a download rule refuses Check(true, R).
        let r = car_dealer();
        assert!(r.check(None).is_empty());
    }

    #[test]
    fn antichain_maximality() {
        let mut e = ExportSet::empty();
        e.insert(attrs(&["a", "b"]));
        e.insert(attrs(&["a"])); // dominated — dropped
        assert_eq!(e.sets().len(), 1);
        e.insert(attrs(&["b", "c"]));
        assert_eq!(e.sets().len(), 2);
        e.insert(attrs(&["a", "b", "c"])); // dominates both
        assert_eq!(e.sets().len(), 1);
        assert!(e.covers(&attrs(&["a", "c"])));
    }

    #[test]
    fn antichain_covering_is_per_form_not_union() {
        // Two forms exporting {a,b} and {b,c}: requesting {a,c} must FAIL
        // even though {a,c} ⊆ union.
        let r = CompiledSource::new(
            parse_ssdl(
                "s1 -> x = $int ;\ns2 -> x = $any ;\n\
                 attributes :: s1 : { a, b } ;\nattributes :: s2 : { b, c } ;",
            )
            .unwrap(),
        );
        let c = parse_condition("x = 1").unwrap();
        let e = r.check(Some(&c));
        assert_eq!(e.sets().len(), 2);
        assert!(e.covers(&attrs(&["a", "b"])));
        assert!(e.covers(&attrs(&["b", "c"])));
        assert!(!e.covers(&attrs(&["a", "c"])), "union coverage would be unsound");
        assert_eq!(e.union_all(), attrs(&["a", "b", "c"]));
    }

    #[test]
    fn covers_syms_matches_string_covers() {
        let r = car_dealer();
        let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        let e = r.check(Some(&c));
        let syms: csqp_expr::SymSet =
            ["model", "year"].iter().map(|a| r.interner().lookup(a).unwrap()).collect();
        assert!(e.covers_syms(&syms));
        assert_eq!(e.sym_sets().len(), 1);
        // Unknown attribute: string covers rejects without panicking.
        assert!(!e.covers(&attrs(&["model", "mileage"])));
    }

    #[test]
    fn export_set_equality_is_by_name() {
        let r = car_dealer();
        let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        // Same logical antichain, different interners (source vs standalone).
        let expected = ExportSet::single(attrs(&["make", "model", "year", "color"]));
        assert_eq!(r.check(Some(&c)), expected);
        assert_ne!(r.check(Some(&c)), ExportSet::empty());
    }

    #[test]
    fn matching_forms_reports_names() {
        let r = car_dealer();
        let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        assert_eq!(r.matching_forms(Some(&c)), vec!["s1"]);
        let unsupported = parse_condition("year = 1999").unwrap();
        assert!(r.matching_forms(Some(&unsupported)).is_empty());
    }

    #[test]
    fn empty_attrs_always_coverable_when_supported() {
        let r = car_dealer();
        let c = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        assert!(r.supports(Some(&c), &BTreeSet::new()));
        let bad = parse_condition("year = 1999").unwrap();
        // Unsupported condition: even the empty projection fails.
        assert!(!r.supports(Some(&bad), &BTreeSet::new()));
    }
}
