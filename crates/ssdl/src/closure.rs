//! Commutativity elimination — §6.1 of the paper.
//!
//! Instead of firing the commutativity rewrite rule per query, GenCompact
//! rewrites the source description *once*, when the source joins the system:
//! for every rule whose body is a top-level `^`- (or `_`-) separated
//! sequence of segments, all segment permutations are added as extra rules.
//! The description then appears order-insensitive to the planner.
//!
//! When the mediator finally executes a plan it must "fix" each source query
//! back to an order the *original* grammar accepts
//! ([`CompiledSource::admit`](crate::check::CompiledSource::admit)); the
//! overhead is low because only the one chosen plan is fixed.

use crate::ast::{Rule, SsdlDesc, Sym};
use crate::token::Term;
use csqp_expr::CondTree;
use std::collections::HashSet;

/// Result of the permutation closure.
#[derive(Debug, Clone)]
pub struct ClosureResult {
    /// The rewritten, order-insensitive description.
    pub desc: SsdlDesc,
    /// Rules whose segment count exceeded `max_segments` and were left
    /// unchanged (the planner then stays order-sensitive for those forms).
    pub skipped: Vec<String>,
    /// Number of permutation rules added.
    pub added_rules: usize,
}

/// Default cap on segments per rule (5! = 120 permutations).
pub const DEFAULT_MAX_SEGMENTS: usize = 5;

/// Computes the permutation closure of a description.
pub fn permutation_closure(desc: &SsdlDesc, max_segments: usize) -> ClosureResult {
    let mut rules: Vec<Rule> = Vec::with_capacity(desc.rules.len());
    let mut seen: HashSet<(String, Vec<Sym>)> = HashSet::new();
    let mut skipped = Vec::new();
    let mut added = 0usize;

    for rule in &desc.rules {
        // Always keep the original.
        if seen.insert((rule.lhs.clone(), rule.rhs.clone())) {
            rules.push(rule.clone());
        }
        // Directly-recursive rules (list rules like `sizes -> size = $str _
        // sizes`) are not permuted: the permutation recognizes the same
        // language but makes the grammar ambiguous, destroying the linear
        // parse time the Leo optimization provides (validated by E8).
        if rule.rhs.iter().any(|s| matches!(s, Sym::NonTerm(n) if n == &rule.lhs)) {
            continue;
        }
        let Some(segments) = top_level_segments(&rule.rhs) else { continue };
        let (sep, segs) = segments;
        if segs.len() < 2 {
            continue;
        }
        if segs.len() > max_segments {
            skipped.push(rule.lhs.clone());
            continue;
        }
        for perm in permutations(&segs) {
            let mut rhs: Vec<Sym> = Vec::with_capacity(rule.rhs.len());
            for (i, seg) in perm.iter().enumerate() {
                if i > 0 {
                    rhs.push(Sym::Term(sep.clone()));
                }
                rhs.extend(seg.iter().cloned());
            }
            if seen.insert((rule.lhs.clone(), rhs.clone())) {
                rules.push(Rule { lhs: rule.lhs.clone(), rhs });
                added += 1;
            }
        }
    }

    let desc =
        SsdlDesc { name: desc.name.clone(), rules, exports: desc.exports.clone() }.validate_ok();
    ClosureResult { desc, skipped, added_rules: added }
}

trait ValidateOk {
    fn validate_ok(self) -> Self;
}
impl ValidateOk for SsdlDesc {
    fn validate_ok(self) -> Self {
        debug_assert!(self.validate().is_ok(), "closure broke validity");
        self
    }
}

/// Splits a rule body into segments separated by a single connector at
/// paren-depth 0. Returns `None` when the body mixes both connectors at
/// depth 0 (not a commutable sequence) or contains no connector.
fn top_level_segments(rhs: &[Sym]) -> Option<(Term, Vec<Vec<Sym>>)> {
    let mut depth = 0i32;
    let mut sep: Option<Term> = None;
    let mut segs: Vec<Vec<Sym>> = vec![Vec::new()];
    for sym in rhs {
        match sym {
            Sym::Term(Term::LParen) => {
                depth += 1;
                segs.last_mut().expect("nonempty").push(sym.clone());
            }
            Sym::Term(Term::RParen) => {
                depth -= 1;
                segs.last_mut().expect("nonempty").push(sym.clone());
            }
            Sym::Term(t @ (Term::AndSym | Term::OrSym)) if depth == 0 => {
                match &sep {
                    None => sep = Some(t.clone()),
                    Some(existing) if existing == t => {}
                    Some(_) => return None, // mixed connectors at depth 0
                }
                segs.push(Vec::new());
            }
            other => segs.last_mut().expect("nonempty").push(other.clone()),
        }
    }
    // Segments must be non-empty (an empty segment means a dangling
    // connector; leave such rules alone).
    if segs.iter().any(Vec::is_empty) {
        return None;
    }
    sep.map(|s| (s, segs))
}

/// All permutations of `items` (Heap's algorithm). Caller bounds the length.
pub fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let mut work: Vec<T> = items.to_vec();
    let n = work.len();
    heap_permute(&mut work, n, &mut out);
    out
}

fn heap_permute<T: Clone>(work: &mut Vec<T>, k: usize, out: &mut Vec<Vec<T>>) {
    if k <= 1 {
        out.push(work.clone());
        return;
    }
    for i in 0..k {
        heap_permute(work, k - 1, out);
        if k.is_multiple_of(2) {
            work.swap(i, k - 1);
        } else {
            work.swap(0, k - 1);
        }
    }
}

/// Cap on the number of orderings
/// [`CompiledSource::admit`](crate::check::CompiledSource::admit) tries.
pub const FIX_ORDER_BUDGET: usize = 100_000;

/// Orderings of `t` (child permutations at every `^`/`_` node, `t` itself
/// first), at most `budget` of them.
pub(crate) fn orderings(t: &CondTree, budget: usize) -> Vec<CondTree> {
    match t {
        CondTree::Leaf(_) => vec![t.clone()],
        CondTree::Node(conn, children) => {
            // Orderings of each child.
            let child_variants: Vec<Vec<CondTree>> =
                children.iter().map(|c| orderings(c, budget)).collect();
            // Cartesian product of child variants.
            let mut combos: Vec<Vec<CondTree>> = vec![Vec::new()];
            for cv in &child_variants {
                let mut next = Vec::new();
                for base in &combos {
                    for v in cv {
                        if next.len() >= budget {
                            break;
                        }
                        let mut b = base.clone();
                        b.push(v.clone());
                        next.push(b);
                    }
                }
                combos = next;
            }
            // All permutations of each combo.
            let mut out = Vec::new();
            for combo in combos {
                if combo.len() > 6 {
                    // 7!+ permutations: keep original order only for huge
                    // fan-out nodes.
                    out.push(CondTree::Node(*conn, combo));
                    continue;
                }
                for perm in permutations(&combo) {
                    if out.len() >= budget {
                        return out;
                    }
                    out.push(CondTree::Node(*conn, perm));
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CompiledSource;
    use crate::parser::parse_ssdl;
    use csqp_expr::parse::parse_condition;
    use std::collections::BTreeSet;

    fn attrs(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn car_dealer() -> SsdlDesc {
        parse_ssdl(
            "source car_dealer {\n\
             s1 -> make = $str ^ price < $int ;\n\
             s2 -> make = $str ^ color = $str ;\n\
             attributes :: s1 : { make, model, year, color } ;\n\
             attributes :: s2 : { make, model, year } ;\n}",
        )
        .unwrap()
    }

    #[test]
    fn closure_makes_order_insensitive() {
        let result = permutation_closure(&car_dealer(), DEFAULT_MAX_SEGMENTS);
        assert_eq!(result.added_rules, 2); // one reversed rule per original
        assert!(result.skipped.is_empty());
        let compiled = CompiledSource::new(result.desc);
        let reversed = parse_condition("color = \"red\" ^ make = \"BMW\"").unwrap();
        assert!(compiled.supports(Some(&reversed), &attrs(&["model"])));
        // The paper's §6.1 example: price-before-make now accepted too.
        let price_first = parse_condition("price < 40000 ^ make = \"BMW\"").unwrap();
        assert!(compiled.supports(Some(&price_first), &attrs(&["model", "year"])));
    }

    #[test]
    fn closure_keeps_original_rules() {
        let result = permutation_closure(&car_dealer(), DEFAULT_MAX_SEGMENTS);
        let compiled = CompiledSource::new(result.desc);
        let original_order = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        assert!(compiled.supports(Some(&original_order), &attrs(&["model"])));
    }

    #[test]
    fn segments_respect_parentheses() {
        // `style = $str ^ ( sizes )` has two segments; the parenthesized
        // nonterminal call is one segment.
        let d = parse_ssdl(
            "s1 -> style = $str ^ ( sizes ) ;\n\
             sizes -> size = $str | size = $str _ sizes ;\n\
             attributes :: s1 : { style, size } ;",
        )
        .unwrap();
        let result = permutation_closure(&d, DEFAULT_MAX_SEGMENTS);
        // One addition: the reversed form rule. The recursive list rule is
        // deliberately NOT permuted (see permutation_closure docs).
        assert_eq!(result.added_rules, 1);
        let compiled = CompiledSource::new(result.desc);
        let swapped =
            parse_condition("(size = \"compact\" _ size = \"midsize\") ^ style = \"sedan\"")
                .unwrap();
        assert!(compiled.supports(Some(&swapped), &attrs(&["style"])));
    }

    #[test]
    fn list_rule_segments_not_permuted_inside() {
        // The recursive `sizes` rule has OrSym at depth 0 with 2 segments:
        // `size = $str` and `sizes` — permuting gives `sizes _ size = $str`,
        // harmless (left recursion, same language).
        let d = parse_ssdl(
            "s1 -> sizes ;\n\
             sizes -> size = $str | size = $str _ sizes ;\n\
             attributes :: s1 : { size } ;",
        )
        .unwrap();
        let result = permutation_closure(&d, DEFAULT_MAX_SEGMENTS);
        let compiled = CompiledSource::new(result.desc);
        let c = parse_condition("size = \"a\" _ size = \"b\" _ size = \"c\"").unwrap();
        assert!(compiled.supports(Some(&c), &attrs(&["size"])));
    }

    #[test]
    fn oversized_rules_skipped() {
        let d = parse_ssdl(
            "s1 -> a = $int ^ b = $int ^ c = $int ^ d = $int ^ e = $int ^ f = $int ;\n\
             attributes :: s1 : { a } ;",
        )
        .unwrap();
        let result = permutation_closure(&d, 5);
        assert_eq!(result.skipped, vec!["s1".to_string()]);
        assert_eq!(result.added_rules, 0);
    }

    #[test]
    fn permutations_count() {
        assert_eq!(permutations(&[1]).len(), 1);
        assert_eq!(permutations(&[1, 2]).len(), 2);
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
        assert_eq!(permutations(&[1, 2, 3, 4]).len(), 24);
        let perms = permutations(&[1, 2, 3]);
        let distinct: HashSet<Vec<i32>> = perms.into_iter().collect();
        assert_eq!(distinct.len(), 6);
    }

    #[test]
    fn fix_order_restores_grammar_order() {
        let original = CompiledSource::new(car_dealer());
        let reversed = parse_condition("price < 40000 ^ make = \"BMW\"").unwrap();
        assert!(!original.supports(Some(&reversed), &attrs(&["model"])));
        let fixed = original.admit(Some(&reversed), &attrs(&["model"])).unwrap();
        assert_eq!(fixed.cond(), Some(&parse_condition("make = \"BMW\" ^ price < 40000").unwrap()));
    }

    #[test]
    fn fix_order_identity_when_already_accepted() {
        let original = CompiledSource::new(car_dealer());
        let ok = parse_condition("make = \"BMW\" ^ price < 40000").unwrap();
        let admitted = original.admit(Some(&ok), &attrs(&["model"])).unwrap();
        assert_eq!(admitted.cond(), Some(&ok));
    }

    #[test]
    fn fix_order_fails_for_truly_unsupported() {
        let original = CompiledSource::new(car_dealer());
        let c = parse_condition("year = 1999").unwrap();
        assert_eq!(original.admit(Some(&c), &attrs(&["model"])), None);
    }

    #[test]
    fn fix_order_recurses_into_nested_nodes() {
        let d = parse_ssdl(
            "s1 -> style = $str ^ ( sizes ) ;\n\
             sizes -> size = \"compact\" _ size = \"midsize\" ;\n\
             attributes :: s1 : { style, size } ;",
        )
        .unwrap();
        let original = CompiledSource::new(d);
        // Both the outer order and the inner disjunct order are wrong.
        let c = parse_condition("(size = \"midsize\" _ size = \"compact\") ^ style = \"sedan\"")
            .unwrap();
        let fixed = original.admit(Some(&c), &attrs(&["style"])).unwrap();
        assert_eq!(
            fixed.cond().unwrap(),
            &parse_condition("style = \"sedan\" ^ (size = \"compact\" _ size = \"midsize\")")
                .unwrap()
        );
    }
}
