//! Parser for the SSDL text format.
//!
//! ```text
//! desc      := "source" ident "{" item* "}"        // wrapper optional
//! item      := rule | attrClause
//! rule      := ident "->" alt ("|" alt)* ";"
//! alt       := symbol*                              // empty alt = ε
//! symbol    := ident            // nonterminal if defined by a rule,
//!                               // otherwise an attribute terminal
//!            | cmpOp | "contains"
//!            | "$int" | "$float" | "$str" | "$bool" | "$any"
//!            | string | int | float                 // literal constants
//!            | "^" | "_" | "(" | ")" | "true"
//! attrClause:= "attributes" "::" ident ":" "{" ident ("," ident)* "}" ";"
//! ```
//!
//! Identifier resolution is two-pass: any identifier that appears on the
//! left of `->` is a nonterminal; every other identifier in a rule body is
//! an attribute terminal. `contains` and `true` are reserved words.

use crate::ast::{Rule, SsdlDesc, Sym};
use crate::error::SsdlError;
use crate::lexer::{lex_ssdl, Located, SsdlTok};
use crate::token::Term;
use csqp_expr::{CmpOp, Value, ValueType};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Parses an SSDL description from text.
pub fn parse_ssdl(input: &str) -> Result<SsdlDesc, SsdlError> {
    let tokens = lex_ssdl(input)?;
    let mut p = P { toks: tokens, pos: 0 };
    p.desc()
}

struct P {
    toks: Vec<Located>,
    pos: usize,
}

/// Raw (unresolved) rule body symbol.
#[derive(Debug, Clone)]
enum RawSym {
    Ident(String),
    Term(Term),
}

impl P {
    fn peek(&self) -> Option<&SsdlTok> {
        self.toks.get(self.pos).map(|l| &l.tok)
    }

    fn loc(&self) -> (usize, usize) {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|l| (l.line, l.col))
            .unwrap_or((0, 0))
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, SsdlError> {
        let (line, col) = self.loc();
        Err(SsdlError::Syntax { message: message.into(), line, col })
    }

    fn bump(&mut self) -> Option<SsdlTok> {
        let t = self.toks.get(self.pos).map(|l| l.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &SsdlTok, what: &str) -> Result<(), SsdlError> {
        if self.peek() == Some(tok) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, SsdlError> {
        match self.peek().cloned() {
            Some(SsdlTok::Ident(name)) => {
                self.bump();
                Ok(name)
            }
            other => self.err(format!("expected {what}, found {other:?}")),
        }
    }

    fn desc(&mut self) -> Result<SsdlDesc, SsdlError> {
        // Optional `source <name> { ... }` wrapper.
        let mut name = "anonymous".to_string();
        let mut wrapped = false;
        if self.peek() == Some(&SsdlTok::Ident("source".into())) {
            self.bump();
            name = self.ident("source name")?;
            self.expect(&SsdlTok::LBrace, "'{'")?;
            wrapped = true;
        }

        let mut raw_rules: Vec<(String, Vec<RawSym>)> = Vec::new();
        let mut exports: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

        loop {
            match self.peek() {
                None => {
                    if wrapped {
                        return self.err("missing closing '}'");
                    }
                    break;
                }
                Some(SsdlTok::RBrace) if wrapped => {
                    self.bump();
                    if self.peek().is_some() {
                        return self.err("trailing input after '}'");
                    }
                    break;
                }
                Some(SsdlTok::Ident(word)) if word == "attributes" => {
                    self.bump();
                    self.expect(&SsdlTok::ColonColon, "'::'")?;
                    let nt = self.ident("condition nonterminal")?;
                    self.expect(&SsdlTok::Colon, "':'")?;
                    self.expect(&SsdlTok::LBrace, "'{'")?;
                    let mut attrs = BTreeSet::new();
                    // Allow the empty attribute set `{ }`.
                    if self.peek() != Some(&SsdlTok::RBrace) {
                        loop {
                            attrs.insert(self.ident("attribute name")?);
                            match self.peek() {
                                Some(SsdlTok::Comma) => {
                                    self.bump();
                                }
                                _ => break,
                            }
                        }
                    }
                    self.expect(&SsdlTok::RBrace, "'}'")?;
                    self.expect(&SsdlTok::Semi, "';'")?;
                    if exports.insert(nt.clone(), attrs).is_some() {
                        return Err(SsdlError::DuplicateAttributes(nt));
                    }
                }
                Some(SsdlTok::Ident(_)) => {
                    let lhs = self.ident("rule name")?;
                    self.expect(&SsdlTok::Arrow, "'->'")?;
                    loop {
                        let alt = self.alt()?;
                        raw_rules.push((lhs.clone(), alt));
                        match self.peek() {
                            Some(SsdlTok::Pipe) => {
                                self.bump();
                            }
                            Some(SsdlTok::Semi) => {
                                self.bump();
                                break;
                            }
                            other => {
                                return self.err(format!("expected '|' or ';', found {other:?}"))
                            }
                        }
                    }
                }
                other => {
                    return self.err(format!("expected rule or attributes clause, found {other:?}"))
                }
            }
        }

        // Two-pass identifier resolution.
        let defined: HashSet<&str> = raw_rules.iter().map(|(lhs, _)| lhs.as_str()).collect();
        let rules: Vec<Rule> = raw_rules
            .iter()
            .map(|(lhs, body)| Rule {
                lhs: lhs.clone(),
                rhs: body
                    .iter()
                    .map(|s| match s {
                        RawSym::Term(t) => Sym::Term(t.clone()),
                        RawSym::Ident(id) => {
                            if defined.contains(id.as_str()) {
                                Sym::NonTerm(id.clone())
                            } else {
                                Sym::Term(Term::Attr(id.clone()))
                            }
                        }
                    })
                    .collect(),
            })
            .collect();

        SsdlDesc::new(name, rules, exports)
    }

    /// One alternative: a (possibly empty) symbol sequence.
    fn alt(&mut self) -> Result<Vec<RawSym>, SsdlError> {
        let mut out = Vec::new();
        loop {
            let sym = match self.peek().cloned() {
                Some(SsdlTok::Ident(w)) if w == "true" => {
                    self.bump();
                    RawSym::Term(Term::True)
                }
                Some(SsdlTok::Ident(w)) if w == "contains" => {
                    self.bump();
                    RawSym::Term(Term::Op(CmpOp::Contains))
                }
                Some(SsdlTok::Ident(w)) if w == "attributes" => break,
                Some(SsdlTok::Ident(w)) => {
                    self.bump();
                    RawSym::Ident(w)
                }
                Some(SsdlTok::Op(op)) => {
                    self.bump();
                    RawSym::Term(Term::Op(op))
                }
                Some(SsdlTok::Dollar(kind)) => {
                    self.bump();
                    RawSym::Term(match kind.as_str() {
                        "int" => Term::Placeholder(ValueType::Int),
                        "float" => Term::Placeholder(ValueType::Float),
                        "str" => Term::Placeholder(ValueType::Str),
                        "bool" => Term::Placeholder(ValueType::Bool),
                        "any" => Term::AnyConst,
                        other => {
                            let hint = "expected $int/$float/$str/$bool/$any";
                            return self.err(format!("unknown placeholder `${other}` ({hint})"));
                        }
                    })
                }
                Some(SsdlTok::Str(s)) => {
                    self.bump();
                    RawSym::Term(Term::ConstLit(Value::str(s)))
                }
                Some(SsdlTok::Int(i)) => {
                    self.bump();
                    RawSym::Term(Term::ConstLit(Value::Int(i)))
                }
                Some(SsdlTok::Float(x)) => {
                    self.bump();
                    RawSym::Term(Term::ConstLit(Value::Float(x)))
                }
                Some(SsdlTok::Caret) => {
                    self.bump();
                    RawSym::Term(Term::AndSym)
                }
                Some(SsdlTok::Underscore) => {
                    self.bump();
                    RawSym::Term(Term::OrSym)
                }
                Some(SsdlTok::LParen) => {
                    self.bump();
                    RawSym::Term(Term::LParen)
                }
                Some(SsdlTok::RParen) => {
                    self.bump();
                    RawSym::Term(Term::RParen)
                }
                _ => break,
            };
            out.push(sym);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::sym;

    /// The paper's Example 4.1, verbatim in SSDL text.
    const EXAMPLE_4_1: &str = r#"
        source car_dealer {
          s1 -> make = $str ^ price < $int ;
          s2 -> make = $str ^ color = $str ;
          attributes :: s1 : { make, model, year, color } ;
          attributes :: s2 : { make, model, year } ;
        }
    "#;

    #[test]
    fn parses_example_4_1() {
        let d = parse_ssdl(EXAMPLE_4_1).unwrap();
        assert_eq!(d.name, "car_dealer");
        assert_eq!(d.rules.len(), 2);
        assert_eq!(d.exports["s1"].len(), 4);
        assert_eq!(d.exports["s2"].len(), 3);
        assert_eq!(
            d.rules[0].rhs,
            vec![
                sym::attr("make"),
                sym::op(CmpOp::Eq),
                sym::ph(ValueType::Str),
                sym::and(),
                sym::attr("price"),
                sym::op(CmpOp::Lt),
                sym::ph(ValueType::Int),
            ]
        );
    }

    #[test]
    fn alternatives_become_separate_rules() {
        let d = parse_ssdl("s1 -> make = $str | color = $str ;\nattributes :: s1 : { make } ;")
            .unwrap();
        assert_eq!(d.rules.len(), 2);
        assert_eq!(d.rules[0].lhs, "s1");
        assert_eq!(d.rules[1].lhs, "s1");
    }

    #[test]
    fn recursive_list_rule() {
        let d = parse_ssdl(
            "s1 -> ( sizes ) ;\n\
             sizes -> size = $str | size = $str _ sizes ;\n\
             attributes :: s1 : { size, model } ;",
        )
        .unwrap();
        assert_eq!(d.rules.len(), 3);
        // `sizes` resolved as nonterminal, `size` as attribute.
        assert_eq!(d.rules[0].rhs[1], sym::nt("sizes"));
        assert_eq!(d.rules[1].rhs[0], sym::attr("size"));
    }

    #[test]
    fn literal_constants_and_true() {
        let d = parse_ssdl(
            "s1 -> style = \"sedan\" ^ price <= 20000 ;\n\
             s2 -> true ;\n\
             attributes :: s1 : { style } ;\n\
             attributes :: s2 : { style, price } ;",
        )
        .unwrap();
        assert_eq!(d.rules[0].rhs[2], sym::lit("sedan"));
        assert_eq!(d.rules[0].rhs[6], sym::lit(20000i64));
        assert_eq!(d.rules[1].rhs, vec![sym::tru()]);
    }

    #[test]
    fn contains_operator() {
        let d = parse_ssdl("s1 -> title contains $str ;\nattributes :: s1 : { title } ;").unwrap();
        assert_eq!(d.rules[0].rhs[1], sym::op(CmpOp::Contains));
    }

    #[test]
    fn unwrapped_description() {
        let d = parse_ssdl("s1 -> a = $int ;\nattributes :: s1 : { a } ;").unwrap();
        assert_eq!(d.name, "anonymous");
    }

    #[test]
    fn round_trips_through_to_text() {
        let d = parse_ssdl(EXAMPLE_4_1).unwrap();
        let text = d.to_text();
        let d2 = parse_ssdl(&text).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn duplicate_attributes_rejected() {
        let e =
            parse_ssdl("s1 -> a = $int ;\nattributes :: s1 : { a } ;\nattributes :: s1 : { a } ;")
                .unwrap_err();
        assert_eq!(e, SsdlError::DuplicateAttributes("s1".into()));
    }

    #[test]
    fn unknown_placeholder_rejected() {
        let e = parse_ssdl("s1 -> a = $nope ;\nattributes :: s1 : { a } ;").unwrap_err();
        assert!(matches!(e, SsdlError::Syntax { .. }), "{e}");
    }

    #[test]
    fn missing_semicolon_rejected() {
        let e = parse_ssdl("s1 -> a = $int\nattributes :: s1 : { a } ;").unwrap_err();
        assert!(matches!(e, SsdlError::Syntax { .. }), "{e}");
    }

    #[test]
    fn missing_close_brace_rejected() {
        let e = parse_ssdl("source x {\ns1 -> a = $int ;\nattributes :: s1 : { a } ;").unwrap_err();
        assert!(matches!(e, SsdlError::Syntax { .. }), "{e}");
    }

    #[test]
    fn empty_attribute_set_allowed() {
        let d = parse_ssdl("s1 -> a = $int ;\nattributes :: s1 : { } ;").unwrap();
        assert!(d.exports["s1"].is_empty());
    }

    #[test]
    fn epsilon_alternative() {
        // `opt -> ^ a = $int | ;` — second alternative empty.
        let d = parse_ssdl(
            "s1 -> b = $int opt ;\nopt -> ^ a = $int | ;\nattributes :: s1 : { a, b } ;",
        )
        .unwrap();
        assert_eq!(d.rules.len(), 3);
        assert!(d.rules[2].rhs.is_empty());
    }
}
