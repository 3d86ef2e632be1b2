//! Reader and writer for ANML, the Automata Network Markup Language used
//! by the Micron AP toolchain and the ANMLZoo benchmark suite.
//!
//! The supported subset is the one every SOTA automata accelerator paper
//! uses: `<automata-network>` containing `<state-transition-element>`
//! nodes with `symbol-set`, `start`, `<activate-on-match>` and
//! `<report-on-match>` children.
//!
//! # Examples
//!
//! ```
//! use cama_core::anml;
//!
//! let doc = r#"
//! <anml version="1.0">
//!   <automata-network id="demo">
//!     <state-transition-element id="s0" symbol-set="[ab]" start="all-input">
//!       <activate-on-match element="s1"/>
//!     </state-transition-element>
//!     <state-transition-element id="s1" symbol-set="[c]">
//!       <report-on-match reportcode="7"/>
//!     </state-transition-element>
//!   </automata-network>
//! </anml>"#;
//! let nfa = anml::from_str(doc)?;
//! assert_eq!(nfa.len(), 2);
//! let text = anml::to_string(&nfa);
//! let again = anml::from_str(&text)?;
//! assert_eq!(nfa, again);
//! # Ok::<(), cama_core::Error>(())
//! ```

use crate::error::{Error, Result};
use crate::nfa::{Nfa, NfaBuilder, StartKind, SteId};
use crate::regex;
use crate::xml::{self, XmlElement};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parses an ANML document into a homogeneous NFA.
///
/// STE ids are assigned dense indices in document order; the textual ids
/// are preserved only for edge resolution.
///
/// # Errors
///
/// Returns an [`Error::AnmlSyntax`] for malformed XML (a repeated
/// attribute included), [`Error::UnknownState`] for a dangling
/// reference, and [`Error::InvalidAutomaton`] for an invalid symbol set
/// or an STE with more than one `<report-on-match>`.
pub fn from_str(text: &str) -> Result<Nfa> {
    let root = xml::parse_document(text)?;
    let network = if root.name == "automata-network" {
        &root
    } else {
        root.children_named("automata-network")
            .next()
            .ok_or_else(|| Error::AnmlSyntax {
                line: 1,
                message: "no <automata-network> element".to_string(),
            })?
    };

    let name = network
        .attr("id")
        .or_else(|| network.attr("name"))
        .unwrap_or("anml")
        .to_string();
    let mut builder = NfaBuilder::with_name(name);
    let mut ids: HashMap<&str, SteId> = HashMap::new();
    let elements: Vec<&XmlElement> = network.children_named("state-transition-element").collect();

    for element in &elements {
        let text_id = element
            .attr("id")
            .ok_or_else(|| Error::InvalidAutomaton("STE without an id".into()))?;
        let symbol_set = element
            .attr("symbol-set")
            .ok_or_else(|| Error::InvalidAutomaton(format!("STE `{text_id}` lacks symbol-set")))?;
        let class = parse_symbol_set(symbol_set)?;
        let id = builder.add_ste(class);
        match element.attr("start") {
            Some("all-input") => {
                builder.set_start(id, StartKind::AllInput);
            }
            Some("start-of-data") => {
                builder.set_start(id, StartKind::StartOfData);
            }
            Some("none") | None => {}
            Some(other) => {
                return Err(Error::InvalidAutomaton(format!(
                    "STE `{text_id}` has unknown start kind `{other}`"
                )))
            }
        }
        let mut reports = element.children_named("report-on-match");
        if let Some(report) = reports.next() {
            if reports.next().is_some() {
                return Err(Error::InvalidAutomaton(format!(
                    "STE `{text_id}` has more than one report-on-match"
                )));
            }
            let code = report
                .attr("reportcode")
                .map(|c| {
                    c.parse::<u32>().map_err(|_| {
                        Error::InvalidAutomaton(format!("STE `{text_id}` has bad reportcode"))
                    })
                })
                .transpose()?
                .unwrap_or(0);
            builder.set_report(id, code);
        }
        if ids.insert(text_id, id).is_some() {
            return Err(Error::InvalidAutomaton(format!(
                "duplicate STE id `{text_id}`"
            )));
        }
    }

    for element in &elements {
        let text_id = element.attr("id").expect("validated above");
        let from = ids[text_id];
        for activation in element.children_named("activate-on-match") {
            let target = activation.attr("element").ok_or_else(|| {
                Error::InvalidAutomaton(format!(
                    "STE `{text_id}` has activate-on-match without element"
                ))
            })?;
            let to =
                resolve(&ids, target).ok_or_else(|| Error::UnknownState(target.to_string()))?;
            builder.add_edge(from, to);
        }
    }

    builder.build()
}

/// Resolves an `activate-on-match` reference. The exact id wins; only
/// when no STE has it is the reference read as qualified
/// (`network.id:port`): with and then without its `:port` suffix, each
/// `.`-prefix is stripped in turn, so the longest id that names an STE
/// is taken and an id holding `.` or `:` is never mistaken for a
/// shorter one.
fn resolve(ids: &HashMap<&str, SteId>, target: &str) -> Option<SteId> {
    fn suffixes(reference: &str) -> impl Iterator<Item = &str> {
        std::iter::successors(Some(reference), |id| {
            id.split_once('.').map(|(_, rest)| rest)
        })
    }
    let unported = target.rsplit_once(':').map_or(target, |(id, _port)| id);
    suffixes(target)
        .chain(suffixes(unported))
        .find_map(|id| ids.get(id).copied())
}

/// Parses an ANML `symbol-set` expression into a [`SymbolClass`](crate::SymbolClass).
///
/// Accepts `*` (match everything), a bracketed character class, or a
/// bare single symbol / escape.
///
/// # Errors
///
/// Returns a regex syntax error when the expression is not a single
/// character class.
pub fn parse_symbol_set(text: &str) -> Result<crate::symbol::SymbolClass> {
    if text == "*" {
        return Ok(crate::symbol::SymbolClass::FULL);
    }
    match regex::parse(text)? {
        regex::Ast::Class(class) => Ok(class),
        _ => Err(Error::InvalidAutomaton(format!(
            "symbol-set `{text}` is not a single character class"
        ))),
    }
}

/// Serializes an NFA as an ANML document.
pub fn to_string(nfa: &Nfa) -> String {
    let mut out = String::new();
    out.push_str("<anml version=\"1.0\">\n");
    let _ = writeln!(
        out,
        "  <automata-network id=\"{}\">",
        xml::escape(if nfa.name().is_empty() {
            "anml"
        } else {
            nfa.name()
        })
    );
    for (i, ste) in nfa.stes().iter().enumerate() {
        let id = SteId(i as u32);
        let _ = write!(
            out,
            "    <state-transition-element id=\"ste{i}\" symbol-set=\"{}\"",
            xml::escape(&ste.class.to_string())
        );
        match ste.start {
            StartKind::AllInput => out.push_str(" start=\"all-input\""),
            StartKind::StartOfData => out.push_str(" start=\"start-of-data\""),
            StartKind::None => {}
        }
        let successors = nfa.successors(id);
        if successors.is_empty() && ste.report.is_none() {
            out.push_str("/>\n");
            continue;
        }
        out.push_str(">\n");
        if let Some(code) = ste.report {
            let _ = writeln!(out, "      <report-on-match reportcode=\"{code}\"/>");
        }
        for to in successors {
            let _ = writeln!(out, "      <activate-on-match element=\"ste{}\"/>", to.0);
        }
        out.push_str("    </state-transition-element>\n");
    }
    out.push_str("  </automata-network>\n</anml>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolClass;

    fn sample_nfa() -> Nfa {
        let mut b = NfaBuilder::with_name("sample");
        let s0 = b.add_ste(SymbolClass::from_range(b'a', b'b'));
        let s1 = b.add_ste(SymbolClass::singleton(b'e'));
        let s2 = b.add_ste(!SymbolClass::singleton(b'\n'));
        b.set_start(s0, StartKind::AllInput);
        b.set_start(s1, StartKind::StartOfData);
        b.set_report(s2, 3);
        b.add_edge(s0, s1);
        b.add_edge(s1, s1);
        b.add_edge(s1, s2);
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let nfa = sample_nfa();
        let text = to_string(&nfa);
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed.len(), nfa.len());
        assert_eq!(parsed.num_edges(), nfa.num_edges());
        for i in 0..nfa.len() {
            let id = SteId(i as u32);
            assert_eq!(parsed.ste(id).class, nfa.ste(id).class);
            assert_eq!(parsed.ste(id).start, nfa.ste(id).start);
            assert_eq!(parsed.ste(id).report, nfa.ste(id).report);
            assert_eq!(parsed.successors(id), nfa.successors(id));
        }
    }

    #[test]
    fn parses_wildcard_and_wrapped_network() {
        let doc = r#"<automata-network id="w">
          <state-transition-element id="a" symbol-set="*" start="all-input"/>
        </automata-network>"#;
        let nfa = from_str(doc).unwrap();
        assert!(nfa.ste(SteId(0)).class.is_full());
    }

    #[test]
    fn dangling_reference_is_an_error() {
        let doc = r#"<automata-network id="w">
          <state-transition-element id="a" symbol-set="[x]" start="all-input">
            <activate-on-match element="ghost"/>
          </state-transition-element>
        </automata-network>"#;
        assert!(matches!(from_str(doc), Err(Error::UnknownState(_))));
    }

    #[test]
    fn duplicate_ids_are_an_error() {
        let doc = r#"<automata-network id="w">
          <state-transition-element id="a" symbol-set="[x]" start="all-input"/>
          <state-transition-element id="a" symbol-set="[y]"/>
        </automata-network>"#;
        assert!(from_str(doc).is_err());
    }

    #[test]
    fn missing_network_is_an_error() {
        assert!(from_str("<anml version=\"1.0\"/>").is_err());
    }

    #[test]
    fn default_reportcode_is_zero() {
        let doc = r#"<automata-network id="w">
          <state-transition-element id="a" symbol-set="[x]" start="all-input">
            <report-on-match/>
          </state-transition-element>
        </automata-network>"#;
        let nfa = from_str(doc).unwrap();
        assert_eq!(nfa.ste(SteId(0)).report, Some(0));
    }

    #[test]
    fn parse_symbol_set_variants() {
        assert_eq!(parse_symbol_set("*").unwrap(), SymbolClass::FULL);
        assert_eq!(parse_symbol_set("x").unwrap(), SymbolClass::singleton(b'x'));
        assert_eq!(parse_symbol_set("[0-9]").unwrap().len(), 10);
        assert!(parse_symbol_set("ab").is_err());
    }

    #[test]
    fn references_resolve_by_exact_id_before_stripping_qualifiers() {
        let doc = |with_b: bool| {
            format!(
                r#"<automata-network id="w">
                  <state-transition-element id="x" symbol-set="[x]" start="all-input">
                    <activate-on-match element="a.b"/>
                    <activate-on-match element="p:q"/>
                    <activate-on-match element="w.a.b:in"/>
                  </state-transition-element>
                  <state-transition-element id="a.b" symbol-set="[y]"/>
                  <state-transition-element id="p:q" symbol-set="[z]"/>
                  {}
                </automata-network>"#,
                if with_b {
                    r#"<state-transition-element id="b" symbol-set="[b]"/>"#
                } else {
                    ""
                }
            )
        };
        for with_b in [true, false] {
            let nfa = from_str(&doc(with_b)).unwrap();
            assert_eq!(
                nfa.successors(SteId(0)),
                &[SteId(1), SteId(2)],
                "with_b {with_b}"
            );
        }
        // A dangling reference is reported as written.
        let dangling = doc(false).replace(r#"element="p:q""#, r#"element="w.ghost:in""#);
        assert_eq!(
            from_str(&dangling),
            Err(Error::UnknownState("w.ghost:in".into()))
        );
    }

    #[test]
    fn activation_without_element_names_its_ste() {
        let doc = r#"<automata-network id="w">
          <state-transition-element id="src" symbol-set="[x]" start="all-input">
            <activate-on-match/>
          </state-transition-element>
        </automata-network>"#;
        match from_str(doc) {
            Err(Error::InvalidAutomaton(message)) => {
                assert!(message.contains("`src`"), "{message}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn second_report_on_match_is_an_error() {
        let doc = r#"<automata-network id="w">
          <state-transition-element id="r" symbol-set="[x]" start="all-input">
            <report-on-match reportcode="1"/>
            <report-on-match reportcode="bogus"/>
          </state-transition-element>
        </automata-network>"#;
        match from_str(doc) {
            Err(Error::InvalidAutomaton(message)) => assert!(message.contains("`r`"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_attribute_is_a_syntax_error() {
        let doc = r#"<automata-network id="w">
          <state-transition-element id="a" symbol-set="[x]" symbol-set="[y]"/>
        </automata-network>"#;
        assert!(matches!(
            from_str(doc),
            Err(Error::AnmlSyntax { line: 2, .. })
        ));
    }

    #[test]
    fn qualified_references_resolve() {
        let doc = r#"<automata-network id="w">
          <state-transition-element id="a" symbol-set="[x]" start="all-input">
            <activate-on-match element="w.b"/>
          </state-transition-element>
          <state-transition-element id="b" symbol-set="[y]"/>
        </automata-network>"#;
        let nfa = from_str(doc).unwrap();
        assert_eq!(nfa.successors(SteId(0)), &[SteId(1)]);
    }
}
