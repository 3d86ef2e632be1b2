//! Reader and writer for MNRL, the JSON-based automata interchange format
//! from the MNCaRT ecosystem (used alongside ANML by VASim, Impala, eAP,
//! and CAMA's own toolchain).
//!
//! Only homogeneous-state (`hState`) networks are supported, which is the
//! node type every benchmark in ANMLZoo uses.
//!
//! # Examples
//!
//! ```
//! use cama_core::{mnrl, regex};
//!
//! let nfa = regex::compile("ab|cd")?;
//! let text = mnrl::to_string(&nfa);
//! let again = mnrl::from_str(&text)?;
//! assert_eq!(nfa.len(), again.len());
//! # Ok::<(), cama_core::Error>(())
//! ```

use crate::anml::parse_symbol_set;
use crate::error::{Error, Result};
use crate::json::{self, JsonValue};
use crate::nfa::{Nfa, NfaBuilder, StartKind, SteId};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Parses an MNRL document into a homogeneous NFA.
///
/// # Errors
///
/// Returns [`Error::MnrlSyntax`] for malformed JSON and
/// [`Error::InvalidAutomaton`] / [`Error::UnknownState`] for structural
/// problems (non-`hState` nodes, dangling references, bad symbol sets)
/// and for a present field of the wrong kind: `type` and `enable` must
/// be strings, `report` a boolean, `outputConnections` an array of port
/// objects, each port's `activate` an array of objects with a string
/// `id`, and `attributes.reportId` a whole number in `0..=u32::MAX`.
/// Absent fields take their defaults.
pub fn from_str(text: &str) -> Result<Nfa> {
    let doc = json::parse(text)?;
    let name = doc.get("id").and_then(JsonValue::as_str).unwrap_or("mnrl");
    let nodes = doc
        .get("nodes")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| Error::InvalidAutomaton("MNRL document lacks a `nodes` array".into()))?;

    let mut builder = NfaBuilder::with_name(name);
    let mut ids: HashMap<String, SteId> = HashMap::new();

    for node in nodes {
        let node_id = node
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| Error::InvalidAutomaton("MNRL node without id".into()))?;
        let node_type = field(node, "type", node_id, "a string", JsonValue::as_str)?;
        let node_type = node_type.unwrap_or("hState");
        if node_type != "hState" {
            return Err(Error::InvalidAutomaton(format!(
                "unsupported MNRL node type `{node_type}`"
            )));
        }
        let lacks_symbol_set =
            || Error::InvalidAutomaton(format!("node `{node_id}` lacks attributes.symbolSet"));
        let attributes = node.get("attributes").ok_or_else(lacks_symbol_set)?;
        let symbol_set = attributes
            .get("symbolSet")
            .and_then(JsonValue::as_str)
            .ok_or_else(lacks_symbol_set)?;
        let class = parse_symbol_set(symbol_set)?;
        let id = builder.add_ste(class);

        match field(node, "enable", node_id, "a string", JsonValue::as_str)? {
            Some("onActivateIn") | None => {}
            Some("onStartAndActivateIn") => {
                builder.set_start(id, StartKind::StartOfData);
            }
            Some("always") => {
                builder.set_start(id, StartKind::AllInput);
            }
            Some(other) => {
                return Err(Error::InvalidAutomaton(format!(
                    "node `{node_id}` has unsupported enable `{other}`"
                )))
            }
        }

        let report = field(node, "report", node_id, "a boolean", JsonValue::as_bool)?;
        let whole = "a whole number in 0..=4294967295";
        let code = field(attributes, "reportId", node_id, whole, as_report_id)?;
        if report == Some(true) {
            builder.set_report(id, code.unwrap_or(0));
        }

        if ids.insert(node_id.to_string(), id).is_some() {
            return Err(Error::InvalidAutomaton(format!(
                "duplicate MNRL node id `{node_id}`"
            )));
        }
    }

    for node in nodes {
        let node_id = node.get("id").and_then(JsonValue::as_str).expect("checked");
        let from = ids[node_id];
        let array = JsonValue::as_array;
        let ports = field(node, "outputConnections", node_id, "an array", array)?;
        let malformed = |what: &str| Error::InvalidAutomaton(format!("node `{node_id}`: {what}"));
        for port in ports.unwrap_or_default() {
            port.as_object()
                .ok_or_else(|| malformed("each `outputConnections` port must be an object"))?;
            let activate = field(port, "activate", node_id, "an array", array)?;
            for target in activate.unwrap_or_default() {
                // `get` reads a non-object as lacking `id`.
                let target_id = target
                    .get("id")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| {
                        malformed("each `activate` entry must be an object with a string `id`")
                    })?;
                let to = *ids
                    .get(target_id)
                    .ok_or_else(|| Error::UnknownState(target_id.to_string()))?;
                builder.add_edge(from, to);
            }
        }
    }

    builder.build()
}

/// `object[key]` read through `as_kind`: `Ok(None)` when the key is
/// absent, an error naming the node when it holds the wrong kind.
fn field<'a, T>(
    object: &'a JsonValue,
    key: &str,
    node_id: &str,
    expected: &str,
    as_kind: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<Option<T>> {
    let Some(value) = object.get(key) else {
        return Ok(None);
    };
    as_kind(value).map(Some).ok_or_else(|| {
        Error::InvalidAutomaton(format!("node `{node_id}`: `{key}` must be {expected}"))
    })
}

/// A JSON number that is a whole value in `0..=u32::MAX`.
fn as_report_id(value: &JsonValue) -> Option<u32> {
    let n = value.as_f64()?;
    (n.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&n)).then_some(n as u32)
}

/// Serializes an NFA as an MNRL document.
pub fn to_string(nfa: &Nfa) -> String {
    let nodes: Vec<JsonValue> = (0..nfa.len())
        .map(|i| {
            let id = SteId(i as u32);
            let ste = nfa.ste(id);
            let mut node = BTreeMap::new();
            node.insert(
                "id".to_string(),
                JsonValue::from(format!("ste{i}").as_str()),
            );
            node.insert("type".to_string(), JsonValue::from("hState"));
            node.insert(
                "enable".to_string(),
                JsonValue::from(match ste.start {
                    StartKind::None => "onActivateIn",
                    StartKind::StartOfData => "onStartAndActivateIn",
                    StartKind::AllInput => "always",
                }),
            );
            node.insert("report".to_string(), JsonValue::from(ste.is_reporting()));

            let mut attrs = BTreeMap::new();
            attrs.insert(
                "symbolSet".to_string(),
                JsonValue::from(ste.class.to_string().as_str()),
            );
            if let Some(code) = ste.report {
                attrs.insert("reportId".to_string(), JsonValue::from(code as f64));
            }
            node.insert("attributes".to_string(), JsonValue::Object(attrs));

            let activate: Vec<JsonValue> = nfa
                .successors(id)
                .iter()
                .map(|to| {
                    let mut entry = BTreeMap::new();
                    entry.insert(
                        "id".to_string(),
                        JsonValue::from(format!("ste{}", to.0).as_str()),
                    );
                    entry.insert("portId".to_string(), JsonValue::from("i"));
                    JsonValue::Object(entry)
                })
                .collect();
            let mut port = BTreeMap::new();
            port.insert("id".to_string(), JsonValue::from("o"));
            port.insert("activate".to_string(), JsonValue::Array(activate));
            node.insert(
                "outputConnections".to_string(),
                JsonValue::Array(vec![JsonValue::Object(port)]),
            );
            JsonValue::Object(node)
        })
        .collect();

    let mut doc = BTreeMap::new();
    doc.insert(
        "id".to_string(),
        JsonValue::from(if nfa.name().is_empty() {
            "mnrl"
        } else {
            nfa.name()
        }),
    );
    doc.insert("nodes".to_string(), JsonValue::Array(nodes));
    JsonValue::Object(doc).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolClass;

    fn sample() -> Nfa {
        let mut b = NfaBuilder::with_name("m");
        let s0 = b.add_ste(SymbolClass::from_range(b'0', b'9'));
        let s1 = b.add_ste(SymbolClass::singleton(b'!'));
        b.set_start(s0, StartKind::AllInput);
        b.set_report(s1, 11);
        b.add_edge(s0, s1);
        b.add_edge(s0, s0);
        b.build().unwrap()
    }

    #[test]
    fn roundtrip() {
        let nfa = sample();
        let text = to_string(&nfa);
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed.len(), nfa.len());
        assert_eq!(parsed.num_edges(), nfa.num_edges());
        for i in 0..nfa.len() {
            let id = SteId(i as u32);
            assert_eq!(parsed.ste(id), nfa.ste(id));
            assert_eq!(parsed.successors(id), nfa.successors(id));
        }
        assert_eq!(parsed.name(), "m");
    }

    #[test]
    fn rejects_non_hstate() {
        let doc = r#"{"id":"x","nodes":[{"id":"a","type":"upCounter",
            "attributes":{"symbolSet":"[a]"}}]}"#;
        assert!(from_str(doc).is_err());
    }

    #[test]
    fn rejects_dangling_edges() {
        let doc = r#"{"id":"x","nodes":[{"id":"a","type":"hState","enable":"always",
            "attributes":{"symbolSet":"[a]"},
            "outputConnections":[{"id":"o","activate":[{"id":"nope"}]}]}]}"#;
        assert!(matches!(from_str(doc), Err(Error::UnknownState(_))));
    }

    #[test]
    fn missing_nodes_is_an_error() {
        assert!(from_str(r#"{"id":"x"}"#).is_err());
    }

    #[test]
    fn default_enable_is_on_activate_in() {
        let doc = r#"{"id":"x","nodes":[
            {"id":"a","type":"hState","enable":"always","attributes":{"symbolSet":"[a]"}},
            {"id":"b","type":"hState","attributes":{"symbolSet":"[b]"}}]}"#;
        let nfa = from_str(doc).unwrap();
        assert_eq!(nfa.ste(SteId(1)).start, StartKind::None);
    }

    /// A one-node document: untyped node `n` (an `hState`) carries `fields`
    /// before its `attributes`, and `attrs` after the symbol set inside them.
    fn one_node(fields: &str, attrs: &str) -> String {
        format!(
            r#"{{"id":"x","nodes":[{{"id":"n",{fields}
            "attributes":{{"symbolSet":"[a]"{attrs}}}}}]}}"#
        )
    }

    #[test]
    fn malformed_fields_are_rejected_naming_the_node() {
        let reporting = r#""enable":"always","report":true,"#;
        let bad_ids = ["-1", "1.5", "4294967296", "1e300", r#""7""#, r#""rule-12""#];
        let mut docs: Vec<String> = bad_ids
            .iter()
            .chain(&["null", "true"])
            .map(|id| one_node(reporting, &format!(r#","reportId":{id}"#)))
            .collect();
        for fields in [
            r#""report":"true","#,
            r#""report":1,"#,
            r#""enable":5,"#,
            r#""enable":null,"#,
            r#""outputConnections":{"id":"o","activate":[{"id":"nope"}]},"#,
            r#""outputConnections":"o","#,
            r#""outputConnections":[{"id":"o","activate":{"id":"nope"}}],"#,
            r#""outputConnections":[{"id":"o","activate":null}],"#,
            r#""outputConnections":[5],"#,
            r#""outputConnections":[null],"#,
            r#""outputConnections":[{"id":"o","activate":[5]}],"#,
            r#""outputConnections":[{"id":"o","activate":[{"id":7}]}],"#,
            r#""type":5,"#,
            r#""type":null,"#,
            r#""type":true,"#,
        ] {
            docs.push(one_node(fields, ""));
        }
        for doc in &docs {
            match from_str(doc) {
                Err(Error::InvalidAutomaton(message)) => {
                    assert!(message.contains("`n`"), "{doc}: {message}")
                }
                other => panic!("{doc}: expected InvalidAutomaton, got {other:?}"),
            }
        }

        for code in [0, u32::MAX] {
            let nfa = from_str(&one_node(reporting, &format!(r#","reportId":{code}"#))).unwrap();
            assert_eq!(nfa.ste(SteId(0)).report, Some(code));
            assert_eq!(nfa.ste(SteId(0)).start, StartKind::AllInput);
        }
        // Absent fields keep their defaults: no start, no report, and
        // report code 0 for a reporting node without `reportId`.
        let bare = from_str(&one_node("", "")).unwrap();
        assert_eq!(bare.ste(SteId(0)).start, StartKind::None);
        assert_eq!(bare.ste(SteId(0)).report, None);
        let unnumbered = from_str(&one_node(r#""report":true,"#, "")).unwrap();
        assert_eq!(unnumbered.ste(SteId(0)).report, Some(0));
    }
}
