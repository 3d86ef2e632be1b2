//! A minimal XML reader/writer, sufficient for the ANML dialect.
//!
//! ANML documents use a small XML subset: elements, attributes, text,
//! comments, and an optional declaration. Implementing that subset here
//! keeps the workspace inside the allowed dependency set. This is not a
//! general-purpose XML parser (no namespaces, DTDs, or CDATA).

use crate::error::{Error, Result};
use crate::MAX_NESTING;
use std::fmt::Write as _;

/// One parsed XML element with its attributes and children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlElement {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order (text nodes are discarded —
    /// ANML carries no meaningful text content).
    pub children: Vec<XmlElement>,
}

impl XmlElement {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Returns the value of the attribute with the given name (a parsed
    /// element holds each name at most once).
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Iterates over child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Serializes the element (and its subtree) as indented XML.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let _ = write!(out, "{indent}<{}", self.name);
        for (k, v) in &self.attrs {
            let _ = write!(out, " {k}=\"{}\"", escape(v));
        }
        if self.children.is_empty() {
            out.push_str("/>\n");
        } else {
            out.push_str(">\n");
            for child in &self.children {
                child.write_into(out, depth + 1);
            }
            let _ = writeln!(out, "{indent}</{}>", self.name);
        }
    }
}

/// Escapes text for use inside an attribute value or text node.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

/// Parses a document and returns its root element.
///
/// # Errors
///
/// Returns [`Error::AnmlSyntax`] (with a line number) for malformed
/// input: mismatched tags, unterminated constructs, missing root, a
/// repeated attribute name in one tag, or elements nested deeper than
/// [`MAX_NESTING`].
pub fn parse_document(input: &str) -> Result<XmlElement> {
    let mut parser = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_prolog()?;
    let root = parser.nested_element()?;
    parser.skip_misc()?;
    if parser.pos != parser.input.len() {
        return Err(parser.error("content after the root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Elements open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn line(&self) -> usize {
        1 + self.input[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }

    fn error(&self, message: &str) -> Error {
        Error::AnmlSyntax {
            line: self.line(),
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, prefix: &[u8]) -> bool {
        self.input[self.pos..].starts_with(prefix)
    }

    fn skip_whitespace(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, terminator: &[u8]) -> Result<()> {
        while self.pos < self.input.len() {
            if self.starts_with(terminator) {
                self.pos += terminator.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.error("unterminated construct"))
    }

    fn skip_prolog(&mut self) -> Result<()> {
        loop {
            self.skip_whitespace();
            if self.starts_with(b"<?") {
                self.skip_until(b"?>")?;
            } else if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
            } else if self.starts_with(b"<!") {
                self.skip_until(b">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_misc(&mut self) -> Result<()> {
        loop {
            self.skip_whitespace();
            if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b':' | b'.'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    /// Parses one element a level deeper, within [`MAX_NESTING`].
    fn nested_element(&mut self) -> Result<XmlElement> {
        if self.depth == MAX_NESTING {
            return Err(self.error(&format!("elements nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let element = self.element();
        self.depth -= 1;
        element
    }

    fn element(&mut self) -> Result<XmlElement> {
        self.skip_whitespace();
        if self.peek() != Some(b'<') {
            return Err(self.error("expected `<`"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut element = XmlElement::new(name);

        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.error("expected `>` after `/`"));
                    }
                    self.pos += 1;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    // Unique Att Spec: a repeated attribute makes the
                    // document not well-formed.
                    if element.attr(&key).is_some() {
                        return Err(self.error(&format!("duplicate attribute `{key}`")));
                    }
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return Err(self.error("expected `=` in attribute"));
                    }
                    self.pos += 1;
                    self.skip_whitespace();
                    let value = self.quoted_value()?;
                    element.attrs.push((key, value));
                }
                None => return Err(self.error("unterminated start tag")),
            }
        }

        // Children and the end tag.
        loop {
            // Text content is skipped; ANML has none of semantic value.
            while self.peek().is_some_and(|b| b != b'<') {
                self.pos += 1;
            }
            if self.peek().is_none() {
                return Err(self.error("unterminated element"));
            }
            if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
                continue;
            }
            if self.starts_with(b"</") {
                self.pos += 2;
                let end_name = self.name()?;
                if end_name != element.name {
                    return Err(self.error(&format!(
                        "mismatched end tag `</{end_name}>` for `<{}>`",
                        element.name
                    )));
                }
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return Err(self.error("expected `>` in end tag"));
                }
                self.pos += 1;
                return Ok(element);
            }
            element.children.push(self.nested_element()?);
        }
    }

    fn quoted_value(&mut self) -> Result<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected a quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        while self.peek().is_some_and(|b| b != quote) {
            self.pos += 1;
        }
        if self.peek().is_none() {
            return Err(self.error("unterminated attribute value"));
        }
        let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
        self.pos += 1;
        unescape(&raw).map_err(|message| self.error(&message))
    }
}

fn unescape(raw: &str) -> std::result::Result<String, String> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &raw[i + 1..];
        let end = rest
            .find(';')
            .ok_or_else(|| "unterminated entity".to_string())?;
        let entity = &rest[..end];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad numeric entity `&{entity};`"))?;
                out.push(char::from_u32(code).ok_or("entity out of range")?);
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..]
                    .parse()
                    .map_err(|_| format!("bad numeric entity `&{entity};`"))?;
                out.push(char::from_u32(code).ok_or("entity out of range")?);
            }
            _ => return Err(format!("unknown entity `&{entity};`")),
        }
        for _ in 0..end + 1 {
            chars.next();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_element() {
        let root = parse_document("<a/>").unwrap();
        assert_eq!(root.name, "a");
        assert!(root.children.is_empty());
    }

    #[test]
    fn parse_nested_with_attributes() {
        let doc = r#"<outer id="x"><inner value="1"/><inner value="2"/></outer>"#;
        let root = parse_document(doc).unwrap();
        assert_eq!(root.attr("id"), Some("x"));
        assert_eq!(root.children_named("inner").count(), 2);
        assert_eq!(root.children[1].attr("value"), Some("2"));
    }

    #[test]
    fn declaration_and_comments_are_skipped() {
        let doc = "<?xml version=\"1.0\"?>\n<!-- hi -->\n<r><!-- c --><x/></r>\n<!-- bye -->";
        let root = parse_document(doc).unwrap();
        assert_eq!(root.name, "r");
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn entities_are_unescaped() {
        let doc = r#"<a v="&lt;&amp;&gt;&quot;&apos;&#65;&#x42;"/>"#;
        let root = parse_document(doc).unwrap();
        assert_eq!(root.attr("v"), Some("<&>\"'AB"));
    }

    #[test]
    fn mismatched_tags_error_with_line() {
        let err = parse_document("<a>\n<b>\n</a>").unwrap_err();
        match err {
            Error::AnmlSyntax { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse_document("").is_err());
        assert!(parse_document("<a").is_err());
        assert!(parse_document("<a></b>").is_err());
        assert!(parse_document("<a/><b/>").is_err());
        assert!(parse_document("<a v=1/>").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| {
            let lines = "<a>\n".repeat(depth);
            format!("{lines}{}", "</a>".repeat(depth))
        };
        assert!(parse_document(&nested(MAX_NESTING)).is_ok());
        assert!(matches!(
            parse_document(&nested(MAX_NESTING + 1)),
            Err(Error::AnmlSyntax { line, .. }) if line == MAX_NESTING + 1
        ));
        assert!(parse_document(&"<a>".repeat(100_000)).is_err());
    }

    #[test]
    fn writer_roundtrips() {
        let mut root = XmlElement::new("automata-network");
        root.attrs.push(("name".into(), "t<est".into()));
        let mut child = XmlElement::new("state-transition-element");
        child.attrs.push(("symbol-set".into(), "[a-z]".into()));
        root.children.push(child);
        let text = root.to_xml();
        let parsed = parse_document(&text).unwrap();
        assert_eq!(parsed, root);
    }

    #[test]
    fn duplicate_attributes_error_with_line() {
        let err = parse_document("<a>\n<b v=\"1\" w=\"2\"\n v='1'/>\n</a>").unwrap_err();
        match err {
            Error::AnmlSyntax { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("`v`"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Distinct names, even ones sharing a prefix, are fine.
        assert!(parse_document(r#"<a v="1" vv="2" v-w="3"/>"#).is_ok());
    }

    #[test]
    fn single_quoted_attributes() {
        let root = parse_document("<a v='q'/>").unwrap();
        assert_eq!(root.attr("v"), Some("q"));
    }
}
