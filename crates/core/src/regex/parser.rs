//! Recursive-descent regex parser producing an [`Ast`].

use super::ast::Ast;
use crate::error::{Error, Result};
use crate::symbol::SymbolClass;
use crate::MAX_NESTING;

/// Hard ceiling on positions created by desugaring counted repetitions;
/// prevents `a{1000}{1000}` style blowups.
pub const DEFAULT_REPEAT_BUDGET: usize = 1 << 16;

/// Parses `pattern` into an [`Ast`].
///
/// # Errors
///
/// Returns [`Error::RegexSyntax`] with a byte offset for malformed input
/// (including groups and stacked quantifiers nested deeper than
/// [`MAX_NESTING`]), or [`Error::RegexTooLarge`] when counted
/// repetitions expand beyond [`DEFAULT_REPEAT_BUDGET`] positions.
///
/// # Examples
///
/// ```
/// use cama_core::regex::parse;
///
/// let ast = parse("[a-c]+x")?;
/// assert_eq!(ast.num_positions(), 2);
/// # Ok::<(), cama_core::Error>(())
/// ```
pub fn parse(pattern: &str) -> Result<Ast> {
    let mut parser = Parser {
        input: pattern.as_bytes(),
        pos: 0,
        groups: 0,
    };
    let (ast, _) = parser.alternation()?;
    if parser.pos != parser.input.len() {
        return Err(parser.error("unexpected trailing input"));
    }
    if ast.num_positions() > DEFAULT_REPEAT_BUDGET {
        return Err(Error::RegexTooLarge {
            limit: DEFAULT_REPEAT_BUDGET,
        });
    }
    Ok(ast)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Groups open at `pos`.
    groups: usize,
}

/// A parsed subtree with its nesting: the most groups and stacked
/// quantifiers on any path from its root. Open groups plus the nesting
/// of the subtree being parsed never exceed [`MAX_NESTING`].
type Nested = (Ast, usize);

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error::RegexSyntax {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, expected: u8) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Fails once `nesting` more levels under the open groups would
    /// exceed [`MAX_NESTING`].
    fn check_nesting(&self, nesting: usize) -> Result<()> {
        if self.groups + nesting > MAX_NESTING {
            return Err(self.error(&format!(
                "groups and quantifiers nested deeper than {MAX_NESTING} levels"
            )));
        }
        Ok(())
    }

    fn alternation(&mut self) -> Result<Nested> {
        let (mut ast, mut nesting) = self.concatenation()?;
        while self.eat(b'|') {
            let (rhs, rhs_nesting) = self.concatenation()?;
            ast = Ast::alternate(ast, rhs);
            nesting = nesting.max(rhs_nesting);
        }
        Ok((ast, nesting))
    }

    fn concatenation(&mut self) -> Result<Nested> {
        let (mut ast, mut nesting) = (Ast::Empty, 0);
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            let (atom, atom_nesting) = self.repetition()?;
            ast = Ast::concat(ast, atom);
            nesting = nesting.max(atom_nesting);
        }
        Ok((ast, nesting))
    }

    fn repetition(&mut self) -> Result<Nested> {
        let (mut ast, mut nesting) = self.atom()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    ast = Ast::Star(Box::new(ast));
                }
                Some(b'+') => {
                    self.pos += 1;
                    ast = Ast::Plus(Box::new(ast));
                }
                Some(b'?') => {
                    self.pos += 1;
                    ast = Ast::Optional(Box::new(ast));
                }
                Some(b'{') => {
                    self.pos += 1;
                    let (min, max) = self.counted_bounds()?;
                    ast = desugar_repeat(ast, min, max, self.pos)?;
                }
                _ => break,
            }
            nesting += 1;
            self.check_nesting(nesting)?;
        }
        Ok((ast, nesting))
    }

    fn counted_bounds(&mut self) -> Result<(u32, Option<u32>)> {
        let min = self.number()?;
        let max = if self.eat(b',') {
            if self.peek() == Some(b'}') {
                None
            } else {
                Some(self.number()?)
            }
        } else {
            Some(min)
        };
        if !self.eat(b'}') {
            return Err(self.error("expected `}` to close counted repetition"));
        }
        if let Some(max) = max {
            if max < min {
                return Err(self.error("counted repetition has max < min"));
            }
        }
        Ok((min, max))
    }

    fn number(&mut self) -> Result<u32> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .expect("digits are ascii")
            .parse()
            .map_err(|_| self.error("repetition count overflows"))
    }

    fn atom(&mut self) -> Result<Nested> {
        let class = match self.bump() {
            Some(b'(') => {
                self.groups += 1;
                self.check_nesting(0)?;
                let (inner, nesting) = self.alternation()?;
                if !self.eat(b')') {
                    return Err(self.error("expected `)`"));
                }
                self.groups -= 1;
                return Ok((inner, nesting + 1));
            }
            Some(b'[') => self.class()?,
            Some(b'.') => SymbolClass::FULL,
            Some(b'\\') => self.escape()?,
            Some(b'*') | Some(b'+') | Some(b'?') | Some(b'{') => {
                self.pos -= 1;
                return Err(self.error("quantifier with nothing to repeat"));
            }
            Some(b')') => {
                self.pos -= 1;
                return Err(self.error("unmatched `)`"));
            }
            Some(b'^') | Some(b'$') => {
                // Anchors are handled by compile options (start-of-data
                // start states); inline anchors are not supported.
                self.pos -= 1;
                return Err(
                    self.error("inline anchors are not supported; use CompileOptions::anchored")
                );
            }
            Some(literal) => SymbolClass::singleton(literal),
            None => return Err(self.error("unexpected end of pattern")),
        };
        Ok((Ast::Class(class), 0))
    }

    fn escape(&mut self) -> Result<SymbolClass> {
        match self.bump() {
            Some(b'n') => Ok(SymbolClass::singleton(b'\n')),
            Some(b'r') => Ok(SymbolClass::singleton(b'\r')),
            Some(b't') => Ok(SymbolClass::singleton(b'\t')),
            Some(b'0') => Ok(SymbolClass::singleton(0)),
            Some(b'd') => Ok(class_digit()),
            Some(b'D') => Ok(!class_digit()),
            Some(b'w') => Ok(class_word()),
            Some(b'W') => Ok(!class_word()),
            Some(b's') => Ok(class_space()),
            Some(b'S') => Ok(!class_space()),
            Some(b'x') => {
                let hi = self.hex_digit()?;
                let lo = self.hex_digit()?;
                Ok(SymbolClass::singleton(hi * 16 + lo))
            }
            Some(punct) => Ok(SymbolClass::singleton(punct)),
            None => Err(self.error("dangling escape at end of pattern")),
        }
    }

    fn hex_digit(&mut self) -> Result<u8> {
        match self.bump() {
            Some(b) if b.is_ascii_digit() => Ok(b - b'0'),
            Some(b) if (b'a'..=b'f').contains(&b) => Ok(b - b'a' + 10),
            Some(b) if (b'A'..=b'F').contains(&b) => Ok(b - b'A' + 10),
            _ => Err(self.error("expected a hex digit after \\x")),
        }
    }

    /// Parses the interior of `[...]`; the opening bracket is consumed.
    fn class(&mut self) -> Result<SymbolClass> {
        let negated = self.eat(b'^');
        let mut class = SymbolClass::EMPTY;
        let mut first = true;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated character class")),
                Some(b']') if !first => {
                    self.pos += 1;
                    break;
                }
                _ => {}
            }
            first = false;
            let lo = self.class_member()?;
            // A range needs a single symbol on the left and a `-` that is
            // not the closing member.
            if self.peek() == Some(b'-')
                && self.input.get(self.pos + 1).copied() != Some(b']')
                && self.input.get(self.pos + 1).is_some()
            {
                if let ClassMember::Symbol(start) = lo {
                    self.pos += 1; // consume '-'
                    match self.class_member()? {
                        ClassMember::Symbol(end) => {
                            if end < start {
                                return Err(self.error("character range is out of order"));
                            }
                            class.extend(start..=end);
                            continue;
                        }
                        ClassMember::Set(_) => {
                            return Err(self.error("class escape cannot close a range"))
                        }
                    }
                }
            }
            match lo {
                ClassMember::Symbol(s) => class.insert(s),
                ClassMember::Set(set) => class = class | set,
            }
        }
        Ok(if negated { !class } else { class })
    }

    fn class_member(&mut self) -> Result<ClassMember> {
        match self.bump() {
            Some(b'\\') => {
                let start = self.pos;
                let set = self.escape()?;
                // Single-symbol escapes can participate in ranges.
                let was_class_escape = matches!(
                    self.input.get(start),
                    Some(b'd' | b'D' | b'w' | b'W' | b's' | b'S')
                );
                if set.len() == 1 && !was_class_escape {
                    Ok(ClassMember::Symbol(set.min_symbol().expect("len is 1")))
                } else {
                    Ok(ClassMember::Set(set))
                }
            }
            Some(b) => Ok(ClassMember::Symbol(b)),
            None => Err(self.error("unterminated character class")),
        }
    }
}

enum ClassMember {
    Symbol(u8),
    Set(SymbolClass),
}

fn class_digit() -> SymbolClass {
    SymbolClass::from_range(b'0', b'9')
}

fn class_word() -> SymbolClass {
    let mut class = class_digit();
    class.extend(b'a'..=b'z');
    class.extend(b'A'..=b'Z');
    class.insert(b'_');
    class
}

fn class_space() -> SymbolClass {
    [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c]
        .into_iter()
        .collect()
}

fn desugar_repeat(ast: Ast, min: u32, max: Option<u32>, offset: usize) -> Result<Ast> {
    let unit = ast.num_positions().max(1);
    let copies = max.unwrap_or(min.max(1)) as usize;
    if unit.saturating_mul(copies) > DEFAULT_REPEAT_BUDGET {
        return Err(Error::RegexTooLarge {
            limit: DEFAULT_REPEAT_BUDGET,
        });
    }
    let _ = offset;
    let mut result = Ast::Empty;
    for _ in 0..min {
        result = Ast::concat(result, ast.clone());
    }
    match max {
        None => {
            // {m,}: m-1 copies then one Plus (or a Star when m == 0).
            if min == 0 {
                result = Ast::Star(Box::new(ast));
            } else {
                result = match result {
                    Ast::Concat(mut children) => {
                        let last = children.pop().expect("min >= 1");
                        let plus = Ast::Plus(Box::new(last));
                        children
                            .into_iter()
                            .fold(Ast::Empty, Ast::concat)
                            .pipe_concat(plus)
                    }
                    single => Ast::Plus(Box::new(single)),
                };
            }
        }
        Some(max) => {
            for _ in min..max {
                result = Ast::concat(result, Ast::Optional(Box::new(ast.clone())));
            }
        }
    }
    Ok(result)
}

trait PipeConcat {
    fn pipe_concat(self, rhs: Ast) -> Ast;
}

impl PipeConcat for Ast {
    fn pipe_concat(self, rhs: Ast) -> Ast {
        Ast::concat(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(c: u8) -> Ast {
        Ast::Class(SymbolClass::singleton(c))
    }

    #[test]
    fn literals_and_concat() {
        assert_eq!(
            parse("ab").unwrap(),
            Ast::Concat(vec![lit(b'a'), lit(b'b')])
        );
        assert_eq!(parse("a").unwrap(), lit(b'a'));
    }

    #[test]
    fn alternation_and_groups() {
        let ast = parse("(a|b)c").unwrap();
        assert_eq!(
            ast,
            Ast::Concat(vec![Ast::Alternate(vec![lit(b'a'), lit(b'b')]), lit(b'c')])
        );
    }

    #[test]
    fn quantifiers() {
        assert_eq!(parse("a*").unwrap(), Ast::Star(Box::new(lit(b'a'))));
        assert_eq!(parse("a+").unwrap(), Ast::Plus(Box::new(lit(b'a'))));
        assert_eq!(parse("a?").unwrap(), Ast::Optional(Box::new(lit(b'a'))));
    }

    #[test]
    fn counted_repetition_exact() {
        let ast = parse("a{3}").unwrap();
        assert_eq!(ast.num_positions(), 3);
        assert!(!ast.is_nullable());
    }

    #[test]
    fn counted_repetition_range() {
        let ast = parse("a{2,4}").unwrap();
        assert_eq!(ast.num_positions(), 4);
        let ast = parse("(ab){1,2}").unwrap();
        assert_eq!(ast.num_positions(), 4);
    }

    #[test]
    fn counted_repetition_open() {
        let ast = parse("a{2,}").unwrap();
        assert_eq!(ast.num_positions(), 2);
        assert!(matches!(ast, Ast::Concat(_)));
        let ast = parse("a{0,}").unwrap();
        assert!(matches!(ast, Ast::Star(_)));
    }

    #[test]
    fn classes_and_ranges() {
        let ast = parse("[a-c]").unwrap();
        match ast {
            Ast::Class(class) => {
                assert_eq!(class.len(), 3);
                assert!(class.contains(b'b'));
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn negated_class() {
        match parse("[^a]").unwrap() {
            Ast::Class(class) => {
                assert_eq!(class.len(), 255);
                assert!(!class.contains(b'a'));
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn class_with_escapes_and_specials() {
        match parse(r"[\]\-x]").unwrap() {
            Ast::Class(class) => {
                assert!(class.contains(b']'));
                assert!(class.contains(b'-'));
                assert!(class.contains(b'x'));
                assert_eq!(class.len(), 3);
            }
            _ => panic!("expected class"),
        }
        // ']' first in class is a literal member.
        match parse("[]a]").unwrap() {
            Ast::Class(class) => {
                assert!(class.contains(b']'));
                assert!(class.contains(b'a'));
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn class_escape_sets() {
        match parse(r"[\d_]").unwrap() {
            Ast::Class(class) => {
                assert_eq!(class.len(), 11);
                assert!(class.contains(b'_'));
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn dot_and_hex_escape() {
        assert_eq!(parse(".").unwrap(), Ast::Class(SymbolClass::FULL));
        assert_eq!(parse(r"\x41").unwrap(), lit(b'A'));
        assert_eq!(parse(r"\xff").unwrap(), lit(0xff));
    }

    #[test]
    fn trailing_dash_is_literal() {
        match parse("[a-]").unwrap() {
            Ast::Class(class) => {
                assert!(class.contains(b'a'));
                assert!(class.contains(b'-'));
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn syntax_errors() {
        assert!(parse("(a").is_err());
        assert!(parse("a)").is_err());
        assert!(parse("*a").is_err());
        assert!(parse("[a").is_err());
        assert!(parse("a{2,1}").is_err());
        assert!(parse(r"\").is_err());
        assert!(parse("a{x}").is_err());
        assert!(parse("^a").is_err());
        assert!(parse("[z-a]").is_err());
        assert!(parse(r"[a-\d]").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let groups = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        let quantifiers = |depth: usize| format!("a{}", "+".repeat(depth));
        // At the limit, the whole pipeline fits a test thread's stack.
        assert!(crate::regex::compile(&groups(MAX_NESTING)).is_ok());
        assert!(crate::regex::compile(&quantifiers(MAX_NESTING)).is_ok());
        // Groups and the quantifiers stacked on them share one budget.
        let half = MAX_NESTING / 2;
        let mixed = |extra: usize| format!("{}+{}", groups(half), "*".repeat(half - 1 + extra));
        assert!(parse(&mixed(0)).is_ok());
        assert!(parse(&mixed(1)).is_err());
        assert!(matches!(
            parse(&groups(MAX_NESTING + 1)),
            Err(Error::RegexSyntax { offset, .. }) if offset == MAX_NESTING + 1
        ));
        assert!(matches!(
            parse(&quantifiers(MAX_NESTING + 1)),
            Err(Error::RegexSyntax { offset, .. }) if offset == MAX_NESTING + 2
        ));
        assert!(parse(&groups(100_000)).is_err());
        assert!(parse(&quantifiers(100_000)).is_err());
    }

    #[test]
    fn repeat_budget_enforced() {
        assert!(matches!(
            parse("a{70000}"),
            Err(Error::RegexTooLarge { .. })
        ));
        assert!(matches!(
            parse("(a{300}){300}"),
            Err(Error::RegexTooLarge { .. })
        ));
    }

    #[test]
    fn nested_quantifier_applies() {
        let ast = parse("a*?").unwrap();
        assert!(ast.is_nullable());
    }
}
