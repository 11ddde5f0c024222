//! Parser for a small Verilog-like structural subset.
//!
//! Supported constructs — exactly what structural accelerator RTL needs:
//!
//! ```text
//! // line comments
//! module pe #(behavior="mac") (input [15:0] a, input [15:0] b, output [15:0] y);
//! endmodule
//!
//! module top (input [15:0] x, output [15:0] y);
//!   wire [15:0] t, u;
//!   pe u0 (.a(x), .b(x), .y(t));
//!   pe u1 (.a(t), .b(t), .y(y));
//! endmodule
//! ```
//!
//! The `#(behavior="...")` attribute tags a basic module's combinational
//! function for equivalence checking (see [`crate::Design::canonical_hash`]).

use std::collections::BTreeMap;

use crate::module::{Instance, ModuleDecl, Port, PortDir};
use crate::{Design, RtlError};

/// Parses a design from source text.
///
/// Modules may be declared in any order; instantiated modules must be
/// defined somewhere in the same source.
///
/// # Errors
///
/// Returns [`RtlError::Parse`] for syntax errors (with a line number) and
/// the usual structural errors ([`RtlError::UnknownModule`],
/// [`RtlError::WidthMismatch`], ...) for semantic ones.
pub fn parse(source: &str) -> Result<Design, RtlError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut modules = Vec::new();
    while !p.at_end() {
        modules.push(p.module()?);
    }

    // Insert bottom-up: Design::add_module requires children first. Each
    // round inserts every module whose children are all present, in source
    // order; the first insertion that fails on a semantic error is
    // returned.
    let mut design = Design::new();
    let mut remaining = modules;
    while !remaining.is_empty() {
        let before = remaining.len();
        let mut waiting = Vec::new();
        for m in remaining {
            let ready = m
                .instances
                .iter()
                .all(|i| design.module(&i.module).is_some());
            if ready {
                design.add_module(m)?;
            } else {
                waiting.push(m);
            }
        }
        remaining = waiting;
        if remaining.len() == before {
            // No progress: an instantiated module is missing (or circular).
            let missing = remaining
                .iter()
                .flat_map(|m| m.instances.iter())
                .map(|i| &i.module)
                .find(|name| {
                    design.module(name).is_none() && !remaining.iter().any(|m| &m.name == *name)
                });
            return Err(match missing {
                Some(name) => RtlError::UnknownModule(name.clone()),
                None => RtlError::RecursiveHierarchy(remaining[0].name.clone()),
            });
        }
    }
    Ok(design)
}

/// A token; identifiers and string contents borrow from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(u32),
    Str(&'a str),
    Punct(char),
}

#[derive(Debug, Clone, Copy)]
struct Token<'a> {
    tok: Tok<'a>,
    line: usize,
}

fn lex(source: &str) -> Result<Vec<Token<'_>>, RtlError> {
    let bytes = source.as_bytes();
    // The character starting at byte `i`; ASCII needs no decoding.
    let char_at = |i: usize| match bytes.get(i) {
        Some(&b) if b.is_ascii() => Some(char::from(b)),
        Some(_) => source[i..].chars().next(),
        None => None,
    };
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut i = 0;
    while let Some(c) = char_at(i) {
        let start = i;
        i += c.len_utf8();
        match c {
            '\n' => line += 1,
            c if c.is_whitespace() => {}
            '/' => {
                if bytes.get(i) != Some(&b'/') {
                    return Err(RtlError::Parse {
                        line,
                        message: "unexpected `/` (only `//` comments supported)".into(),
                    });
                }
                match bytes[i..].iter().position(|&b| b == b'\n') {
                    Some(n) => {
                        i += n + 1;
                        line += 1;
                    }
                    None => i = bytes.len(),
                }
            }
            '"' => match bytes[i..].iter().position(|&b| b == b'"' || b == b'\n') {
                Some(n) if bytes[i + n] == b'"' => {
                    tokens.push(Token {
                        tok: Tok::Str(&source[i..i + n]),
                        line,
                    });
                    i += n + 1;
                }
                _ => {
                    return Err(RtlError::Parse {
                        line,
                        message: "unterminated string".into(),
                    })
                }
            },
            c if c.is_ascii_digit() => {
                let mut v = u32::from(c as u8 - b'0');
                while let Some(digit) = bytes.get(i).and_then(|&b| char::from(b).to_digit(10)) {
                    v = v
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(digit))
                        .ok_or_else(|| RtlError::Parse {
                            line,
                            message: "integer literal overflow".into(),
                        })?;
                    i += 1;
                }
                tokens.push(Token {
                    tok: Tok::Int(v),
                    line,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                while let Some(d) =
                    char_at(i).filter(|&d| d.is_alphanumeric() || d == '_' || d == '$')
                {
                    i += d.len_utf8();
                }
                tokens.push(Token {
                    tok: Tok::Ident(&source[start..i]),
                    line,
                });
            }
            '(' | ')' | '[' | ']' | ':' | ';' | ',' | '.' | '#' | '=' => tokens.push(Token {
                tok: Tok::Punct(c),
                line,
            }),
            other => {
                return Err(RtlError::Parse {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err(&self, message: impl Into<String>) -> RtlError {
        RtlError::Parse {
            line: self.line(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.tokens.get(self.pos).map(|t| t.tok)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), RtlError> {
        match self.next() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, RtlError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), RtlError> {
        match self.next() {
            Some(Tok::Ident(s)) if s == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// `[msb:lsb]` -> width; absent -> 1.
    fn range(&mut self) -> Result<u32, RtlError> {
        if !self.eat_punct('[') {
            return Ok(1);
        }
        let msb = match self.next() {
            Some(Tok::Int(v)) => v,
            other => return Err(self.err(format!("expected msb integer, found {other:?}"))),
        };
        self.expect_punct(':')?;
        let lsb = match self.next() {
            Some(Tok::Int(v)) => v,
            other => return Err(self.err(format!("expected lsb integer, found {other:?}"))),
        };
        self.expect_punct(']')?;
        if lsb > msb {
            return Err(self.err(format!("descending range [{msb}:{lsb}] required")));
        }
        Ok(msb - lsb + 1)
    }

    fn module(&mut self) -> Result<ModuleDecl, RtlError> {
        self.expect_keyword("module")?;
        let name = self.expect_ident()?;

        // Optional #(key="value", ...) attributes.
        let mut behavior = None;
        if self.eat_punct('#') {
            self.expect_punct('(')?;
            loop {
                let key = self.expect_ident()?;
                self.expect_punct('=')?;
                let value = match self.next() {
                    Some(Tok::Str(s)) => s,
                    other => {
                        return Err(self.err(format!("expected string value, found {other:?}")))
                    }
                };
                if key == "behavior" {
                    behavior = Some(value.to_string());
                } else {
                    return Err(self.err(format!("unknown attribute `{key}`")));
                }
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct(')')?;
        }

        // Port list.
        self.expect_punct('(')?;
        let mut ports = Vec::new();
        if !self.eat_punct(')') {
            loop {
                let dir = match self.expect_ident()? {
                    "input" => PortDir::Input,
                    "output" => PortDir::Output,
                    other => {
                        return Err(self.err(format!("expected port direction, found `{other}`")))
                    }
                };
                let width = self.range()?;
                let pname = self.expect_ident()?;
                ports.push(Port {
                    name: pname.to_string(),
                    dir,
                    width,
                });
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct(')')?;
        }
        self.expect_punct(';')?;

        let mut module = ModuleDecl::new(name, ports);
        module.behavior = behavior;

        // Body: wires and instances until `endmodule`.
        loop {
            match self.peek() {
                Some(Tok::Ident("endmodule")) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Ident("wire")) => {
                    self.pos += 1;
                    let width = self.range()?;
                    loop {
                        let wname = self.expect_ident()?;
                        module.add_wire(wname, width);
                        if !self.eat_punct(',') {
                            break;
                        }
                    }
                    self.expect_punct(';')?;
                }
                Some(Tok::Ident(_)) => {
                    let mod_name = self.expect_ident()?;
                    let inst_name = self.expect_ident()?;
                    self.expect_punct('(')?;
                    let mut connections = BTreeMap::new();
                    if !self.eat_punct(')') {
                        loop {
                            self.expect_punct('.')?;
                            let port = self.expect_ident()?;
                            self.expect_punct('(')?;
                            let net = self.expect_ident()?;
                            self.expect_punct(')')?;
                            connections.insert(port.to_string(), net.to_string());
                            if !self.eat_punct(',') {
                                break;
                            }
                        }
                        self.expect_punct(')')?;
                    }
                    self.expect_punct(';')?;
                    module.add_instance(Instance {
                        name: inst_name.to_string(),
                        module: mod_name.to_string(),
                        connections,
                    });
                }
                other => {
                    return Err(self.err(format!("expected module body item, found {other:?}")))
                }
            }
        }
        Ok(module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
        // A two-stage pipeline of multiply-accumulate PEs.
        module pe #(behavior="mac") (input [15:0] a, input [15:0] b, output [15:0] y);
        endmodule

        module top (input [15:0] x, output [15:0] y);
          wire [15:0] t;
          pe u0 (.a(x), .b(x), .y(t));
          pe u1 (.a(t), .b(t), .y(y));
        endmodule
    "#;

    #[test]
    fn parses_modules_ports_and_instances() {
        let d = parse(GOOD).unwrap();
        assert_eq!(d.len(), 2);
        let pe = d.module("pe").unwrap();
        assert!(pe.is_basic());
        assert_eq!(pe.behavior.as_deref(), Some("mac"));
        assert_eq!(pe.ports.len(), 3);
        assert_eq!(pe.port("a").unwrap().width, 16);
        let top = d.module("top").unwrap();
        assert_eq!(top.instances.len(), 2);
        assert_eq!(top.wires.get("t"), Some(&16));
    }

    #[test]
    fn forward_references_allowed() {
        // `top` defined before `pe`.
        let src = r#"
            module top (input x, output y);
              pe u (.a(x), .y(y));
            endmodule
            module pe #(behavior="buf") (input a, output y);
            endmodule
        "#;
        let d = parse(src).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn scalar_ports_have_width_one() {
        let d = parse("module m (input clk, output q); endmodule").unwrap();
        assert_eq!(d.module("m").unwrap().port("clk").unwrap().width, 1);
    }

    #[test]
    fn multiple_wires_in_one_declaration() {
        let d = parse(
            r#"
            module leaf #(behavior="x") (input a, output y);
            endmodule
            module m (input a, output y);
              wire [7:0] p, q, r;
              leaf u (.a(a), .y(y));
            endmodule
            "#,
        )
        .unwrap();
        let m = d.module("m").unwrap();
        assert_eq!(m.wires.len(), 3);
        assert!(m.wires.values().all(|&w| w == 8));
    }

    #[test]
    fn syntax_error_reports_line() {
        let err = parse("module m (input a output y);\nendmodule").unwrap_err();
        match err {
            RtlError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_instantiated_module_detected() {
        let err =
            parse("module top (input x, output y); ghost u (.a(x), .y(y)); endmodule").unwrap_err();
        assert_eq!(err, RtlError::UnknownModule("ghost".into()));
    }

    #[test]
    fn width_mismatch_detected() {
        let err = parse(
            r#"
            module pe #(behavior="mac") (input [15:0] a, output [15:0] y);
            endmodule
            module top (input [7:0] x, output [15:0] y);
              pe u (.a(x), .y(y));
            endmodule
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, RtlError::WidthMismatch { .. }));
    }

    #[test]
    fn forward_referenced_width_mismatch_is_reported() {
        // `top` is declared first, so it is validated in a later round of
        // the bottom-up insertion, after `pe` is known.
        let err = parse(
            r#"
            module top (input [7:0] x, output [15:0] y);
              pe u (.a(x), .y(y));
            endmodule
            module pe #(behavior="mac") (input [15:0] a, output [15:0] y);
            endmodule
            "#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RtlError::WidthMismatch {
                module: "top".into(),
                detail: "net `x` (8 bits) connected to pe.a (16 bits)".into(),
            }
        );
    }

    #[test]
    fn forward_referenced_duplicate_instance_is_reported() {
        let err = parse(
            r#"
            module top (input x, output y);
              wire t;
              pe u (.a(x), .y(t));
              pe u (.a(t), .y(y));
            endmodule
            module pe #(behavior="buf") (input a, output y);
            endmodule
            "#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RtlError::DuplicateName {
                module: "top".into(),
                name: "u".into(),
            }
        );
    }

    #[test]
    fn first_error_of_an_insertion_round_is_reported() {
        // `a` and `b` both become insertable in the same round and both
        // fail; the first one in source order is the error returned.
        let err = parse(
            r#"
            module a (input [7:0] x);
              pe u (.a(x));
            endmodule
            module b (input x, output y);
              pe v (.a(x), .y(y));
              pe v (.a(x), .y(y));
            endmodule
            module pe #(behavior="buf") (input [15:0] a, output [15:0] y);
            endmodule
            "#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RtlError::WidthMismatch {
                module: "a".into(),
                detail: "net `x` (8 bits) connected to pe.a (16 bits)".into(),
            }
        );
    }

    #[test]
    fn non_ascii_source_lexes_by_character() {
        let d =
            parse("module pé #(behavior=\"mäc\") (input ä, output ÿ$);\nendmodule\n// ünïcode\n")
                .unwrap();
        let m = d.module("pé").unwrap();
        assert_eq!(m.behavior.as_deref(), Some("mäc"));
        assert!(m.port("ä").is_some() && m.port("ÿ$").is_some());
        let err = parse("module m (input a);\n€ndmodule").unwrap_err();
        assert_eq!(
            err,
            RtlError::Parse {
                line: 2,
                message: "unexpected character `€`".into(),
            }
        );
    }

    #[test]
    fn unterminated_string_rejected() {
        let err = parse("module m #(behavior=\"oops) (input a); endmodule").unwrap_err();
        assert!(matches!(err, RtlError::Parse { .. }));
    }

    #[test]
    fn ascending_range_rejected() {
        let err = parse("module m (input [0:7] a); endmodule").unwrap_err();
        assert!(matches!(err, RtlError::Parse { .. }));
    }

    #[test]
    fn flatten_roundtrip_through_parser() {
        let d = parse(GOOD).unwrap();
        let g = d.flatten("top").unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edges_between(crate::NodeId(0), crate::NodeId(1)), 16);
    }
}
