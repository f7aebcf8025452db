//! A minimal TOML-subset parser with line tracking.
//!
//! The declarative case format needs tables, arrays-of-tables, strings,
//! numbers, booleans, (possibly multiline) arrays, and single-line inline
//! tables — and nothing else. Rather than pull in a dependency, this
//! module parses exactly that subset, remembering the source line of
//! every key so downstream validation can point at the offending input.
//!
//! Numbers are kept as their *raw text* (`Value::Num("2e-4")`): the case
//! format forwards solver settings verbatim into the INI-style
//! [`RunConfig`](https://docs.rs) interpreter, and re-emitting a case
//! must not reformat values the author wrote.

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string (content only, escapes resolved).
    Str(String),
    /// A numeric scalar, kept as raw text; parse on demand.
    Num(String),
    Bool(bool),
    /// `[a, b, ...]`, possibly spanning lines.
    Arr(Vec<Value>),
    /// `{ k = v, ... }` on one line.
    Table(Vec<(String, Value)>),
}

impl Value {
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Arr(_) => "array",
            Value::Table(_) => "inline table",
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_table(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The raw scalar text of a string, number, or boolean — what an
    /// INI-style consumer would have seen on the right of `=`.
    pub fn raw_scalar(&self) -> Option<String> {
        match self {
            Value::Str(s) => Some(s.clone()),
            Value::Num(raw) => Some(raw.clone()),
            Value::Bool(b) => Some(b.to_string()),
            _ => None,
        }
    }
}

/// A value plus the line its key appeared on.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub line: usize,
    pub value: Value,
}

/// A `[section]` (or one element of a `[[section]]` array).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Line of the section header (0 for the implicit root table).
    pub line: usize,
    entries: Vec<(String, Item)>,
}

impl Table {
    pub fn get(&self, key: &str) -> Option<&Item> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn entries(&self) -> &[(String, Item)] {
        &self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A parsed document: named tables and arrays-of-tables, in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Doc {
    tables: Vec<(String, Table)>,
    arrays: Vec<(String, Vec<Table>)>,
}

impl Doc {
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    pub fn array(&self, name: &str) -> &[Table] {
        self.arrays.iter().find(|(n, _)| n == name).map(|(_, t)| t.as_slice()).unwrap_or(&[])
    }

    pub fn tables(&self) -> impl Iterator<Item = (&str, &Table)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t))
    }

    pub fn arrays(&self) -> impl Iterator<Item = (&str, &[Table])> {
        self.arrays.iter().map(|(n, t)| (n.as_str(), t.as_slice()))
    }

    /// Parses the TOML subset.
    pub fn parse(text: &str) -> Result<Self, TomlError> {
        Parser { b: text.as_bytes(), i: 0, line: 1 }.doc()
    }
}

/// A parse failure with line context.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    line: usize,
}

fn is_key_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.'
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, TomlError> {
        Err(TomlError { line: self.line, message: message.into() })
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t') | Some(b'\r')) {
            self.bump();
        }
    }

    /// Skips a comment through (not past) the newline, if one starts here.
    fn skip_comment(&mut self) {
        if self.peek() == Some(b'#') {
            while let Some(c) = self.peek() {
                if c == b'\n' {
                    break;
                }
                self.bump();
            }
        }
    }

    /// Skips whitespace, newlines, and comments.
    fn skip_trivia(&mut self) {
        loop {
            self.skip_inline_ws();
            self.skip_comment();
            if self.peek() == Some(b'\n') {
                self.bump();
            } else {
                break;
            }
        }
    }

    /// After a header or `key = value`, only trivia may remain on the line.
    fn expect_eol(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        self.skip_comment();
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            Some(c) => self.err(format!("unexpected {:?} after value", c as char)),
        }
    }

    fn key(&mut self) -> Result<String, TomlError> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if is_key_byte(c) {
                self.bump();
            } else {
                break;
            }
        }
        if self.i == start {
            let found = self.peek().map(|c| format!("{:?}", c as char)).unwrap_or("EOF".into());
            return self.err(format!("expected a key, found {found}"));
        }
        Ok(String::from_utf8_lossy(&self.b[start..self.i]).into_owned())
    }

    fn string(&mut self) -> Result<String, TomlError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            if matches!(self.peek(), None | Some(b'\n')) {
                return self.err("unterminated string");
            }
            match self.bump() {
                None | Some(b'\n') => unreachable!(),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    other => {
                        return self.err(format!(
                            "unsupported escape \\{}",
                            other.map(|c| c as char).unwrap_or(' ')
                        ))
                    }
                },
                Some(c) => s.push(c as char),
            }
        }
    }

    fn bare_token(&mut self) -> Result<String, TomlError> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if matches!(c, b',' | b']' | b'}' | b'#' | b'\n' | b' ' | b'\t' | b'\r') {
                break;
            }
            self.bump();
        }
        if self.i == start {
            return self.err("expected a value");
        }
        Ok(String::from_utf8_lossy(&self.b[start..self.i]).into_owned())
    }

    fn value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_trivia();
                    if self.peek() == Some(b']') {
                        self.bump();
                        return Ok(Value::Arr(items));
                    }
                    items.push(self.value()?);
                    self.skip_trivia();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b']') => {}
                        _ => return self.err("expected `,` or `]` in array"),
                    }
                }
            }
            Some(b'{') => {
                self.bump();
                let mut pairs: Vec<(String, Value)> = Vec::new();
                loop {
                    self.skip_inline_ws();
                    if self.peek() == Some(b'}') {
                        self.bump();
                        return Ok(Value::Table(pairs));
                    }
                    let k = self.key()?;
                    self.skip_inline_ws();
                    if self.peek() != Some(b'=') {
                        return self.err(format!("expected `=` after {k:?} in inline table"));
                    }
                    self.bump();
                    self.skip_inline_ws();
                    let v = self.value()?;
                    if pairs.iter().any(|(pk, _)| *pk == k) {
                        return self.err(format!("duplicate key {k:?} in inline table"));
                    }
                    pairs.push((k, v));
                    self.skip_inline_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b'}') => {}
                        _ => return self.err("expected `,` or `}` in inline table"),
                    }
                }
            }
            _ => {
                let tok = self.bare_token()?;
                match tok.as_str() {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    _ => Ok(Value::Num(tok)),
                }
            }
        }
    }

    fn doc(mut self) -> Result<Doc, TomlError> {
        let mut doc = Doc::default();
        // Index into either `tables` or an `arrays` tail, as (is_array, idx).
        let mut current: Option<(bool, usize)> = None;
        loop {
            self.skip_trivia();
            let Some(c) = self.peek() else { break };
            if c == b'[' {
                let header_line = self.line;
                self.bump();
                let is_array = self.peek() == Some(b'[');
                if is_array {
                    self.bump();
                }
                self.skip_inline_ws();
                let name = self.key()?;
                self.skip_inline_ws();
                for _ in 0..(if is_array { 2 } else { 1 }) {
                    if self.peek() != Some(b']') {
                        return self.err(format!("malformed section header [{name}"));
                    }
                    self.bump();
                }
                self.expect_eol()?;
                let table = Table { line: header_line, entries: Vec::new() };
                if is_array {
                    let idx = match doc.arrays.iter().position(|(n, _)| *n == name) {
                        Some(i) => i,
                        None => {
                            doc.arrays.push((name.clone(), Vec::new()));
                            doc.arrays.len() - 1
                        }
                    };
                    doc.arrays[idx].1.push(table);
                    current = Some((true, idx));
                } else {
                    if doc.tables.iter().any(|(n, _)| *n == name) {
                        return Err(TomlError {
                            line: header_line,
                            message: format!("section [{name}] appears twice"),
                        });
                    }
                    doc.tables.push((name, table));
                    current = Some((false, doc.tables.len() - 1));
                }
                continue;
            }
            // key = value
            let key_line = self.line;
            let key = self.key()?;
            self.skip_inline_ws();
            if self.peek() != Some(b'=') {
                return self.err(format!("expected `=` after key {key:?}"));
            }
            self.bump();
            self.skip_inline_ws();
            let value = self.value()?;
            self.expect_eol()?;
            let table = match current {
                None => {
                    return Err(TomlError {
                        line: key_line,
                        message: format!("key {key:?} appears before any [section] header"),
                    })
                }
                Some((true, idx)) => doc.arrays[idx].1.last_mut().unwrap(),
                Some((false, idx)) => &mut doc.tables[idx].1,
            };
            if table.get(&key).is_some() {
                return Err(TomlError {
                    line: key_line,
                    message: format!("duplicate key {key:?} in this section"),
                });
            }
            table.entries.push((key, Item { line: key_line, value }));
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_arrays_and_scalars_parse() {
        let doc = Doc::parse(
            "# header comment\n[case]\nname = \"pin\"  # trailing\nkind = \"eigenvalue\"\n\
             [axial]\ndz = 14.28\nflag = true\n[[pin]]\nname = \"a\"\n[[pin]]\nname = \"b\"\n",
        )
        .unwrap();
        let case = doc.table("case").unwrap();
        assert_eq!(case.get("name").unwrap().value.as_str(), Some("pin"));
        assert_eq!(case.get("name").unwrap().line, 3);
        assert_eq!(doc.table("axial").unwrap().get("dz").unwrap().value.as_f64(), Some(14.28));
        assert_eq!(doc.table("axial").unwrap().get("flag").unwrap().value, Value::Bool(true));
        let pins = doc.array("pin");
        assert_eq!(pins.len(), 2);
        assert_eq!(pins[1].get("name").unwrap().value.as_str(), Some("b"));
    }

    #[test]
    fn multiline_arrays_and_nesting_parse() {
        let doc = Doc::parse(
            "[materials]\naliases = [\n  [\"a\", \"b\"],  # pair\n  [\"c\", \"d\"],\n]\n\
             nums = [1, 2.5, 3e-4]\n",
        )
        .unwrap();
        let t = doc.table("materials").unwrap();
        let aliases = t.get("aliases").unwrap().value.as_arr().unwrap();
        assert_eq!(aliases.len(), 2);
        assert_eq!(aliases[0].as_arr().unwrap()[1].as_str(), Some("b"));
        let nums = t.get("nums").unwrap().value.as_arr().unwrap();
        assert_eq!(nums[2].as_f64(), Some(3e-4));
        // Raw text survives for re-emission.
        assert_eq!(nums[2], Value::Num("3e-4".into()));
    }

    #[test]
    fn inline_tables_parse() {
        let doc = Doc::parse(
            "[core]\nboundary = { x_min = \"reflective\", x_max = \"vacuum\" }\n\
             [gates]\nflux_ratio = { group = 1, min = 5.0 }\n",
        )
        .unwrap();
        let b = doc.table("core").unwrap().get("boundary").unwrap().value.as_table().unwrap();
        assert_eq!(b[1].0, "x_max");
        assert_eq!(b[1].1.as_str(), Some("vacuum"));
        let g = doc.table("gates").unwrap().get("flux_ratio").unwrap().value.as_table().unwrap();
        assert_eq!(g[0].1.as_usize(), Some(1));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Doc::parse("[case]\nname = \"x\"\nname = \"y\"\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate"));

        let e = Doc::parse("top = 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("before any"));

        let e = Doc::parse("[case]\nname \"x\"\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains('='));

        let e = Doc::parse("[case\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = Doc::parse("[a]\nx = \"unterminated\n").unwrap_err();
        assert_eq!(e.line, 2);

        let e = Doc::parse("[a]\n[a]\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("twice"));
    }

    #[test]
    fn strings_support_escapes() {
        let doc = Doc::parse("[a]\ns = \"tab\\there \\\"quoted\\\"\"\n").unwrap();
        assert_eq!(
            doc.table("a").unwrap().get("s").unwrap().value.as_str(),
            Some("tab\there \"quoted\"")
        );
    }

    #[test]
    fn raw_scalars_round_trip_number_text() {
        let doc = Doc::parse("[solver]\ntolerance = 2e-4\nmode = \"otf\"\non = true\n").unwrap();
        let t = doc.table("solver").unwrap();
        assert_eq!(t.get("tolerance").unwrap().value.raw_scalar(), Some("2e-4".into()));
        assert_eq!(t.get("mode").unwrap().value.raw_scalar(), Some("otf".into()));
        assert_eq!(t.get("on").unwrap().value.raw_scalar(), Some("true".into()));
    }
}
