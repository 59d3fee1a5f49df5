//! Loading and saving relations as text edge lists, with optional
//! dictionary encoding for string-keyed data.
//!
//! The paper's datasets arrive as whitespace-separated edge lists (SNAP
//! format and friends). [`read_edge_list`] parses those directly when the
//! keys are already integers; [`Dictionary`] handles real-world files whose
//! keys are strings (author names, tokens) by assigning dense `u32` ids in
//! first-seen order — the same encoding the algorithms assume.

use crate::{Relation, RelationBuilder, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors raised by the text loaders.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line did not contain two fields.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A field failed to parse as `u32`.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::BadLine { line, content } => {
                write!(f, "line {line}: expected two fields, got {content:?}")
            }
            IoError::BadValue { line, field } => {
                write!(f, "line {line}: {field:?} is not a valid u32 id")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads a whitespace- or comma-separated integer edge list. Lines starting
/// with `#` or `%` (SNAP / MatrixMarket comments) and blank lines are
/// skipped. Duplicate edges collapse during relation construction.
pub fn read_edge_list(reader: impl Read) -> Result<Relation, IoError> {
    let mut builder = RelationBuilder::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut fields = trimmed.split(|c: char| c.is_whitespace() || c == ',');
        let mut next_field = || {
            fields.find(|f| !f.is_empty()).ok_or(IoError::BadLine {
                line: line_no,
                content: trimmed.to_string(),
            })
        };
        let x_raw = next_field()?;
        let y_raw = next_field()?;
        let x: Value = x_raw.parse().map_err(|_| IoError::BadValue {
            line: line_no,
            field: x_raw.to_string(),
        })?;
        let y: Value = y_raw.parse().map_err(|_| IoError::BadValue {
            line: line_no,
            field: y_raw.to_string(),
        })?;
        builder.push(x, y);
    }
    Ok(builder.build())
}

/// Writes a relation as a tab-separated edge list (round-trips through
/// [`read_edge_list`]).
pub fn write_edge_list(r: &Relation, mut writer: impl Write) -> std::io::Result<()> {
    for (x, y) in r.tuples() {
        writeln!(writer, "{x}\t{y}")?;
    }
    Ok(())
}

/// A first-seen-order string-to-id dictionary for loading string-keyed
/// edge lists.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    ids: HashMap<String, Value>,
    names: Vec<String>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Id for `key`, allocating the next dense id on first sight.
    pub fn encode(&mut self, key: &str) -> Value {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.names.len() as Value;
        self.ids.insert(key.to_string(), id);
        self.names.push(key.to_string());
        id
    }

    /// Id for `key` if already present.
    pub fn lookup(&self, key: &str) -> Option<Value> {
        self.ids.get(key).copied()
    }

    /// Original string for `id`.
    pub fn decode(&self, id: Value) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of distinct keys seen.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no key was encoded yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Reads a string-keyed edge list, building dictionaries for both columns.
/// Returns the relation plus the two dictionaries (x-column, y-column).
pub fn read_string_edge_list(
    reader: impl Read,
) -> Result<(Relation, Dictionary, Dictionary), IoError> {
    let mut xs = Dictionary::new();
    let mut ys = Dictionary::new();
    let mut builder = RelationBuilder::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut fields = trimmed
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|f| !f.is_empty());
        let (Some(a), Some(b)) = (fields.next(), fields.next()) else {
            return Err(IoError::BadLine {
                line: line_no,
                content: trimmed.to_string(),
            });
        };
        let x = xs.encode(a);
        let y = ys.encode(b);
        builder.push(x, y);
    }
    Ok((builder.build(), xs, ys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snap_style_edges() {
        let input = "# comment\n0 1\n2\t3\n% another\n4,5\n\n";
        let r = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(r.edges(), &[(0, 1), (2, 3), (4, 5)]);
    }

    #[test]
    fn rejects_short_lines() {
        let err = read_edge_list("42\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::BadLine { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_non_integer_fields() {
        let err = read_edge_list("1 banana\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::BadValue { line: 1, .. }), "{err}");
    }

    #[test]
    fn round_trips_through_write() {
        let r = Relation::from_edges([(9, 1), (0, 4), (9, 1), (3, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&r, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(back.edges(), r.edges());
    }

    #[test]
    fn dictionary_dense_first_seen() {
        let mut d = Dictionary::new();
        assert_eq!(d.encode("alice"), 0);
        assert_eq!(d.encode("bob"), 1);
        assert_eq!(d.encode("alice"), 0);
        assert_eq!(d.decode(1), Some("bob"));
        assert_eq!(d.lookup("carol"), None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn string_edge_list_encodes_columns_independently() {
        let input = "alice paper1\nbob paper1\nalice paper2\n";
        let (r, authors, papers) = read_string_edge_list(input.as_bytes()).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(authors.len(), 2);
        assert_eq!(papers.len(), 2);
        assert_eq!(r.xs_of(papers.lookup("paper1").unwrap()), &[0, 1]);
    }

    #[test]
    fn empty_input_gives_empty_relation() {
        let r = read_edge_list("".as_bytes()).unwrap();
        assert!(r.is_empty());
        let (r, a, b) = read_string_edge_list("# only comments\n".as_bytes()).unwrap();
        assert!(r.is_empty());
        assert!(a.is_empty());
        assert!(b.is_empty());
    }
}
