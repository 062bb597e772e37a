//! Matrix Market (coordinate format) I/O.
//!
//! The paper's SPE matrices came from external reservoir simulations; a
//! downstream user of this library will likewise want to feed real systems
//! in. This module reads and writes the MatrixMarket exchange format
//! (`%%MatrixMarket matrix coordinate real general`), the de-facto standard
//! for sparse test matrices, with no dependencies beyond std.

use crate::builder::TripletBuilder;
use crate::csr::CsrMatrix;
use std::io::{BufRead, Write};

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid content, with a human-readable reason.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
        }
    }
}

impl std::error::Error for MmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MmError::Io(e) => Some(e),
            MmError::Parse(_) => None,
        }
    }
}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Most triplets reserved on the word of a size line (1.5 MiB of entries).
const MAX_RESERVED_ENTRIES: usize = 1 << 16;

/// Reads a `matrix coordinate real general` (or `symmetric`) Matrix Market
/// stream into a [`CsrMatrix`]. Symmetric inputs are expanded (mirror
/// entries added for off-diagonal positions); duplicate entries are summed,
/// as the format specifies for assembled matrices.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<CsrMatrix, MmError> {
    let mut lines = reader.lines();

    // Header.
    let header = lines.next().ok_or_else(|| parse_err("empty input"))??;
    let h: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(parse_err(format!("bad header line: {header:?}")));
    }
    if h[2] != "coordinate" {
        return Err(parse_err("only coordinate format is supported"));
    }
    if h[3] != "real" && h[3] != "integer" {
        return Err(parse_err(format!("unsupported field type {:?}", h[3])));
    }
    let symmetric = match h[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => return Err(parse_err(format!("unsupported symmetry {other:?}"))),
    };

    // Size line (after comments).
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| parse_err(format!("bad size token {t:?}")))
        })
        .collect::<Result<_, _>>()?;
    let [nrows, ncols, nnz] = dims[..] else {
        return Err(parse_err(format!(
            "size line needs 3 fields: {size_line:?}"
        )));
    };

    // The size line is outside input: hold it to what a matrix can be
    // before anything is sized by it.
    if nrows.checked_add(1).is_none() || ncols.checked_add(1).is_none() {
        return Err(parse_err(format!(
            "dimensions {nrows} x {ncols} overflow the index type"
        )));
    }
    if nrows.checked_mul(ncols).is_some_and(|cells| nnz > cells) {
        return Err(parse_err(format!(
            "size line promises {nnz} entries in a {nrows} x {ncols} matrix"
        )));
    }

    // Reserve for an honest header only up to a bound; past it the builder
    // grows with the entries actually read.
    let mut builder = TripletBuilder::with_capacity(nrows, ncols, nnz.min(MAX_RESERVED_ENTRIES));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row index"))?
            .parse()
            .map_err(|_| parse_err(format!("bad row index in {t:?}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err("missing column index"))?
            .parse()
            .map_err(|_| parse_err(format!("bad column index in {t:?}")))?;
        let v: f64 = match it.next() {
            Some(tok) => tok
                .parse()
                .map_err(|_| parse_err(format!("bad value in {t:?}")))?,
            None => return Err(parse_err(format!("missing value in {t:?}"))),
        };
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(parse_err(format!(
                "entry ({r},{c}) outside 1..={nrows} x 1..={ncols}"
            )));
        }
        builder.push(r - 1, c - 1, v);
        if symmetric && r != c {
            builder.push(c - 1, r - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!(
            "size line promised {nnz} entries, found {seen}"
        )));
    }
    Ok(builder.build())
}

/// Writes `m` as `matrix coordinate real general` Matrix Market.
pub fn write_matrix_market<W: Write>(m: &CsrMatrix, mut writer: W) -> Result<(), MmError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(
        writer,
        "% written by preprocessed-doacross (doacross-sparse)"
    )?;
    writeln!(writer, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for i in 0..m.nrows() {
        for (&j, &v) in m.row_cols(i).iter().zip(m.row_values(i)) {
            writeln!(writer, "{} {} {:.17e}", i + 1, j + 1, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::five_point;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<CsrMatrix, MmError> {
        read_matrix_market(BufReader::new(text.as_bytes()))
    }

    #[test]
    fn reads_general_coordinate() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             % a comment\n\
             3 3 4\n\
             1 1 2.0\n\
             2 2 3.0\n\
             3 1 -1.0\n\
             3 3 4.0\n",
        )
        .unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), Some(2.0));
        assert_eq!(m.get(2, 0), Some(-1.0));
        assert_eq!(m.get(0, 1), None);
    }

    #[test]
    fn expands_symmetric_inputs() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real symmetric\n\
             2 2 2\n\
             1 1 5.0\n\
             2 1 1.5\n",
        )
        .unwrap();
        assert_eq!(m.nnz(), 3, "mirror entry added");
        assert_eq!(m.get(0, 1), Some(1.5));
        assert_eq!(m.get(1, 0), Some(1.5));
    }

    #[test]
    fn round_trips_a_stencil_matrix() {
        let a = five_point(6, 7, 99);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(BufReader::new(&buf[..])).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(parse("").is_err());
        assert!(parse("%%MatrixMarket matrix array real general\n1 1\n1.0\n").is_err());
        assert!(
            parse("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n").is_err()
        );
        assert!(
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n").is_err(),
            "out-of-range index"
        );
        assert!(
            parse("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n").is_err(),
            "entry count mismatch"
        );
        assert!(
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n").is_err(),
            "missing value"
        );
        // Size lines that lie: typed errors, nothing reserved on their word.
        for size_line in [
            "1 1 18446744073709551615",
            "3 3 1000000000000000",
            "18446744073709551615 1 0",
        ] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size_line}\n");
            assert!(
                matches!(parse(&text), Err(MmError::Parse(_))),
                "{size_line}"
            );
        }
    }

    #[test]
    fn error_display_and_source() {
        let err = parse("").unwrap_err();
        assert!(err.to_string().contains("parse error"));
        let io_err = MmError::from(std::io::Error::other("boom"));
        assert!(io_err.to_string().contains("boom"));
        use std::error::Error;
        assert!(io_err.source().is_some());
    }
}
