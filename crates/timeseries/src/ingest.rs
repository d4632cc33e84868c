//! Trace import/export.
//!
//! A deliberately tiny CSV dialect (`time_seconds,value` with an optional
//! header) so traces can round-trip through files without adding a CSV
//! dependency, plus a serde-able [`TraceMeta`] describing where a trace came
//! from — the `(metric, device)` pair identity used throughout the paper's
//! §3.2 study.
//!
//! # Accepted grammar
//!
//! [`parse_csv`] reads the text line by line; lines end at `\n`, so CRLF
//! files parse like LF files. Each line is trimmed as [`str::trim`] trims
//! it (Unicode whitespace, `\r` included), then:
//!
//! * an empty line or one starting with `#` is skipped;
//! * otherwise it must hold exactly two comma-separated fields, each
//!   trimmed again: `time,value`. A missing second field reads as an empty
//!   value, which is an error, and so is a third field;
//! * the time is whatever `str::parse::<f64>` accepts and must be finite.
//!   Before the first data row, one line whose time does not parse is taken
//!   as the header and skipped; after it, such a line is an error;
//! * the value is `nan` in any letter case (a lost measurement) or whatever
//!   `str::parse::<f64>` accepts (so `1e3`, `.5`, `inf` and `NaN` too).
//!
//! Rows may come in any order. Out-of-order rows are stably sorted by time,
//! and of several rows with equal times the first is kept.
//!
//! # Exactness
//!
//! The result is bit-identical to parsing every field with `str::parse`,
//! which rounds correctly. The common field, a plain decimal
//! `-?\d+(\.\d+)?` of at most 19 digits whose digit string `m` is at most
//! 2⁵³, is decoded in place as `m / 10^f` (`f` fraction digits). Both `m`
//! and `10^f` (`f ≤ 19 ≤ 22`) are exact doubles, so the one IEEE division
//! rounds the exact decimal value correctly (Clinger's fast path) and
//! agrees with `str::parse` bit for bit, signed zero included. Every other
//! field, and every line with non-ASCII whitespace or other surprises,
//! takes the `&str` route above.

use crate::series::IrregularSeries;
use crate::time::Seconds;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity and provenance of a trace: one `(metric, device)` pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Metric name (e.g. `"temperature"`).
    pub metric: String,
    /// Device identifier (e.g. `"t0-rack12-sw3"`).
    pub device: String,
}

impl fmt::Display for TraceMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.metric, self.device)
    }
}

/// Error from [`parse_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a `time,value` CSV (grammar and exactness in the
/// [module docs](crate::ingest)). Blank lines and `#` comments are skipped; a single
/// non-numeric header row before the first data row is tolerated — even
/// when comments or blank lines precede it. The literal value `nan`
/// (case-insensitive) marks a lost measurement.
///
/// One pass over the bytes writes straight into the time and value
/// columns; when the times arrive strictly increasing (every trace this
/// workspace writes) they become the series as they are, and only other
/// inputs go through [`IrregularSeries::from_pairs`]' sort and dedup.
pub fn parse_csv(text: &str) -> Result<IrregularSeries, ParseError> {
    let bytes = text.as_bytes();
    // Every row ends at a newline or at the end of the text, so this bounds
    // the row count and the columns never reallocate.
    let rows = bytes.iter().filter(|&&b| b == b'\n').count() + 1;
    let mut times: Vec<Seconds> = Vec::with_capacity(rows);
    let mut values: Vec<f64> = Vec::with_capacity(rows);
    let mut header_allowed = true;
    let mut increasing = true;
    let (mut pos, mut line) = (0, 0);
    while pos < bytes.len() {
        line += 1;
        let row = match fast_line(bytes, pos) {
            Fast::Row(t, v, next) => {
                pos = next;
                Some((t, v))
            }
            Fast::Skip(next) => {
                pos = next;
                None
            }
            Fast::Slow => {
                let end = line_end(bytes, pos);
                let row = parse_line(&text[pos..end], line, &mut header_allowed)?;
                pos = end + 1;
                row
            }
        };
        if let Some((t, v)) = row {
            header_allowed = false;
            increasing &= times.last().is_none_or(|last| last.value() < t);
            times.push(Seconds(t));
            values.push(v);
        }
    }
    Ok(if increasing {
        IrregularSeries::new(times, values)
    } else {
        IrregularSeries::from_pairs(times.into_iter().zip(values).collect())
    })
}

/// What [`fast_line`] made of the line starting at a byte offset.
enum Fast {
    /// A data row of two plain decimals; the next line starts at the offset.
    Row(f64, f64, usize),
    /// A blank or comment line; the next line starts at the offset.
    Skip(usize),
    /// Anything else: parse the line with [`parse_line`].
    Slow,
}

/// Reads the line starting at `i` if it is blank, a comment, or a data row
/// `decimal , decimal` padded with ASCII whitespace.
#[inline]
fn fast_line(b: &[u8], i: usize) -> Fast {
    let i = skip_blanks(b, i);
    match b.get(i) {
        None => return Fast::Skip(i),
        Some(b'\n') => return Fast::Skip(i + 1),
        Some(b'#') => return Fast::Skip(line_end(b, i) + 1),
        _ => {}
    }
    let Some((t, i)) = decimal(b, i) else {
        return Fast::Slow;
    };
    let i = skip_blanks(b, i);
    if b.get(i) != Some(&b',') {
        return Fast::Slow;
    }
    let Some((v, i)) = decimal(b, skip_blanks(b, i + 1)) else {
        return Fast::Slow;
    };
    let i = skip_blanks(b, i);
    match b.get(i) {
        None => Fast::Row(t, v, i),
        Some(b'\n') => Fast::Row(t, v, i + 1),
        _ => Fast::Slow,
    }
}

/// Parses one line (without its `\n`) the `&str` way. `Ok(None)` for a
/// blank, comment or header line.
fn parse_line(
    raw: &str,
    line: usize,
    header_allowed: &mut bool,
) -> Result<Option<(f64, f64)>, ParseError> {
    let error = |message: String| ParseError { line, message };
    let raw = raw.trim();
    if raw.is_empty() || raw.starts_with('#') {
        return Ok(None);
    }
    let mut fields = raw.split(',');
    let t_str = fields.next().unwrap_or("").trim();
    let v_str = fields.next().unwrap_or("").trim();
    if fields.next().is_some() {
        return Err(error("expected exactly two fields".into()));
    }
    let t = match t_str.parse::<f64>() {
        Ok(t) => t,
        // One header row is fine anywhere before the first data row
        // (tracking "first data row seen", not the literal line number,
        // so leading comments/blanks don't defeat it).
        Err(_) if *header_allowed => {
            *header_allowed = false;
            return Ok(None);
        }
        Err(_) => return Err(error(format!("bad timestamp {t_str:?}"))),
    };
    let v = if v_str.eq_ignore_ascii_case("nan") {
        f64::NAN
    } else {
        v_str
            .parse::<f64>()
            .map_err(|_| error(format!("bad value {v_str:?}")))?
    };
    if !t.is_finite() {
        return Err(error("timestamp must be finite".into()));
    }
    Ok(Some((t, v)))
}

/// Offset of the `\n` ending the line that holds `i`, or the text length.
fn line_end(b: &[u8], i: usize) -> usize {
    b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |k| i + k)
}

/// Skips the ASCII whitespace [`str::trim`] strips, except the `\n` that
/// ends a line.
#[inline]
fn skip_blanks(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\r' | b'\x0B' | b'\x0C')) {
        i += 1;
    }
    i
}

/// Powers of ten up to the longest digit string [`decimal`] decodes; each
/// is an exact double.
const POW10: [f64; 20] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19,
];

/// Decodes a plain decimal `-?\d+(\.\d+)?` at `i` whose digits fit an
/// exact double mantissa, returning the value and the offset after it.
/// `None` for any other field, which then goes to `str::parse`.
#[inline]
fn decimal(b: &[u8], i: usize) -> Option<(f64, usize)> {
    let negative = b.get(i) == Some(&b'-');
    let start = i + negative as usize;
    let mut mantissa = 0u64;
    let int_end = digits(b, start, &mut mantissa);
    if int_end == start {
        return None;
    }
    let mut end = int_end;
    if b.get(int_end) == Some(&b'.') {
        end = digits(b, int_end + 1, &mut mantissa);
        if end == int_end + 1 {
            return None;
        }
    }
    let frac = end.saturating_sub(int_end + 1);
    let count = int_end - start + frac;
    // 19 digits cannot overflow the u64; 2^53 bounds the exact doubles.
    if count >= POW10.len() || mantissa > 1 << 53 {
        return None;
    }
    let magnitude = mantissa as f64 / POW10[frac];
    Some((if negative { -magnitude } else { magnitude }, end))
}

/// Accumulates the ASCII digits from `i` into `mantissa` (wrapping; the
/// caller bounds the count) and returns the offset after the last one.
#[inline]
fn digits(b: &[u8], mut i: usize, mantissa: &mut u64) -> usize {
    while let Some(&c) = b.get(i) {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        *mantissa = mantissa.wrapping_mul(10).wrapping_add(d as u64);
        i += 1;
    }
    i
}

/// Serializes a series as `time,value` CSV with a header. NaN values are
/// written as `nan`.
pub fn to_csv(series: &IrregularSeries) -> String {
    let mut out = String::from("time_seconds,value\n");
    for (t, v) in series.iter() {
        if v.is_nan() {
            out.push_str(&format!("{},nan\n", t.value()));
        } else {
            out.push_str(&format!("{},{}\n", t.value(), v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let s = IrregularSeries::new(
            vec![Seconds(0.0), Seconds(1.5), Seconds(3.0)],
            vec![10.0, f64::NAN, 12.5],
        );
        let csv = to_csv(&s);
        let back = parse_csv(&csv).unwrap();
        assert_eq!(back.times(), s.times());
        assert_eq!(back.values()[0], 10.0);
        assert!(back.values()[1].is_nan());
        assert_eq!(back.values()[2], 12.5);
    }

    #[test]
    fn parses_without_header() {
        let s = parse_csv("0,1.0\n5,2.0\n").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.values(), &[1.0, 2.0]);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let s = parse_csv("# a comment\n\n0,1\n# another\n1,2\n").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn sorts_out_of_order_rows() {
        let s = parse_csv("5,2\n0,1\n").unwrap();
        assert_eq!(s.times()[0], Seconds(0.0));
        assert_eq!(s.values(), &[1.0, 2.0]);
    }

    #[test]
    fn bad_value_is_an_error() {
        let err = parse_csv("0,1\n1,zzz\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bad value"));
    }

    #[test]
    fn bad_timestamp_mid_file_is_an_error() {
        let err = parse_csv("0,1\nxx,2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bad timestamp"));
    }

    #[test]
    fn three_fields_is_an_error() {
        let err = parse_csv("0,1,2\n").unwrap_err();
        assert!(err.message.contains("two fields"));
    }

    #[test]
    fn header_row_tolerated() {
        let s = parse_csv("time_seconds,value\n0,1\n").unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn header_after_leading_comment_and_blank_tolerated() {
        let s = parse_csv("# exported by sweetspot demo\n\ntime_seconds,value\n0,1\n5,2\n")
            .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.values(), &[1.0, 2.0]);
    }

    #[test]
    fn second_header_like_row_is_an_error() {
        let err = parse_csv("time_seconds,value\nalso,a header\n0,1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bad timestamp"));
    }

    #[test]
    fn header_after_data_is_an_error() {
        let err = parse_csv("0,1\ntime_seconds,value\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bad timestamp"));
    }

    #[test]
    fn duplicate_times_keep_the_first_row() {
        let s = parse_csv("0,1\n60,2\n60,3\n30,4\n").unwrap();
        assert_eq!(s.times(), &[Seconds(0.0), Seconds(30.0), Seconds(60.0)]);
        assert_eq!(s.values(), &[1.0, 4.0, 2.0]);
    }

    #[test]
    fn crlf_tabs_and_unicode_padding_parse() {
        let s = parse_csv("# c\r\ntime_seconds,value\r\n0,\t1.5\r\n\u{a0}60\u{a0},2e0\x0B\r\n")
            .unwrap();
        assert_eq!(s.times(), &[Seconds(0.0), Seconds(60.0)]);
        assert_eq!(s.values(), &[1.5, 2.0]);
    }

    #[test]
    fn plain_decimals_decode_like_str_parse() {
        for text in [
            "0",
            "-0",
            "-0.000",
            "007",
            "0.1",
            "0.3",
            "-52.12345",
            "9007199254740992",
            "0.9007199254740992",
            "2.225073858507201",
            "1234567.00000001",
        ] {
            let want: f64 = text.parse().unwrap();
            let (got, end) = decimal(text.as_bytes(), 0).expect(text);
            assert_eq!(end, text.len(), "{text}");
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
        // Past 2^53, 19 digits or the plain form, the decoder stops short
        // of the field's end and `str::parse` decides.
        for text in [
            "9007199254740993",
            "2.2250738585072014",
            "00000000000000000001",
            ".5",
            "5.",
            "+5",
            "1e3",
            "-",
        ] {
            let decoded = decimal(text.as_bytes(), 0);
            assert!(decoded.is_none_or(|(_, end)| end < text.len()), "{text}");
        }
    }

    #[test]
    fn trace_meta_display() {
        let m = TraceMeta {
            metric: "temperature".into(),
            device: "sw-17".into(),
        };
        assert_eq!(m.to_string(), "temperature@sw-17");
    }
}
