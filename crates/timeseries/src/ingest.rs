//! Trace import/export.
//!
//! A deliberately tiny CSV dialect (`time_seconds,value` with an optional
//! header) so traces can round-trip through files without adding a CSV
//! dependency, plus a serde-able [`TraceMeta`] describing where a trace came
//! from — the `(metric, device)` pair identity used throughout the paper's
//! §3.2 study.
//!
//! Two entry points share one parser core: [`parse_csv`] parses a text held
//! in memory, and [`read_csv`] parses a stream (a file, a pipe) through a
//! fixed [`READ_BUFFER_BYTES`] buffer, handing the core each read's
//! complete lines, so a trace is never held as text. Both give the same
//! series, or the same error on the same line, for the same bytes.
//!
//! # Accepted grammar
//!
//! The text is read line by line; lines end at `\n`, so CRLF files parse
//! like LF files. One UTF-8 byte-order mark (`EF BB BF`, which spreadsheet
//! exports put first) is dropped from the start of the text; anywhere else
//! it is an ordinary character. Each line is trimmed as [`str::trim`] trims
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
use std::io::{self, Read};

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

/// Error from [`parse_csv`]: the line that breaks the grammar, and why.
/// [`read_csv`] reports it as [`ReadCsvError::Parse`].
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

/// Parses a `time,value` CSV held in memory (grammar and exactness in the
/// [module docs](crate::ingest)). Blank lines and `#` comments are skipped;
/// a single non-numeric header row before the first data row is tolerated —
/// even when comments or blank lines precede it. The literal value `nan`
/// (case-insensitive) marks a lost measurement.
///
/// One pass over the bytes writes straight into the time and value
/// columns, sized up front from the text's line count; when the times
/// arrive strictly increasing (every trace this workspace writes) they
/// become the series as they are, and only other inputs go through
/// [`IrregularSeries::from_pairs`]' sort and dedup. [`read_csv`] parses the
/// same grammar from a stream.
pub fn parse_csv(text: &str) -> Result<IrregularSeries, ParseError> {
    // Every row ends at a newline or at the end of the text, so this bounds
    // the row count and the columns never reallocate.
    let rows = text.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut parser = Parser::with_capacity(rows);
    parser.feed(text)?;
    Ok(parser.finish())
}

/// Bytes [`read_csv`] reads at a time. Only a line longer than this grows
/// the buffer, until the line fits.
pub const READ_BUFFER_BYTES: usize = 64 * 1024;

/// Error from [`read_csv`].
#[derive(Debug)]
pub enum ReadCsvError {
    /// Reading failed, or the stream is not UTF-8 (`ErrorKind::InvalidData`,
    /// the error [`std::io::Read::read_to_string`] gives).
    Io(io::Error),
    /// The text does not follow the grammar.
    Parse(ParseError),
}

impl fmt::Display for ReadCsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadCsvError::Io(e) => e.fmt(f),
            ReadCsvError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadCsvError {}

/// Parses a `time,value` CSV from a stream: the grammar, line numbers,
/// errors and result of [`parse_csv`] on the stream's whole text, without
/// holding that text.
///
/// The stream is read through one [`READ_BUFFER_BYTES`] buffer, filled
/// without being zeroed first, so a short trace touches only the pages it
/// fills. Each fill's complete lines go to the parser and only the
/// unfinished last line stays behind. The columns grow as rows arrive; a
/// stream longer than one buffer gets room for a full buffer's worth of
/// rows at once.
///
/// A stream that is not UTF-8 anywhere fails with [`ReadCsvError::Io`]
/// (`stream did not contain valid UTF-8`) even after a parse error earlier
/// in it, as reading the whole text with [`std::io::Read::read_to_string`]
/// first would, so after a parse error the rest of the stream is still read
/// and checked.
pub fn read_csv(mut reader: impl Read) -> Result<IrregularSeries, ReadCsvError> {
    // `read_to_end` fills spare capacity without zeroing it first.
    let mut buf = Vec::with_capacity(READ_BUFFER_BYTES);
    let mut parser = Parser::with_capacity(0);
    let mut parsed = Ok(());
    let mut first = true;
    loop {
        if buf.len() == buf.capacity() {
            // The unfinished line fills the buffer.
            buf.reserve(buf.len());
        }
        // Fill the buffer, or read to the end of the stream.
        let start = buf.len();
        let room = (buf.capacity() - start) as u64;
        reader
            .by_ref()
            .take(room)
            .read_to_end(&mut buf)
            .map_err(ReadCsvError::Io)?;
        let at_end = buf.len() < buf.capacity();
        if std::mem::take(&mut first) && !at_end {
            // A stream longer than one buffer: room for the most rows a
            // buffer holds (a row takes at least 4 bytes, `0,0\n`), so the
            // columns skip the small sizes an allocator carves from its
            // shared heap, whose outgrown pages stay resident.
            parser.reserve(READ_BUFFER_BYTES / 4);
        }
        // Whole lines run through the last newline; at the end of the
        // stream, through its last byte. A newline never falls inside a
        // UTF-8 sequence, so each batch of lines is checked on its own.
        let lines = match buf[start..].iter().rposition(|&b| b == b'\n') {
            _ if at_end => buf.len(),
            Some(k) => start + k + 1,
            None => continue,
        };
        let text = std::str::from_utf8(&buf[..lines]).map_err(|_| {
            ReadCsvError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))
        })?;
        if parsed.is_ok() {
            parsed = parser.feed(text);
        }
        if at_end {
            break;
        }
        buf.drain(..lines);
    }
    parsed.map_err(ReadCsvError::Parse)?;
    Ok(parser.finish())
}

/// The parser core behind [`parse_csv`] and [`read_csv`]: the columns and
/// the state that carries from one line to the next, fed text that ends at
/// a line end.
struct Parser {
    times: Vec<Seconds>,
    values: Vec<f64>,
    /// No data row yet, and no header row skipped.
    header_allowed: bool,
    /// Every time so far exceeds the one before it.
    increasing: bool,
    /// Number of the last line parsed (1-based).
    line: usize,
    /// Nothing fed yet: the next text starts the stream.
    at_start: bool,
}

impl Parser {
    fn with_capacity(rows: usize) -> Self {
        Parser {
            times: Vec::with_capacity(rows),
            values: Vec::with_capacity(rows),
            header_allowed: true,
            increasing: true,
            line: 0,
            at_start: true,
        }
    }

    /// Makes room for `rows` more rows.
    fn reserve(&mut self, rows: usize) {
        self.times.reserve(rows);
        self.values.reserve(rows);
    }

    /// Parses the lines of `text`, which ends after a `\n` or at the end of
    /// the stream. A byte-order mark opening the stream is not part of its
    /// first line.
    fn feed(&mut self, text: &str) -> Result<(), ParseError> {
        let text = match std::mem::take(&mut self.at_start) {
            true => text.strip_prefix('\u{FEFF}').unwrap_or(text),
            false => text,
        };
        let bytes = text.as_bytes();
        let (times, values) = (&mut self.times, &mut self.values);
        let (mut header_allowed, mut increasing, mut line) =
            (self.header_allowed, self.increasing, self.line);
        let mut pos = 0;
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
        (self.header_allowed, self.increasing, self.line) = (header_allowed, increasing, line);
        Ok(())
    }

    /// The series of every row fed, sorted and deduplicated if the times
    /// did not arrive strictly increasing.
    fn finish(self) -> IrregularSeries {
        if self.increasing {
            IrregularSeries::new(self.times, self.values)
        } else {
            IrregularSeries::from_pairs(self.times.into_iter().zip(self.values).collect())
        }
    }
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
    b[i..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(b.len(), |k| i + k)
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
        let s =
            parse_csv("# exported by sweetspot demo\n\ntime_seconds,value\n0,1\n5,2\n").unwrap();
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
    fn a_leading_byte_order_mark_is_not_part_of_the_first_row() {
        let rows = "0,1\n60,2\n";
        let with_bom = format!("\u{FEFF}{rows}");
        let want = parse_csv(rows).unwrap();
        assert_eq!(parse_csv(&with_bom).unwrap(), want);
        assert_eq!(read_csv(with_bom.as_bytes()).unwrap(), want);
        // Before a header the mark goes too, and the header is still skipped.
        let header = format!("\u{FEFF}time_seconds,value\n{rows}");
        assert_eq!(read_csv(header.as_bytes()).unwrap(), want);
        // Only one mark, and only at the start of the text.
        let twice = format!("\u{FEFF}\u{FEFF}{rows}");
        assert_eq!(
            parse_csv(&twice).unwrap().len(),
            1,
            "the second mark makes a header"
        );
        let err = parse_csv(&format!("{rows}\u{FEFF}120,3\n")).unwrap_err();
        assert_eq!((err.line, err.message.contains("bad timestamp")), (3, true));
    }

    /// Hands out at most `chunk` bytes per read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_csv_holds_lines_longer_than_its_buffer() {
        let padding = " ".repeat(3 * READ_BUFFER_BYTES);
        let text = format!("# {padding}\n0,{padding}1\n{padding}60,2{padding}");
        let want = parse_csv(&text).unwrap();
        assert_eq!(want.values(), &[1.0, 2.0]);
        for chunk in [1000, READ_BUFFER_BYTES, 10 * READ_BUFFER_BYTES] {
            let got = read_csv(Trickle {
                bytes: text.as_bytes(),
                chunk,
            })
            .unwrap();
            assert_eq!(got, want, "{chunk}-byte reads");
        }
    }

    #[test]
    fn invalid_utf8_anywhere_outranks_a_parse_error() {
        let invalid = |e: ReadCsvError| match e {
            ReadCsvError::Io(e) => {
                e.kind() == io::ErrorKind::InvalidData
                    && e.to_string() == "stream did not contain valid UTF-8"
            }
            ReadCsvError::Parse(_) => false,
        };
        // The bad byte in a comment the fast path would skip, after a bad
        // row, on a line longer than the read buffer.
        let mut bytes = b"0,1\nxx,2\n".to_vec();
        bytes.extend(std::iter::repeat_n(b'#', 2 * READ_BUFFER_BYTES));
        bytes.extend(b"\xFF\n3,4\n");
        for chunk in [7, READ_BUFFER_BYTES] {
            assert!(invalid(
                read_csv(Trickle {
                    bytes: &bytes,
                    chunk
                })
                .unwrap_err()
            ));
        }
        // A valid stream keeps its parse error, line number included.
        match read_csv(&b"0,1\nxx,2\n"[..]) {
            Err(ReadCsvError::Parse(e)) => assert_eq!(e, parse_csv("0,1\nxx,2\n").unwrap_err()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn read_csv_retries_interrupted_reads_and_passes_on_other_errors() {
        /// Answers each read with the next scripted chunk or error.
        struct Script(std::collections::VecDeque<Result<&'static [u8], io::ErrorKind>>);
        impl Read for Script {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.pop_front() {
                    Some(Ok(chunk)) => {
                        buf[..chunk.len()].copy_from_slice(chunk);
                        Ok(chunk.len())
                    }
                    Some(Err(kind)) => Err(kind.into()),
                    None => Ok(0),
                }
            }
        }
        let script = |steps: Vec<Result<&'static [u8], io::ErrorKind>>| Script(steps.into());
        let ok = read_csv(script(vec![
            Ok(b"0,1\n6"),
            Err(io::ErrorKind::Interrupted),
            Ok(b"0,2"),
        ]));
        assert_eq!(ok.unwrap().values(), &[1.0, 2.0]);
        let err = read_csv(script(vec![
            Ok(b"0,1\n"),
            Err(io::ErrorKind::PermissionDenied),
        ]));
        assert!(
            matches!(err, Err(ReadCsvError::Io(e)) if e.kind() == io::ErrorKind::PermissionDenied)
        );
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
