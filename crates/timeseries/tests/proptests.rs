//! Property-based tests for the time-series substrate.

use proptest::prelude::*;
use sweetspot_timeseries::clean::{clean, drop_invalid, regularize, CleanConfig};
use sweetspot_timeseries::ingest::{
    parse_csv, read_csv, to_csv, ParseError, ReadCsvError, READ_BUFFER_BYTES,
};
use sweetspot_timeseries::windowing::moving_windows;
use sweetspot_timeseries::{IrregularSeries, RegularSeries, Seconds};

/// Strategy: strictly increasing timestamps with jittered gaps, paired with
/// finite values.
fn irregular_strategy() -> impl Strategy<Value = IrregularSeries> {
    prop::collection::vec((0.1f64..100.0, -1e6f64..1e6), 2..80).prop_map(|gaps| {
        let mut t = 0.0;
        let mut pairs = Vec::with_capacity(gaps.len());
        for (gap, v) in gaps {
            t += gap;
            pairs.push((Seconds(t), v));
        }
        IrregularSeries::from_pairs(pairs)
    })
}

/// The line-based parser `parse_csv` replaced, kept verbatim as the oracle
/// for the byte-level one: every field goes through `str::parse`, and the
/// rows through `IrregularSeries::from_pairs`.
fn reference_parse_csv(text: &str) -> Result<IrregularSeries, ParseError> {
    let mut pairs: Vec<(Seconds, f64)> = Vec::new();
    let mut header_allowed = true;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',');
        let t_str = fields.next().unwrap_or("").trim();
        let v_str = fields.next().unwrap_or("").trim();
        if fields.next().is_some() {
            return Err(ParseError {
                line: i + 1,
                message: "expected exactly two fields".into(),
            });
        }
        let t = match t_str.parse::<f64>() {
            Ok(t) => t,
            // One header row is fine anywhere before the first data row
            // (tracking "first data row seen", not the literal line number,
            // so leading comments/blanks don't defeat it).
            Err(_) if header_allowed => {
                header_allowed = false;
                continue;
            }
            Err(_) => {
                return Err(ParseError {
                    line: i + 1,
                    message: format!("bad timestamp {t_str:?}"),
                })
            }
        };
        header_allowed = false;
        let v = if v_str.eq_ignore_ascii_case("nan") {
            f64::NAN
        } else {
            v_str.parse::<f64>().map_err(|_| ParseError {
                line: i + 1,
                message: format!("bad value {v_str:?}"),
            })?
        };
        if !t.is_finite() {
            return Err(ParseError {
                line: i + 1,
                message: "timestamp must be finite".into(),
            });
        }
        pairs.push((Seconds(t), v));
    }
    Ok(IrregularSeries::from_pairs(pairs))
}

/// Small choices drawn one after another out of one random word.
struct Draw(u64);

impl Draw {
    /// A choice in `0..n`.
    fn pick(&mut self, n: u64) -> usize {
        let k = self.0 % n;
        self.0 /= n;
        k as usize
    }

    /// One of `options`.
    fn of<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.pick(options.len() as u64)]
    }
}

/// Field padding: nothing, the ASCII whitespace `str::trim` strips
/// (`\x0B` and `\r` included) and non-ASCII whitespace (U+00A0, U+2003).
const PADS: [&str; 9] = ["", "", "", " ", "\t", "\x0B", "\r", "\u{a0}", "\u{2003}"];

/// A number-like field: 1–20 digits (leading zeros included) with an
/// optional sign, as an integer or `int.frac`, or one of the forms only
/// `str::parse` reads (`.5`, `5.`, `1e3`, `inf`, `NaN`, `nan`), or, when
/// `messy`, sometimes junk.
fn number(d: &mut Draw, digits: u64, messy: bool) -> String {
    let pool = format!("{digits:020}");
    let k = 1 + d.pick(20);
    let d_k = &pool[20 - k..];
    let sign = d.of(&["", "", "", "-", "+"]);
    let form = d.pick(16);
    let body = match if messy { form } else { form % 15 } {
        0..=4 => d_k.to_string(),
        5..=9 if k > 1 => {
            let split = 1 + d.pick(k as u64 - 1);
            format!("{}.{}", &d_k[..split], &d_k[split..])
        }
        5..=9 => format!("{d_k}.0"),
        10 => format!(".{d_k}"),
        11 => format!("{d_k}."),
        12 => format!(
            "{d_k}{}{}",
            d.of(&["e", "E"]),
            d.of(&["3", "-2", "+1", "308", "400"])
        ),
        13 => d.of(&["inf", "Infinity", "-inf"]).to_string(),
        14 => d.of(&["NaN", "nan", "NAN"]).to_string(),
        _ => d
            .of(&["", "x", "1.2.3", "-", "1_0", "0x10", "١"])
            .to_string(),
    };
    format!("{sign}{body}")
}

/// One CSV line. Mostly data rows whose times step forward from `clock`,
/// sometimes repeating or stepping back; then comments and blank lines;
/// and when `messy`, header-like rows, malformed rows (1 or 3 fields,
/// empty fields) and arbitrary number-like times.
fn csv_line(kind: u32, mut d: Draw, digits: u64, clock: &mut u64, messy: bool) -> String {
    let (p0, p1, p2, p3) = (d.of(&PADS), d.of(&PADS), d.of(&PADS), d.of(&PADS));
    match kind {
        80..=84 => format!("{p0}#{}", d.of(&[" comment", "", " a,b,c", "1,2"])),
        85..=89 => format!("{p0}{p1}"),
        90..=94 if messy => format!(
            "{p0}{}{p1},{p2}{}{p3}",
            d.of(&["time_seconds", "t", "", "time"]),
            d.of(&["value", "", "v"])
        ),
        95.. if messy => match d.pick(4) {
            0 => format!("{p0}{clock}{p1}"),
            1 => format!("{p0}{clock},{p1}"),
            2 => format!("{p0}{clock},1,{p1}2"),
            _ => format!("{p0},{p1}"),
        },
        _ => {
            match d.pick(10) {
                0 => {}
                1 => *clock = clock.saturating_sub(1 + d.pick(300) as u64),
                _ => *clock += 1 + d.pick(120) as u64,
            }
            let t = match d.pick(8) {
                0 => format!("{clock}.{}", d.of(&["5", "25", "0", "125"])),
                1 => format!("{clock}e0"),
                2 => format!("000{clock}"),
                3 if messy => number(&mut d, digits, messy),
                _ => clock.to_string(),
            };
            let v = number(&mut d, digits.rotate_left(17), messy);
            format!("{p0}{t}{p1},{p2}{v}{p3}")
        }
    }
}

/// A CSV text of `lines`, ending in LF, CRLF or a mix of both, with or
/// without a final newline. `shape` also decides whether the text is messy
/// (most messy texts are errors) and whether a header, after comments
/// or not, leads it.
fn csv_text(lines: Vec<(u32, u64, u64)>, shape: u64) -> String {
    let mut d = Draw(shape);
    let style = d.pick(3);
    let final_newline = d.pick(2) == 0;
    let messy = d.pick(2) == 0;
    let mut clock = 0;
    let mut text = match d.pick(4) {
        0 => String::from("time_seconds,value\n"),
        1 => String::from("# exported trace\r\n\n\ttime_seconds , value\r\n"),
        _ => String::new(),
    };
    let count = lines.len();
    for (i, (kind, word, digits)) in lines.into_iter().enumerate() {
        text.push_str(&csv_line(kind, Draw(word), digits, &mut clock, messy));
        if i + 1 < count || final_newline {
            let crlf = style == 1 || (style == 2 && d.pick(2) == 0);
            text.push_str(if crlf { "\r\n" } else { "\n" });
        }
    }
    text
}

/// The same series bit for bit (times and values, NaN payloads included)
/// or the same error.
fn same_parse(
    a: &Result<IrregularSeries, ParseError>,
    b: &Result<IrregularSeries, ParseError>,
) -> bool {
    let bits = |s: &IrregularSeries| -> (Vec<u64>, Vec<u64>) {
        (
            s.times().iter().map(|t| t.value().to_bits()).collect(),
            s.values().iter().map(|v| v.to_bits()).collect(),
        )
    };
    match (a, b) {
        (Ok(x), Ok(y)) => bits(x) == bits(y),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_pairs_always_sorted(pairs in prop::collection::vec((0f64..1e6, -1e3f64..1e3), 0..50)) {
        let series = IrregularSeries::from_pairs(
            pairs.into_iter().map(|(t, v)| (Seconds(t), v)).collect(),
        );
        for w in series.times().windows(2) {
            prop_assert!(w[0].value() < w[1].value());
        }
    }

    #[test]
    fn regularize_covers_span_with_input_values(series in irregular_strategy()) {
        let interval = Seconds(1.0);
        let regular = regularize(&series, interval).unwrap();
        // Grid starts at the first sample and covers the last.
        prop_assert_eq!(regular.start(), series.start().unwrap());
        let end = regular.time_of(regular.len() - 1);
        prop_assert!(end.value() >= series.end().unwrap().value() - interval.value());
        // Every value is one of the input values (nearest-neighbour).
        for v in regular.values() {
            prop_assert!(series.values().contains(v));
        }
    }

    #[test]
    fn regularize_identity_on_regular_input(
        n in 2usize..60,
        interval in 0.5f64..100.0,
        base in -100f64..100.0,
    ) {
        let values: Vec<f64> = (0..n).map(|i| base + i as f64).collect();
        let reg = RegularSeries::new(Seconds(5.0), Seconds(interval), values);
        let back = regularize(&reg.to_irregular(), Seconds(interval)).unwrap();
        prop_assert_eq!(back, reg);
    }

    #[test]
    fn clean_output_has_no_nans(series in irregular_strategy()) {
        if let Ok(out) = clean(&series, CleanConfig::default()) {
            prop_assert!(out.values().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn drop_invalid_is_idempotent(series in irregular_strategy()) {
        let once = drop_invalid(&series);
        let twice = drop_invalid(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn csv_roundtrip_preserves_series(series in irregular_strategy()) {
        let text = to_csv(&series);
        let back = parse_csv(&text).unwrap();
        // `to_csv` writes shortest round-trip decimals, so parsing them
        // back must restore every bit.
        prop_assert_eq!(back.len(), series.len());
        for ((t1, v1), (t2, v2)) in series.iter().zip(back.iter()) {
            prop_assert_eq!(t1.value().to_bits(), t2.value().to_bits());
            prop_assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }

    #[test]
    fn windows_cover_only_valid_ranges(
        n in 10usize..200,
        win in 2usize..50,
        step in 1usize..20,
    ) {
        let series = RegularSeries::new(
            Seconds::ZERO,
            Seconds(1.0),
            (0..n).map(|i| i as f64).collect(),
        );
        for view in moving_windows(&series, Seconds(win as f64), Seconds(step as f64)) {
            prop_assert!(view.start_index + view.values.len() <= n);
            // The window borrows the series' own samples, not a copy.
            prop_assert!(std::ptr::eq(view.values.as_ptr(), &series.values()[view.start_index]));
            for (k, &v) in view.values.iter().enumerate() {
                prop_assert_eq!(v, (view.start_index + k) as f64);
            }
        }
    }

    #[test]
    fn nearest_value_returns_an_input_value(series in irregular_strategy(), t in 0f64..5000.0) {
        let v = series.nearest_value(Seconds(t));
        prop_assert!(series.values().contains(&v));
    }

    #[test]
    fn median_interval_within_gap_range(series in irregular_strategy()) {
        let m = series.median_interval().unwrap().value();
        let gaps: Vec<f64> = series
            .times()
            .windows(2)
            .map(|w| w[1].value() - w[0].value())
            .collect();
        let lo = gaps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = gaps.iter().cloned().fold(0.0, f64::max);
        prop_assert!(m >= lo - 1e-12 && m <= hi + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parse_csv_matches_the_line_based_reference(
        lines in prop::collection::vec((0u32..100, 0u64..u64::MAX, 0u64..u64::MAX), 0..40),
        shape in 0u64..u64::MAX,
    ) {
        let text = csv_text(lines, shape);
        let (got, want) = (parse_csv(&text), reference_parse_csv(&text));
        prop_assert!(same_parse(&got, &want), "{text:?}\n got {got:?}\nwant {want:?}");
    }
}

/// A reader that hands out `bytes` in reads of 1 to 64 bytes, the lengths
/// drawn from a xorshift stream seeded by `state`.
struct Trickle<'a> {
    bytes: &'a [u8],
    state: u64,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let n = (1 + (self.state % 64) as usize)
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The streaming twin of `parse_csv_matches_the_line_based_reference`.
    /// A comment line pads the text so that the end of `read_csv`'s first
    /// buffer falls `cut` bytes into the generated lines, splitting a line,
    /// a `\r\n` pair or multi-byte padding anywhere, and the stream arrives
    /// in reads of 1 to 64 bytes. The result must still be the reference's
    /// series, or its error on its line.
    #[test]
    fn read_csv_matches_the_line_based_reference(
        lines in prop::collection::vec((0u32..100, 0u64..u64::MAX, 0u64..u64::MAX), 0..40),
        shape in 0u64..u64::MAX,
        cut in 0usize..usize::MAX,
        reads in 1u64..u64::MAX,
    ) {
        let lines = csv_text(lines, shape);
        let cut = cut % (lines.len() + 1);
        let text = format!("#{}\n{lines}", "-".repeat(READ_BUFFER_BYTES - cut - 2));
        let got = match read_csv(Trickle { bytes: text.as_bytes(), state: reads }) {
            Err(ReadCsvError::Io(e)) => panic!("valid UTF-8 read as {e}"),
            Err(ReadCsvError::Parse(e)) => Err(e),
            Ok(series) => Ok(series),
        };
        let want = reference_parse_csv(&text);
        prop_assert!(same_parse(&got, &want), "{lines:?} cut at {cut}\n got {got:?}\nwant {want:?}");
    }
}
