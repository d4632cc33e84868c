//! Allocation-conscious JSON fragment helpers for snapshot writers.
//!
//! Snapshot lines are emitted once per epoch from a loop that must stay at
//! zero steady-state heap allocations, so everything here *appends into a
//! caller-owned `String`* — the buffer grows once to its high-water mark and
//! is reused for every subsequent line. (`std`'s float formatting writes
//! through stack buffers, so `write!` into a pre-grown `String` does not
//! allocate.)

use std::fmt::Write;

/// Appends `s` as a JSON string literal (quotes included).
pub fn string_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number: Rust's `{}` float formatting is the
/// shortest digit string that round-trips, which is valid JSON for every
/// finite value. Non-finite values (JSON has no spelling for them) become
/// `null`.
pub fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends an unsigned integer field value.
pub fn uint_into(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn strings_escape_controls_and_quotes() {
        assert_eq!(s(|o| string_into(o, "plain")), "\"plain\"");
        assert_eq!(s(|o| string_into(o, "a\"b\\c\n")), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(s(|o| string_into(o, "\u{1}")), "\"\\u0001\"");
        assert_eq!(s(|o| string_into(o, "a\u{1}b")), "\"a\\u0001b\"");
        assert_eq!(
            s(|o| string_into(o, "tab\tnl\ncr\r")),
            "\"tab\\tnl\\ncr\\r\""
        );
    }

    #[test]
    fn numbers_round_trip_and_null_out_nonfinite() {
        assert_eq!(s(|o| number_into(o, 0.25)), "0.25");
        assert_eq!(s(|o| number_into(o, 0.1)), "0.1");
        let third: f64 = s(|o| number_into(o, 1.0 / 3.0)).parse().unwrap();
        assert_eq!(third, 1.0 / 3.0, "shortest-roundtrip formatting");
        assert_eq!(s(|o| number_into(o, -3.0)), "-3");
        assert_eq!(s(|o| number_into(o, f64::NAN)), "null");
        assert_eq!(s(|o| number_into(o, f64::INFINITY)), "null");
        assert_eq!(s(|o| uint_into(o, 42)), "42");
    }

    #[test]
    fn appending_into_pregrown_buffer_keeps_capacity() {
        let mut out = String::with_capacity(256);
        let cap = out.capacity();
        for _ in 0..10 {
            out.clear();
            string_into(&mut out, "kind");
            out.push(':');
            number_into(&mut out, 1.2345678);
        }
        assert_eq!(out.capacity(), cap);
    }
}
