//! The workspace's one JSON writer.
//!
//! Every machine-readable output — the `--metrics-out` JSON lines, the
//! `fleetsim --json` frontier and the `study --json` summary — is written
//! through [`object`], and no other module spells JSON punctuation.
//!
//! The writer is append-only and writes into a *caller-owned `String`*.
//! Snapshot lines are emitted once per epoch from a loop that must stay at
//! zero steady-state heap allocations, so the buffer grows once to its
//! high-water mark and is reused for every later line. (`std`'s float
//! formatting writes through stack buffers, so `write!` into a pre-grown
//! `String` does not allocate.) Nested objects and arrays are written
//! through closures: each level is a cursor over the same buffer that only
//! knows whether it has written a member yet, so there is no depth stack,
//! no temporary string, and no way to leave a bracket unclosed.
//!
//! Value kinds are exactly those the outputs use: strings, numbers (`null`
//! when not finite), exact unsigned integers, explicit `null`, objects and
//! arrays.

use std::fmt::Write;

/// Appends one JSON object to `out`: `{`, the members `body` writes, `}`.
pub fn object(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    body(&mut Object(Members { out, empty: true }));
    out.push('}');
}

/// The comma bookkeeping shared by objects and arrays.
struct Members<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Members<'_> {
    /// Starts a member and returns the buffer it is appended to.
    fn next(&mut self) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out
    }
}

/// The members of an object being written by [`object`]. Keys are written
/// in call order; every method returns `self` so fields chain.
pub struct Object<'a>(Members<'a>);

impl Object<'_> {
    /// Starts a member: separator, quoted key, colon.
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        string(out, key);
        out.push(':');
        out
    }

    /// A string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        string(self.key(key), value);
        self
    }

    /// A number field (`null` when not finite).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        number(self.key(key), value);
        self
    }

    /// A number field, `null` when `value` is `None`.
    pub fn opt_num(&mut self, key: &str, value: Option<f64>) -> &mut Self {
        match value {
            Some(v) => self.num(key, v),
            None => self.null(key),
        }
    }

    /// An exact unsigned integer field (never rounded through `f64`).
    pub fn uint(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// An explicit `null` field.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// A nested object field whose members `body` writes.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object(self.key(key), body);
        self
    }

    /// A nested array field whose elements `body` writes.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        body(&mut Array(Members { out, empty: true }));
        out.push(']');
        self
    }
}

/// The elements of an array being written by [`Object::array`].
pub struct Array<'a>(Members<'a>);

impl Array<'_> {
    /// A number element (`null` when not finite).
    pub fn num(&mut self, value: f64) -> &mut Self {
        number(self.0.next(), value);
        self
    }

    /// An object element whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object(self.0.next(), body);
        self
    }
}

/// Appends `s` as a JSON string literal (quotes included).
fn string(out: &mut String, s: &str) {
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
fn number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(body: impl FnOnce(&mut Object<'_>)) -> String {
        let mut out = String::new();
        object(&mut out, body);
        out
    }

    #[test]
    fn strings_escape_controls_and_quotes() {
        for (raw, escaped) in [
            ("plain", "\"plain\""),
            ("a\"b\\c\n", "\"a\\\"b\\\\c\\n\""),
            ("\u{1}", "\"\\u0001\""),
            ("a\u{1}b", "\"a\\u0001b\""),
            ("tab\tnl\ncr\r", "\"tab\\tnl\\ncr\\r\""),
        ] {
            assert_eq!(
                json(|o| {
                    o.str("s", raw);
                }),
                format!("{{\"s\":{escaped}}}")
            );
        }
        // Keys are escaped the same way.
        assert_eq!(
            json(|o| {
                o.null("k\"\n");
            }),
            "{\"k\\\"\\n\":null}"
        );
    }

    #[test]
    fn numbers_round_trip_and_null_out_nonfinite() {
        let num = |v: f64| {
            json(|o| {
                o.num("v", v);
            })
        };
        assert_eq!(num(0.25), "{\"v\":0.25}");
        assert_eq!(num(0.1), "{\"v\":0.1}");
        let third = num(1.0 / 3.0);
        let third: f64 = third["{\"v\":".len()..third.len() - 1].parse().unwrap();
        assert_eq!(third, 1.0 / 3.0, "shortest-roundtrip formatting");
        assert_eq!(num(-3.0), "{\"v\":-3}");
        assert_eq!(num(f64::NAN), "{\"v\":null}");
        assert_eq!(num(f64::INFINITY), "{\"v\":null}");
        assert_eq!(
            json(|o| {
                o.opt_num("a", Some(2.5)).opt_num("b", None);
            }),
            "{\"a\":2.5,\"b\":null}"
        );
    }

    #[test]
    fn json_object_builds_all_field_kinds() {
        let out = json(|o| {
            o.str("name", "fleet \"a\"\n")
                .num("count", 3.0)
                .num("bad", f64::INFINITY)
                .null("none")
                // Integers beyond 2^53 would round if written through f64.
                .uint("odd", (1 << 53) + 1)
                .uint("max", u64::MAX)
                .array("items", |a| {
                    a.num(1.0).num(2.5).object(|e| {
                        e.str("x", "y").array("empty", |_| {});
                    });
                })
                .object("inner", |i| {
                    i.object("deeper", |_| {}).num("nan", f64::NAN);
                });
        });
        assert_eq!(
            out,
            "{\"name\":\"fleet \\\"a\\\"\\n\",\"count\":3,\"bad\":null,\"none\":null,\
             \"odd\":9007199254740993,\"max\":18446744073709551615,\
             \"items\":[1,2.5,{\"x\":\"y\",\"empty\":[]}],\
             \"inner\":{\"deeper\":{},\"nan\":null}}"
        );
        assert_eq!(json(|_| {}), "{}");
    }

    #[test]
    fn appending_into_pregrown_buffer_keeps_capacity() {
        // An epoch-shaped line: top-level scalars, nested objects, a
        // loop-written object, and an optional block.
        let mut out = String::with_capacity(512);
        let cap = out.capacity();
        for epoch in 0..10u64 {
            out.clear();
            object(&mut out, |o| {
                o.str("type", "epoch")
                    .uint("schema", 2)
                    .str("policy", "waterfill")
                    .num("budget", f64::INFINITY)
                    .uint("epoch", epoch)
                    .object("ledger", |l| {
                        l.num("demanded", 1.2345678)
                            .num("spent", 0.1)
                            .uint("samples", u64::MAX);
                    })
                    .object("controller", |c| {
                        for (name, v) in [("probe", 1), ("hold", 2), ("cut", 3)] {
                            c.uint(name, v);
                        }
                    });
                if epoch % 2 == 0 {
                    o.object("scenario", |s| {
                        s.object("dealt", |d| {
                            d.uint("leaves", epoch);
                        });
                    });
                }
                o.object("grants", |g| {
                    g.num("p50", 1.0 / 3.0).num("p99", f64::NAN);
                });
            });
        }
        assert!(
            out.starts_with("{\"type\":\"epoch\",\"schema\":2,"),
            "{out}"
        );
        assert!(
            out.ends_with("\"grants\":{\"p50\":0.3333333333333333,\"p99\":null}}"),
            "{out}"
        );
        assert_eq!(out.capacity(), cap);
    }
}
