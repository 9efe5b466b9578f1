//! Plain-text interchange format for designs.
//!
//! A minimal, diff-friendly format so benchmarks can be checked into a
//! repository and exchanged with other tools:
//!
//! ```text
//! design I1
//! die 0 0 20000 20000
//! group I1_bus0
//! bit 100 200 : 9000 9100 , 9000 9150
//! bit 110 200 : 9010 9100
//! end
//! ```
//!
//! Every `bit` line lists the source pin, a colon, then comma-separated
//! sink pins. Groups are closed by `end`. Blank lines and `#` comments are
//! ignored.
//!
//! # Examples
//!
//! ```
//! use operon_netlist::io::{read_design, write_design};
//! use operon_netlist::synth::{generate, SynthConfig};
//!
//! let d = generate(&SynthConfig::small(), 5);
//! let text = write_design(&d);
//! let back = read_design(&text)?;
//! assert_eq!(d, back);
//! # Ok::<(), operon_netlist::io::ParseDesignError>(())
//! ```

use crate::{Bit, BitId, Design, GroupId, SignalGroup};
use core::fmt;
use operon_geom::{BoundingBox, Point, DIE_SCALE};
use std::error::Error;

/// Error returned by [`read_design`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseDesignError {
    line: usize,
    message: String,
}

impl ParseDesignError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }

    /// The 1-based line number where parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseDesignError {}

/// Serializes a design to the text format.
pub fn write_design(design: &Design) -> String {
    let mut out = String::new();
    out.push_str(&format!("design {}\n", design.name()));
    let die = design.die();
    out.push_str(&format!(
        "die {} {} {} {}\n",
        die.lo().x,
        die.lo().y,
        die.hi().x,
        die.hi().y
    ));
    for group in design.groups() {
        out.push_str(&format!("group {}\n", group.name()));
        for bit in group.bits() {
            out.push_str(&format!("bit {} {} :", bit.source().x, bit.source().y));
            for (i, sink) in bit.sinks().iter().enumerate() {
                if i > 0 {
                    out.push_str(" ,");
                }
                out.push_str(&format!(" {} {}", sink.x, sink.y));
            }
            out.push('\n');
        }
        out.push_str("end\n");
    }
    out
}

/// Parses a design from the text format.
///
/// # Errors
///
/// Returns a [`ParseDesignError`] naming the offending line on any
/// malformed input: missing header, unclosed group, bad coordinates, a
/// die corner at or beyond [`DIE_SCALE`] in magnitude, pins outside the
/// die, or empty groups.
pub fn read_design(text: &str) -> Result<Design, ParseDesignError> {
    let mut name: Option<String> = None;
    let mut design: Option<Design> = None;
    let mut current: Option<(String, Vec<Bit>)> = None;
    let mut group_idx = 0u32;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let Some(keyword) = tokens.next() else {
            continue; // unreachable: the line was trimmed and is non-empty
        };
        match keyword {
            "design" => {
                let n: Vec<&str> = tokens.collect();
                if n.is_empty() {
                    return Err(ParseDesignError::new(lineno, "design line needs a name"));
                }
                name = Some(n.join(" "));
            }
            "die" => {
                let nums = parse_i64s(&mut tokens, 4, lineno)?;
                if nums
                    .iter()
                    .any(|c| c.unsigned_abs() >= DIE_SCALE.unsigned_abs())
                {
                    return Err(ParseDesignError::new(
                        lineno,
                        format!("die corner coordinates must lie strictly within ±{DIE_SCALE}"),
                    ));
                }
                let d =
                    BoundingBox::new(Point::new(nums[0], nums[1]), Point::new(nums[2], nums[3]));
                let Some(n) = name.clone() else {
                    return Err(ParseDesignError::new(
                        lineno,
                        "die line must follow the design line",
                    ));
                };
                if d.width() <= 0 || d.height() <= 0 {
                    return Err(ParseDesignError::new(lineno, "die must have positive area"));
                }
                design = Some(Design::new(n, d));
            }
            "group" => {
                if design.is_none() {
                    return Err(ParseDesignError::new(
                        lineno,
                        "group before design/die header",
                    ));
                }
                if current.is_some() {
                    return Err(ParseDesignError::new(lineno, "previous group not closed"));
                }
                let n: Vec<&str> = tokens.collect();
                if n.is_empty() {
                    return Err(ParseDesignError::new(lineno, "group line needs a name"));
                }
                current = Some((n.join(" "), Vec::new()));
            }
            "bit" => {
                let Some((_, bits)) = current.as_mut() else {
                    return Err(ParseDesignError::new(lineno, "bit outside of a group"));
                };
                let rest: Vec<&str> = tokens.collect();
                let joined = rest.join(" ");
                let Some((src_part, sink_part)) = joined.split_once(':') else {
                    return Err(ParseDesignError::new(
                        lineno,
                        "bit line must contain ':' separating source and sinks",
                    ));
                };
                let source = parse_point(src_part, lineno)?;
                let mut sinks = Vec::new();
                for chunk in sink_part.split(',') {
                    if chunk.trim().is_empty() {
                        continue;
                    }
                    sinks.push(parse_point(chunk, lineno)?);
                }
                if sinks.is_empty() {
                    return Err(ParseDesignError::new(lineno, "bit has no sinks"));
                }
                let id = BitId::new(bits.len() as u32);
                bits.push(Bit::new(id, source, sinks));
            }
            "end" => {
                let Some((gname, bits)) = current.take() else {
                    return Err(ParseDesignError::new(lineno, "end without open group"));
                };
                if bits.is_empty() {
                    return Err(ParseDesignError::new(lineno, "group has no bits"));
                }
                let Some(d) = design.as_mut() else {
                    return Err(ParseDesignError::new(
                        lineno,
                        "group before design/die header",
                    ));
                };
                let die = d.die();
                for bit in &bits {
                    for p in bit.pins() {
                        if !die.contains(p) {
                            return Err(ParseDesignError::new(
                                lineno,
                                format!("pin {p} outside die {die}"),
                            ));
                        }
                    }
                }
                d.push_group(SignalGroup::new(GroupId::new(group_idx), gname, bits));
                group_idx += 1;
            }
            other => {
                return Err(ParseDesignError::new(
                    lineno,
                    format!("unknown keyword '{other}'"),
                ));
            }
        }
    }
    if current.is_some() {
        return Err(ParseDesignError::new(
            text.lines().count(),
            "unclosed group at end of input",
        ));
    }
    design.ok_or_else(|| ParseDesignError::new(1, "missing design/die header"))
}

fn parse_i64s<'a, I>(tokens: &mut I, n: usize, lineno: usize) -> Result<Vec<i64>, ParseDesignError>
where
    I: Iterator<Item = &'a str>,
{
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let tok = tokens
            .next()
            .ok_or_else(|| ParseDesignError::new(lineno, "missing coordinate"))?;
        let v = tok
            .parse::<i64>()
            .map_err(|_| ParseDesignError::new(lineno, format!("bad integer '{tok}'")))?;
        out.push(v);
    }
    Ok(out)
}

fn parse_point(chunk: &str, lineno: usize) -> Result<Point, ParseDesignError> {
    let mut it = chunk.split_whitespace();
    let nums = parse_i64s(&mut it, 2, lineno)?;
    if it.next().is_some() {
        return Err(ParseDesignError::new(
            lineno,
            format!("trailing tokens in point '{chunk}'"),
        ));
    }
    Ok(Point::new(nums[0], nums[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};

    #[test]
    fn round_trip_small_and_medium() {
        for cfg in [SynthConfig::small(), SynthConfig::medium()] {
            let d = generate(&cfg, 77);
            let text = write_design(&d);
            let back = read_design(&text).expect("round trip parses");
            assert_eq!(d, back);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header comment\ndesign t\ndie 0 0 100 100\n\ngroup a\n# inner\nbit 1 2 : 3 4\nend\n";
        let d = read_design(text).expect("parses");
        assert_eq!(d.name(), "t");
        assert_eq!(d.bit_count(), 1);
    }

    #[test]
    fn multi_sink_bits_parse() {
        let text = "design t\ndie 0 0 100 100\ngroup a\nbit 1 2 : 3 4 , 5 6 , 7 8\nend\n";
        let d = read_design(text).expect("parses");
        let bit = &d.groups()[0].bits()[0];
        assert_eq!(bit.sinks().len(), 3);
        assert_eq!(bit.sinks()[2], Point::new(7, 8));
    }

    fn err_of(text: &str) -> ParseDesignError {
        read_design(text).expect_err("should fail")
    }

    #[test]
    fn missing_header_is_error() {
        assert!(err_of("group a\nbit 1 2 : 3 4\nend\n")
            .to_string()
            .contains("before design"));
        assert!(err_of("").to_string().contains("missing design"));
    }

    #[test]
    fn bad_integer_reports_line() {
        let e = err_of("design t\ndie 0 0 abc 100\n");
        assert_eq!(e.line(), 2);
        assert!(e.to_string().contains("bad integer"));
    }

    #[test]
    fn die_beyond_die_scale_is_error() {
        // Width overflows i64: BoundingBox::width would panic (debug) or
        // wrap (release).
        let e = err_of("design t\ndie -9000000000000000000 0 9000000000000000000 10\n");
        assert_eq!(e.line(), 2);
        assert!(e.to_string().contains("die corner"), "{e}");
        // Parses today up to the die check, with both bits inside it;
        // routing would overflow a Manhattan distance.
        let e = err_of(
            "design t\ndie -4000000000000000000 -4000000000000000000 \
             4000000000000000000 4000000000000000000\ngroup a\n\
             bit -3000000000000000000 -3000000000000000000 : \
             3000000000000000000 3000000000000000000\n\
             bit 0 0 : 3000000000000000000 -3000000000000000000\nend\n",
        );
        assert_eq!(e.line(), 2);
        // The bound is exclusive, on every corner, and i64::MIN has no
        // positive counterpart to overflow into.
        let s = DIE_SCALE;
        for corners in [
            format!("{s} 0 0 10"),
            format!("0 {} 10 10", -s),
            format!("0 0 10 {s}"),
            format!("{} 0 0 10", i64::MIN),
        ] {
            let e = err_of(&format!("design t\ndie {corners}\n"));
            assert!(e.to_string().contains("die corner"), "{corners}: {e}");
        }
        let edge = s - 1;
        let d = read_design(&format!(
            "design t\ndie {} {} {edge} {edge}\ngroup a\nbit {} {} : {edge} {edge}\nend\n",
            -edge, -edge, -edge, -edge
        ))
        .expect("corners just inside the bound parse");
        assert_eq!(d.die().width(), 2 * edge);
    }

    #[test]
    fn bit_without_colon_is_error() {
        let e = err_of("design t\ndie 0 0 100 100\ngroup a\nbit 1 2 3 4\nend\n");
        assert!(e.to_string().contains(':'));
    }

    #[test]
    fn bit_without_sinks_is_error() {
        let e = err_of("design t\ndie 0 0 100 100\ngroup a\nbit 1 2 :\nend\n");
        assert!(e.to_string().contains("no sinks"));
    }

    #[test]
    fn unclosed_group_is_error() {
        let e = err_of("design t\ndie 0 0 100 100\ngroup a\nbit 1 2 : 3 4\n");
        assert!(e.to_string().contains("unclosed"));
    }

    #[test]
    fn end_without_group_is_error() {
        let e = err_of("design t\ndie 0 0 100 100\nend\n");
        assert!(e.to_string().contains("end without"));
    }

    #[test]
    fn empty_group_is_error() {
        let e = err_of("design t\ndie 0 0 100 100\ngroup a\nend\n");
        assert!(e.to_string().contains("no bits"));
    }

    #[test]
    fn pin_outside_die_is_error() {
        let e = err_of("design t\ndie 0 0 100 100\ngroup a\nbit 1 2 : 300 4\nend\n");
        assert!(e.to_string().contains("outside die"));
    }

    #[test]
    fn unknown_keyword_is_error() {
        let e = err_of("design t\ndie 0 0 100 100\nfrobnicate\n");
        assert!(e.to_string().contains("unknown keyword"));
    }

    #[test]
    fn nested_group_is_error() {
        let e = err_of("design t\ndie 0 0 100 100\ngroup a\ngroup b\n");
        assert!(e.to_string().contains("not closed"));
    }

    #[test]
    fn point_with_trailing_tokens_is_error() {
        let e = err_of("design t\ndie 0 0 100 100\ngroup a\nbit 1 2 : 3 4 5\nend\n");
        assert!(e.to_string().contains("trailing"));
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The parser never panics, whatever bytes arrive.
            #[test]
            fn parser_never_panics(text in "\\PC*") {
                let _ = read_design(&text);
            }

            /// Line-structured garbage built from the format's own
            /// keywords never panics either (deeper paths than raw
            /// noise).
            #[test]
            fn keyword_shaped_garbage_never_panics(
                lines in proptest::collection::vec(
                    prop_oneof![
                        Just("design x".to_owned()),
                        Just("die 0 0 100 100".to_owned()),
                        Just("die 5 5 5 5".to_owned()),
                        Just("group g".to_owned()),
                        Just("end".to_owned()),
                        Just("bit 1 2 : 3 4".to_owned()),
                        Just("bit 1 2 :".to_owned()),
                        Just("bit : 3 4".to_owned()),
                        Just("bit 999999999999999999999 2 : 3 4".to_owned()),
                        Just("# comment".to_owned()),
                        Just(String::new()),
                    ],
                    0..12,
                )
            ) {
                let _ = read_design(&lines.join("\n"));
            }

            /// Any successfully parsed design re-serializes and re-parses
            /// to itself (write/read is a retraction).
            #[test]
            fn parse_write_parse_is_stable(
                lines in proptest::collection::vec(
                    prop_oneof![
                        Just("design x".to_owned()),
                        Just("die 0 0 100 100".to_owned()),
                        Just("group g".to_owned()),
                        Just("end".to_owned()),
                        Just("bit 1 2 : 3 4".to_owned()),
                        Just("bit 5 6 : 7 8 , 9 10".to_owned()),
                    ],
                    0..12,
                )
            ) {
                if let Ok(design) = read_design(&lines.join("\n")) {
                    let text = write_design(&design);
                    let again = read_design(&text).expect("round trip");
                    prop_assert_eq!(design, again);
                }
            }
        }
    }
}
