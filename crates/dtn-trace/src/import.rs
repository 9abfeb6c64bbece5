//! Importers for common public contact-trace formats.
//!
//! The paper's traces are distributed through CRAWDAD and the ONE
//! simulator community in two dominant shapes; both import into a
//! [`ContactTrace`] here:
//!
//! - **interval rows** ([`read_intervals`]): whitespace- or
//!   comma-separated `node_a node_b start end` lines (the shape of the
//!   published Haggle/Reality contact dumps). Node ids may be sparse
//!   and 1-based; they are renumbered densely.
//! - **ONE connectivity events** ([`read_one_events`]): the ONE
//!   simulator's `<time> CONN <a> <b> up|down` report. `up`/`down`
//!   pairs become contacts; dangling `up`s close at the trace end.

use std::collections::HashMap;
use std::io::BufRead;

use dtn_core::ids::NodeId;
use dtn_core::time::{Duration, Time};

use crate::io::TraceReadError;
use crate::trace::{Contact, ContactTrace};

/// Densely renumbers arbitrary external node ids.
#[derive(Debug, Default)]
struct NodeInterner {
    map: HashMap<u64, NodeId>,
}

impl NodeInterner {
    fn intern(&mut self, external: u64) -> NodeId {
        let next = NodeId(self.map.len() as u32);
        *self.map.entry(external).or_insert(next)
    }
    fn len(&self) -> usize {
        self.map.len()
    }
}

fn parse_err(line: usize, reason: impl Into<String>) -> TraceReadError {
    TraceReadError::Parse {
        line,
        reason: reason.into(),
    }
}

/// A time field: seconds, finite and non-negative, fractions truncated.
/// An error names line number `line` and its text `t`.
fn time_field(field: &str, line: usize, t: &str) -> Result<u64, TraceReadError> {
    match field.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs >= 0.0 => Ok(secs as u64),
        Ok(_) => Err(parse_err(
            line,
            format!("time {field} is not finite and ≥ 0 in {t:?}"),
        )),
        Err(_) => Err(parse_err(line, format!("non-numeric time in {t:?}"))),
    }
}

/// A node id field: a non-negative integer; errors as in [`time_field`].
fn node_field(field: &str, line: usize, t: &str) -> Result<u64, TraceReadError> {
    let reason = || format!("node {field:?} is not a non-negative integer in {t:?}");
    field.parse().map_err(|_| parse_err(line, reason()))
}

/// Reads `a b start end` interval rows (whitespace or comma separated;
/// `#`-comments and blank lines skipped). Times are finite,
/// non-negative seconds; fractional timestamps are truncated. Node ids
/// are non-negative integers, renumbered densely in order of first
/// appearance.
///
/// Zero-length and inverted intervals are **skipped** rather than
/// rejected — public dumps contain both.
///
/// # Errors
///
/// Returns [`TraceReadError`] on I/O failure, a field outside its domain
/// (a `NaN`, infinite or negative time, a fractional node id), or an
/// empty input.
///
/// # Example
///
/// ```
/// use dtn_trace::import::read_intervals;
///
/// let raw = "# CRAWDAD-style dump\n17 23 100 160\n23 99 200.5 260\n";
/// let trace = read_intervals(raw.as_bytes())?;
/// assert_eq!(trace.node_count(), 3); // 17, 23, 99 renumbered
/// assert_eq!(trace.contact_count(), 2);
/// # Ok::<(), dtn_trace::io::TraceReadError>(())
/// ```
pub fn read_intervals<R: BufRead>(reader: R) -> Result<ContactTrace, TraceReadError> {
    let mut interner = NodeInterner::default();
    let mut contacts = Vec::new();
    let mut max_end = 0u64;
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = t
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|f| !f.is_empty())
            .collect();
        if fields.len() < 4 {
            return Err(parse_err(line_no, format!("expected 4 fields, got {t:?}")));
        }
        let node = |i: usize| node_field(fields[i], line_no, t);
        let time = |i: usize| time_field(fields[i], line_no, t);
        let (a, b, start, end) = (node(0)?, node(1)?, time(2)?, time(3)?);
        if a == b || end <= start {
            continue; // tolerated noise in public dumps
        }
        let a = interner.intern(a);
        let b = interner.intern(b);
        max_end = max_end.max(end);
        contacts.push(Contact::new(a, b, Time(start), Time(end)));
    }
    if interner.len() < 2 {
        return Err(parse_err(0, "no usable contacts in input"));
    }
    Ok(ContactTrace::new(
        interner.len(),
        contacts,
        Duration(max_end),
    ))
}

/// Reads the ONE simulator's connectivity report:
/// `<time> CONN <a> <b> up|down` lines. Each `up` opens a contact that
/// the matching `down` closes; contacts still open at the end of input
/// close at the last event time. Times and node ids take the domains of
/// [`read_intervals`].
///
/// # Errors
///
/// Returns [`TraceReadError`] on I/O failure, malformed lines, a field
/// outside its domain, or an empty input.
///
/// # Example
///
/// ```
/// use dtn_trace::import::read_one_events;
///
/// let raw = "10 CONN 1 2 up\n50 CONN 1 2 down\n60 CONN 2 3 up\n";
/// let trace = read_one_events(raw.as_bytes())?;
/// assert_eq!(trace.contact_count(), 2);
/// // the dangling contact closes at the last timestamp (60 → 60+)
/// # Ok::<(), dtn_trace::io::TraceReadError>(())
/// ```
pub fn read_one_events<R: BufRead>(reader: R) -> Result<ContactTrace, TraceReadError> {
    let mut interner = NodeInterner::default();
    let mut open: HashMap<(NodeId, NodeId), Time> = HashMap::new();
    let mut contacts = Vec::new();
    let mut last_time = 0u64;
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = t.split_whitespace().collect();
        if fields.len() < 5 || !fields[1].eq_ignore_ascii_case("CONN") {
            return Err(parse_err(
                line_no,
                format!("expected `<time> CONN <a> <b> up|down`, got {t:?}"),
            ));
        }
        let time = time_field(fields[0], line_no, t)?;
        let a_ext = node_field(fields[2], line_no, t)?;
        let b_ext = node_field(fields[3], line_no, t)?;
        if a_ext == b_ext {
            continue;
        }
        last_time = last_time.max(time);
        let a = interner.intern(a_ext);
        let b = interner.intern(b_ext);
        let key = if a < b { (a, b) } else { (b, a) };
        match fields[4].to_ascii_lowercase().as_str() {
            "up" => {
                open.entry(key).or_insert(Time(time));
            }
            "down" => {
                if let Some(start) = open.remove(&key) {
                    if time > start.as_secs() {
                        contacts.push(Contact::new(key.0, key.1, start, Time(time)));
                    }
                }
            }
            other => {
                return Err(parse_err(line_no, format!("unknown event {other:?}")));
            }
        }
    }
    // Close dangling connections at the end of the report.
    let close_at = Time(last_time.saturating_add(1));
    for ((a, b), start) in open {
        if close_at > start {
            contacts.push(Contact::new(a, b, start, close_at));
        }
    }
    if interner.len() < 2 {
        return Err(parse_err(0, "no usable contacts in input"));
    }
    Ok(ContactTrace::new(
        interner.len(),
        contacts,
        Duration(close_at.as_secs()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_renumber_sparse_ids() {
        let raw = "100 200 0 50\n200 999 60 90\n100 999 95 120\n";
        let t = read_intervals(raw.as_bytes()).expect("valid");
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.contact_count(), 3);
        assert_eq!(t.duration(), Duration(120));
    }

    #[test]
    fn intervals_accept_commas_and_fractions() {
        let raw = "1,2,10.7,20.9\n";
        let t = read_intervals(raw.as_bytes()).expect("valid");
        assert_eq!(t.contacts()[0].start, Time(10));
        assert_eq!(t.contacts()[0].end, Time(20));
    }

    #[test]
    fn intervals_skip_noise_rows() {
        let raw = "1 2 10 20\n3 3 30 40\n1 2 50 50\n# comment\n\n2 1 60 70\n";
        let t = read_intervals(raw.as_bytes()).expect("valid");
        assert_eq!(t.contact_count(), 2);
    }

    #[test]
    fn intervals_reject_non_numeric() {
        let err = read_intervals(&b"1 2 ten 20\n"[..]).unwrap_err();
        assert!(err.to_string().contains("non-numeric"));
    }

    #[test]
    fn intervals_reject_empty() {
        assert!(read_intervals(&b"# nothing\n"[..]).is_err());
    }

    #[test]
    fn one_events_pair_up_down() {
        let raw = "0 CONN 5 7 up\n30 CONN 5 7 down\n40 CONN 7 9 up\n90 CONN 9 7 down\n";
        let t = read_one_events(raw.as_bytes()).expect("valid");
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.contact_count(), 2);
        assert_eq!(t.contacts()[0].duration(), Duration(30));
        // the down used swapped endpoints — must still match the up
        assert_eq!(t.contacts()[1].duration(), Duration(50));
    }

    #[test]
    fn one_events_close_dangling_at_end() {
        let raw = "10 CONN 1 2 up\n500 CONN 3 4 up\n";
        let t = read_one_events(raw.as_bytes()).expect("valid");
        assert_eq!(t.contact_count(), 2);
        let longest = t.contacts().iter().map(|c| c.end).max().unwrap();
        assert_eq!(longest, Time(501));
    }

    #[test]
    fn one_events_reject_garbage() {
        assert!(read_one_events(&b"10 LINK 1 2 up\n"[..]).is_err());
        assert!(read_one_events(&b"10 CONN 1 2 sideways\n"[..]).is_err());
        assert!(read_one_events(&b"x CONN 1 2 up\n"[..]).is_err());
    }

    /// The `Parse` error's line, or a panic naming what was read.
    fn parse_error_line(read: Result<ContactTrace, TraceReadError>) -> usize {
        match read {
            Err(TraceReadError::Parse { line, .. }) => line,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn intervals_reject_a_nan_node_id() {
        let raw = "1 2 0 10\nNaN 2 20 30\n";
        assert_eq!(parse_error_line(read_intervals(raw.as_bytes())), 2);
    }

    #[test]
    fn intervals_reject_an_infinite_end() {
        let raw = "1 2 0 10\n1 3 20 inf\n";
        assert_eq!(parse_error_line(read_intervals(raw.as_bytes())), 2);
    }

    #[test]
    fn intervals_reject_negative_times_and_ids() {
        assert_eq!(parse_error_line(read_intervals(&b"1 2 -5 10\n"[..])), 1);
        assert_eq!(parse_error_line(read_intervals(&b"1 -5 0 10\n"[..])), 1);
    }

    #[test]
    fn intervals_reject_fractional_node_ids() {
        // Truncated, `1.2` and `1.7` would be one node and the line a
        // self-contact.
        let raw = "1 2 0 10\n1.2 1.7 20 30\n";
        assert_eq!(parse_error_line(read_intervals(raw.as_bytes())), 2);
    }

    #[test]
    fn one_events_reject_an_infinite_time() {
        let raw = "10 CONN 1 2 up\ninf CONN 3 4 up\n";
        assert_eq!(parse_error_line(read_one_events(raw.as_bytes())), 2);
    }

    #[test]
    fn one_events_close_dangling_at_the_last_second_without_overflow() {
        // 2^64 s saturates to the last representable second.
        let raw = "10 CONN 1 2 up\n18446744073709551616 CONN 3 4 up\n";
        let t = read_one_events(raw.as_bytes()).expect("valid");
        assert_eq!(t.contact_count(), 1);
        assert_eq!(t.contacts()[0].start, Time(10));
        assert_eq!(t.contacts()[0].end, Time(u64::MAX));
    }

    #[test]
    fn imported_trace_flows_into_the_pipeline() {
        // Imported traces work with the rest of the toolkit.
        let raw = "1 2 0 100\n2 3 200 300\n1 3 400 500\n1 2 600 700\n";
        let t = read_intervals(raw.as_bytes()).expect("valid");
        let stats = crate::stats::TraceStats::compute(&t);
        assert_eq!(stats.nodes, 3);
        let table = t.rate_table(Time(700));
        assert_eq!(table.total_contacts(), 4);
    }
}
