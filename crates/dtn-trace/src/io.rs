//! Plain-text (CSV) serialisation of contact traces.
//!
//! The format is one header line `# nodes=<N> duration=<secs>` followed
//! by one `a,b,start,end` line per contact — the same shape as the
//! published Haggle/Reality trace dumps, so real traces can be converted
//! with a one-line awk script and loaded here.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

use dtn_core::ids::NodeId;
use dtn_core::time::{Duration, Time};

use crate::trace::{Contact, ContactTrace};

/// Error produced while reading a trace.
#[derive(Debug)]
pub enum TraceReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed header or contact line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceReadError::Parse { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
        }
    }
}

impl Error for TraceReadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceReadError::Io(e) => Some(e),
            TraceReadError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceReadError {
    fn from(e: std::io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

/// Writes a trace in CSV form. A mut reference works as the writer.
///
/// # Errors
///
/// Propagates any I/O error from `writer`.
///
/// # Example
///
/// ```
/// use dtn_trace::io::{read_trace, write_trace};
/// use dtn_trace::synthetic::SyntheticTraceBuilder;
///
/// let trace = SyntheticTraceBuilder::new(5).seed(2).build();
/// let mut buf = Vec::new();
/// write_trace(&trace, &mut buf)?;
/// let back = read_trace(&buf[..])?;
/// assert_eq!(trace, back);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_trace<W: Write>(trace: &ContactTrace, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# nodes={} duration={}",
        trace.node_count(),
        trace.duration().as_secs()
    )?;
    for c in trace.contacts() {
        writeln!(
            writer,
            "{},{},{},{}",
            c.a.0,
            c.b.0,
            c.start.as_secs(),
            c.end.as_secs()
        )?;
    }
    Ok(())
}

/// Reads a trace previously written by [`write_trace`]. A mut reference
/// works as the reader.
///
/// # Errors
///
/// Returns [`TraceReadError`] on I/O failure or malformed input, a node
/// count outside `1..=2^32` (ids are `u32`) included.
pub fn read_trace<R: BufRead>(reader: R) -> Result<ContactTrace, TraceReadError> {
    let mut lines = reader.lines();
    let header = lines.next().ok_or_else(|| TraceReadError::Parse {
        line: 1,
        reason: "empty input, expected header".into(),
    })??;
    let (nodes, duration) = parse_header(&header).ok_or_else(|| TraceReadError::Parse {
        line: 1,
        reason: format!("bad header {header:?}, expected `# nodes=N duration=SECS`"),
    })?;

    let mut contacts = Vec::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split(',');
        let mut field = |name: &str| -> Result<u64, TraceReadError> {
            parts
                .next()
                .and_then(|p| p.trim().parse().ok())
                .ok_or_else(|| TraceReadError::Parse {
                    line: line_no,
                    reason: format!("missing or non-numeric field `{name}` in {trimmed:?}"),
                })
        };
        let a = field("a")?;
        let b = field("b")?;
        let start = field("start")?;
        let end = field("end")?;
        if a == b || end <= start || a >= nodes as u64 || b >= nodes as u64 {
            return Err(TraceReadError::Parse {
                line: line_no,
                reason: format!("invalid contact {trimmed:?}"),
            });
        }
        contacts.push(Contact::new(
            NodeId(a as u32),
            NodeId(b as u32),
            Time(start),
            Time(end),
        ));
    }
    Ok(ContactTrace::new(nodes, contacts, Duration(duration)))
}

fn parse_header(header: &str) -> Option<(usize, u64)> {
    let rest = header.strip_prefix('#')?.trim();
    let mut nodes = None;
    let mut duration = None;
    for token in rest.split_whitespace() {
        if let Some(v) = token.strip_prefix("nodes=") {
            // Every node needs a `u32` id.
            nodes = v.parse::<u64>().ok().filter(|n| (1..=1 << 32).contains(n));
        } else if let Some(v) = token.strip_prefix("duration=") {
            duration = v.parse().ok();
        }
    }
    Some((usize::try_from(nodes?).ok()?, duration?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticTraceBuilder;

    #[test]
    fn roundtrip_preserves_trace() {
        let t = SyntheticTraceBuilder::new(8).seed(5).build();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write to Vec cannot fail");
        let back = read_trace(&buf[..]).expect("own output must parse");
        assert_eq!(t, back);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let input = "# nodes=3 duration=100\n\n# comment\n0,1,10,20\n";
        let t = read_trace(input.as_bytes()).expect("valid input");
        assert_eq!(t.contact_count(), 1);
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn rejects_empty_input() {
        let err = read_trace(&b""[..]).unwrap_err();
        assert!(err.to_string().contains("header") || err.to_string().contains("line 1"));
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_trace(&b"nodes=3\n"[..]).unwrap_err();
        assert!(matches!(err, TraceReadError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_a_header_without_nodes() {
        let err = read_trace(&b"# nodes=0 duration=100\n"[..]).unwrap_err();
        assert!(
            matches!(err, TraceReadError::Parse { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_header_past_the_u32_ids() {
        // Node 2^32 would read back as node 0.
        let input = "# nodes=4294967297 duration=100\n4294967296,1,0,5\n";
        let err = read_trace(input.as_bytes()).unwrap_err();
        assert!(
            matches!(err, TraceReadError::Parse { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_malformed_contact_line() {
        let err = read_trace(&b"# nodes=3 duration=100\n0,1,oops,20\n"[..]).unwrap_err();
        match err {
            TraceReadError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_range_node() {
        let err = read_trace(&b"# nodes=3 duration=100\n0,9,10,20\n"[..]).unwrap_err();
        assert!(err.to_string().contains("invalid contact"));
    }

    #[test]
    fn rejects_inverted_interval() {
        let err = read_trace(&b"# nodes=3 duration=100\n0,1,20,20\n"[..]).unwrap_err();
        assert!(err.to_string().contains("invalid contact"));
    }
}
