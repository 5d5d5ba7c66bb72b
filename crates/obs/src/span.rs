//! Hierarchical span records on the virtual-tick clock.
//!
//! A [`SpanRecord`] is the structured twin of the tracer's `> label` /
//! `< label` event pair: deterministic sequential id, parent pointer,
//! start/end ticks, nesting depth. An enabled [`Tracer`](crate::Tracer)
//! appends one per `span()` call; a disabled one records nothing. A span
//! *tree* is plain data that profile snapshots carry whether or not the
//! tracer recorded anything into it.
//!
//! Well-formedness (pinned by `validate` and the span proptests): ids are
//! strictly increasing in record order, every span closes at or after it
//! opens, a child opens after its parent, closes before it, and sits
//! exactly one level deeper. That invariant is what makes the flame-graph
//! JSON below renderable without cycle or overlap checks.

use crate::metrics::render_json_string;
use std::fmt::Write as _;

/// One closed (or still-open) span on the virtual-tick clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Deterministic sequential id, in span-open order (0, 1, 2, …).
    pub id: u64,
    /// The id of the enclosing span open at the time, if any.
    pub parent: Option<u64>,
    /// The span label (`plan`, `execute`, `segment 0`, …).
    pub label: String,
    /// Virtual tick stamped on the `> label` event.
    pub start_tick: u64,
    /// Virtual tick stamped on the `< label` event; `None` while open.
    pub end_tick: Option<u64>,
    /// Nesting depth at open time (0 = root).
    pub depth: u16,
}

impl SpanRecord {
    /// Ticks between open and close (0 while the span is still open).
    pub fn duration(&self) -> u64 {
        self.end_tick.map_or(0, |e| e.saturating_sub(self.start_tick))
    }
}

/// Checks the span-tree well-formedness invariant over a recorded slice:
/// ids strictly increase, every span is closed with `end >= start`, every
/// parent exists earlier in the slice, children nest strictly inside their
/// parent's interval at exactly one extra level of depth. Returns the first
/// violation, rendered, so proptest failures read as a diagnosis.
pub fn validate(spans: &[SpanRecord]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if i > 0 && spans[i - 1].id >= s.id {
            return Err(format!("span ids not strictly increasing at index {i} (id {})", s.id));
        }
        let Some(end) = s.end_tick else {
            return Err(format!("span {} ({}) never closed", s.id, s.label));
        };
        if end < s.start_tick {
            return Err(format!(
                "span {} ({}) closes at {end} before opening at {}",
                s.id, s.label, s.start_tick
            ));
        }
        let Some(pid) = s.parent else {
            if s.depth != 0 {
                return Err(format!("root span {} ({}) has depth {}", s.id, s.label, s.depth));
            }
            continue;
        };
        let Some(p) = spans.iter().take(i).find(|p| p.id == pid) else {
            return Err(format!("span {} ({}) has unknown parent {pid}", s.id, s.label));
        };
        let p_end = p.end_tick.expect("parents are validated before children");
        if s.start_tick < p.start_tick || end > p_end {
            return Err(format!(
                "span {} ({}) [{}..{end}] escapes parent {} ({}) [{}..{p_end}]",
                s.id, s.label, s.start_tick, p.id, p.label, p.start_tick
            ));
        }
        if s.depth != p.depth + 1 {
            return Err(format!(
                "span {} ({}) at depth {} under parent {} at depth {}",
                s.id, s.label, s.depth, p.id, p.depth
            ));
        }
    }
    Ok(())
}

/// Renders a span slice as a schema-stable JSON forest: an array of root
/// spans, each `{"id", "label", "start", "end", "children": [...]}` with
/// children in id order. Still-open spans render `"end": null`.
pub fn render_json(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    render_forest(spans, None, &mut out);
    out
}

fn render_forest(spans: &[SpanRecord], parent: Option<u64>, out: &mut String) {
    out.push('[');
    let mut first = true;
    for s in spans.iter().filter(|s| s.parent == parent) {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "{{\"id\": {}, \"label\": ", s.id);
        render_json_string(out, &s.label);
        let _ = write!(out, ", \"start\": {}, \"end\": ", s.start_tick);
        match s.end_tick {
            Some(e) => {
                let _ = write!(out, "{e}");
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"children\": ");
        render_forest(spans, Some(s.id), out);
        out.push('}');
    }
    out.push(']');
}

/// Renders a span slice as an indented text tree (the `/spans` endpoint):
/// one `label [start..end] (+duration)` line per span.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = write!(
            out,
            "{:indent$}{} [{}..",
            "",
            s.label,
            s.start_tick,
            indent = s.depth as usize * 2
        );
        match s.end_tick {
            Some(e) => {
                let _ = writeln!(out, "{e}] (+{})", s.duration());
            }
            None => {
                let _ = writeln!(out, "open]");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        label: &str,
        start: u64,
        end: u64,
        depth: u16,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            label: label.to_string(),
            start_tick: start,
            end_tick: Some(end),
            depth,
        }
    }

    #[test]
    fn validates_a_well_formed_tree() {
        let spans = vec![
            span(0, None, "plan", 0, 9, 0),
            span(1, Some(0), "rewrite", 1, 2, 1),
            span(2, Some(0), "ipg", 3, 8, 1),
            span(3, Some(2), "mcsc", 4, 5, 2),
        ];
        assert!(validate(&spans).is_ok());
    }

    #[test]
    fn rejects_escaping_and_unclosed_children() {
        let escaped = vec![span(0, None, "plan", 0, 4, 0), span(1, Some(0), "ipg", 2, 9, 1)];
        assert!(validate(&escaped).unwrap_err().contains("escapes parent"));
        let mut unclosed = vec![span(0, None, "plan", 0, 4, 0)];
        unclosed[0].end_tick = None;
        assert!(validate(&unclosed).unwrap_err().contains("never closed"));
        let depth = vec![span(0, None, "plan", 0, 9, 0), span(1, Some(0), "ipg", 1, 2, 2)];
        assert!(validate(&depth).unwrap_err().contains("at depth"));
    }

    #[test]
    fn json_and_tree_render_deterministically() {
        let spans = vec![
            span(0, None, "plan", 0, 9, 0),
            span(1, Some(0), "ipg", 1, 8, 1),
            span(2, None, "execute", 10, 12, 0),
        ];
        let json = render_json(&spans);
        assert_eq!(
            json,
            "[{\"id\": 0, \"label\": \"plan\", \"start\": 0, \"end\": 9, \"children\": \
             [{\"id\": 1, \"label\": \"ipg\", \"start\": 1, \"end\": 8, \"children\": []}]}, \
             {\"id\": 2, \"label\": \"execute\", \"start\": 10, \"end\": 12, \"children\": []}]"
        );
        let tree = render_tree(&spans);
        assert_eq!(tree, "plan [0..9] (+9)\n  ipg [1..8] (+7)\nexecute [10..12] (+2)\n");
    }
}
