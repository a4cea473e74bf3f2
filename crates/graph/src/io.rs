//! Plain-text graph interchange.
//!
//! A minimal, line-oriented format (in the DIMACS spirit) so instances can
//! be saved, shared, and re-priced from the command line:
//!
//! ```text
//! # comment
//! nodes 4
//! cost 1 5.0          # node 1 declares 5.0
//! cost 2 7
//! edge 0 1
//! edge 1 3
//! edge 0 2
//! edge 2 3
//! ```
//!
//! Unlisted node costs default to zero. Costs are exact decimals to the
//! micro-unit (more digits round half up; float spellings such as `1e3`
//! are also accepted), and writing is lossless: every cost is emitted as
//! its exact micro-unit decimal. Malformed input of any kind — a second
//! `nodes` line, a node count past the [`NodeId`] range, an endpoint out
//! of range — is a [`ParseError`] naming the line, never a panic.

use std::fmt::Write as _;
use std::str::FromStr;

use crate::adjacency::AdjacencyBuilder;
use crate::cost::{Cost, COST_SCALE};
use crate::ids::NodeId;
use crate::node_weighted::NodeWeightedGraph;

/// A parse failure with its line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn parse_field<T: FromStr>(tok: Option<&str>, line: usize, what: &str) -> Result<T, ParseError>
where
    T::Err: std::fmt::Display,
{
    let tok = tok.ok_or_else(|| ParseError {
        line,
        message: format!("missing {what}"),
    })?;
    tok.parse().map_err(|e| ParseError {
        line,
        message: format!("bad {what} {tok:?}: {e}"),
    })
}

/// A cost token: an exact `digits[.digits]` decimal, or any other
/// non-negative finite float spelling. Values past the finite range clamp
/// to [`Cost::MAX_FINITE`].
fn parse_cost(tok: Option<&str>, line: usize) -> Result<Cost, ParseError> {
    let text = tok.unwrap_or_default();
    let (int, frac) = text.split_once('.').unwrap_or((text, ""));
    let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
    if !int.is_empty() && digits(int) && digits(frac) {
        let scale = COST_SCALE as u128;
        let whole = int.bytes().fold(0u128, |acc, b| {
            acc.saturating_mul(10).saturating_add(u128::from(b - b'0'))
        });
        let mut pad = frac.bytes().chain(std::iter::repeat(b'0'));
        let micros = pad
            .by_ref()
            .take(6)
            .fold(0u128, |acc, b| acc * 10 + u128::from(b - b'0'));
        let half_up = u128::from(pad.next().is_some_and(|b| b >= b'5'));
        let total = whole.saturating_mul(scale).saturating_add(micros + half_up);
        return Ok(Cost::from_micros(
            total.min(u128::from(Cost::MAX_FINITE.micros())) as u64,
        ));
    }
    let c: f64 = parse_field(tok, line, "cost value")?;
    if c < 0.0 || !c.is_finite() {
        return Err(ParseError {
            line,
            message: format!("invalid cost {c}"),
        });
    }
    Ok(Cost::from_f64(c))
}

/// Parses the text format into a node-weighted graph.
pub fn parse_node_weighted(text: &str) -> Result<NodeWeightedGraph, ParseError> {
    let mut num_nodes: Option<usize> = None;
    let mut costs: Vec<Cost> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();

    for (ix, raw) in text.lines().enumerate() {
        let line = ix + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut toks = content.split_whitespace();
        match toks.next().unwrap() {
            "nodes" => {
                if num_nodes.is_some() {
                    return Err(ParseError {
                        line,
                        message: "repeated `nodes` line".into(),
                    });
                }
                let n: u64 = parse_field(toks.next(), line, "node count")?;
                if n > u64::from(u32::MAX) {
                    return Err(ParseError {
                        line,
                        message: format!("node count {n} exceeds the NodeId range"),
                    });
                }
                num_nodes = Some(n as usize);
                costs = vec![Cost::ZERO; n as usize];
            }
            "cost" => {
                let n = num_nodes.ok_or_else(|| ParseError {
                    line,
                    message: "`cost` before `nodes`".into(),
                })?;
                let v: usize = parse_field(toks.next(), line, "node id")?;
                let c = parse_cost(toks.next(), line)?;
                if v >= n {
                    return Err(ParseError {
                        line,
                        message: format!("node {v} out of range"),
                    });
                }
                costs[v] = c;
            }
            "edge" => {
                let n = num_nodes.ok_or_else(|| ParseError {
                    line,
                    message: "`edge` before `nodes`".into(),
                })?;
                let u: usize = parse_field(toks.next(), line, "endpoint")?;
                let v: usize = parse_field(toks.next(), line, "endpoint")?;
                if u >= n || v >= n {
                    return Err(ParseError {
                        line,
                        message: format!("edge ({u},{v}) out of range"),
                    });
                }
                if u == v {
                    return Err(ParseError {
                        line,
                        message: format!("self-loop at {u}"),
                    });
                }
                edges.push((NodeId::new(u), NodeId::new(v)));
            }
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unknown directive {other:?}"),
                })
            }
        }
        if let Some(extra) = toks.next() {
            return Err(ParseError {
                line,
                message: format!("trailing token {extra:?}"),
            });
        }
    }

    let n = num_nodes.ok_or(ParseError {
        line: 0,
        message: "missing `nodes` line".into(),
    })?;
    let mut b = AdjacencyBuilder::new(n);
    b.extend_edges(edges);
    Ok(NodeWeightedGraph::new(b.build(), costs))
}

/// Serializes a node-weighted graph into the text format (lossless:
/// micro-unit precision).
pub fn write_node_weighted(g: &NodeWeightedGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "nodes {}", g.num_nodes());
    for v in g.node_ids() {
        let m = g.cost(v).micros();
        if m != 0 {
            let (whole, frac) = (m / COST_SCALE, m % COST_SCALE);
            let _ = writeln!(out, "cost {} {whole}.{frac:06}", v.index());
        }
    }
    for (u, v) in g.adjacency().edges() {
        let _ = writeln!(out, "edge {} {}", u.index(), v.index());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
# the diamond
nodes 4
cost 1 5.0
cost 2 7    # dear branch
edge 0 1
edge 1 3
edge 0 2
edge 2 3
";

    #[test]
    fn parses_the_sample() {
        let g = parse_node_weighted(SAMPLE).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.cost(NodeId(1)), Cost::from_units(5));
        assert_eq!(g.cost(NodeId(2)), Cost::from_units(7));
        assert_eq!(g.cost(NodeId(0)), Cost::ZERO);
        assert!(g.adjacency().has_edge(NodeId(2), NodeId(3)));
    }

    #[test]
    fn roundtrips() {
        let g = parse_node_weighted(SAMPLE).unwrap();
        let text = write_node_weighted(&g);
        let g2 = parse_node_weighted(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn fractional_costs_roundtrip() {
        let g = NodeWeightedGraph::new(
            crate::adjacency::adjacency_from_pairs(2, &[(0, 1)]),
            vec![Cost::from_f64(1.5), Cost::from_micros(123)],
        );
        let g2 = parse_node_weighted(&write_node_weighted(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn error_reporting() {
        let e = parse_node_weighted("nodes 2\nedge 0 5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("out of range"));
        let e = parse_node_weighted("cost 0 1\n").unwrap_err();
        assert!(e.message.contains("before `nodes`"));
        let e = parse_node_weighted("nodes 2\nfrobnicate\n").unwrap_err();
        assert!(e.message.contains("unknown directive"));
        let e = parse_node_weighted("nodes 2\nedge 0 1 9\n").unwrap_err();
        assert!(e.message.contains("trailing"));
        let e = parse_node_weighted("").unwrap_err();
        assert!(e.message.contains("missing `nodes`"));
        let e = parse_node_weighted("nodes 2\ncost 0 -1\n").unwrap_err();
        assert!(e.message.contains("invalid cost"));
    }

    #[test]
    fn rejects_a_second_nodes_line_and_oversized_counts() {
        // A second `nodes` line would resize the cost table under edges
        // already read, which the adjacency builder rejects by panicking.
        let e = parse_node_weighted("nodes 3\nedge 0 2\nnodes 2\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (3, "repeated `nodes` line"));
        let e = parse_node_weighted("nodes 4294967296\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("NodeId range"), "{e}");
    }

    #[test]
    fn costs_parse_exactly_and_clamp() {
        let g = parse_node_weighted(
            "nodes 4\ncost 0 12345678901.2345675\ncost 1 1e3\ncost 2 99999999999999999999\n",
        )
        .unwrap();
        assert_eq!(g.cost(NodeId(0)), Cost::from_micros(12_345_678_901_234_568));
        assert_eq!(g.cost(NodeId(1)), Cost::from_units(1000));
        assert_eq!(g.cost(NodeId(2)), Cost::MAX_FINITE);
        assert_eq!(parse_node_weighted(&write_node_weighted(&g)).unwrap(), g);
    }
}
