//! Property tests: the text interchange format round-trips losslessly,
//! and malformed text is a `ParseError`, never a panic.

use truthcast_graph::io::{parse_node_weighted, write_node_weighted};
use truthcast_graph::{Cost, NodeWeightedGraph};
use truthcast_rt::{
    bools, cases, forall, prop_assert, prop_assert_eq, vec_of, Rng, SeedableRng, SmallRng,
};

#[test]
fn roundtrip_is_lossless() {
    forall!(
        cases(128),
        (
            1usize..20,
            vec_of(bools(), 0..190),
            vec_of(0u64..100_000_000_000, 0..20)
        ),
        |(n, edge_bits, micros)| {
            // Deterministically map the bit vector onto the pair list.
            let all_pairs: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
                .collect();
            let edges: Vec<(u32, u32)> = all_pairs
                .iter()
                .zip(edge_bits.iter().chain(std::iter::repeat(&false)))
                .filter(|&(_, &b)| b)
                .map(|(&e, _)| e)
                .collect();
            let costs: Vec<Cost> = (0..n)
                .map(|i| Cost::from_micros(micros.get(i).copied().unwrap_or(0)))
                .collect();
            let g = NodeWeightedGraph::new(truthcast_graph::adjacency_from_pairs(n, &edges), costs);
            let text = write_node_weighted(&g);
            let g2 = parse_node_weighted(&text).expect("own output must parse");
            prop_assert_eq!(g, g2);
            Ok(())
        }
    );
}

/// Sample texts the fuzzer mutates.
const SAMPLES: [&str; 2] = [
    "# the diamond\nnodes 4\ncost 1 5.0\ncost 2 7    # dear branch\nedge 0 1\nedge 1 3\nedge 0 2\nedge 2 3\n",
    "nodes 6\ncost 3 0.25\ncost 5 12\nedge 0 1\nedge 1 2\nedge 2 5\nedge 0 3\nedge 3 4\nedge 4 5\n",
];

/// Tokens a mutation may splice in: directives, small ids, malformed and
/// out-of-range numbers. Node counts stay small or past the `u32` range,
/// so no accepted input allocates more than a few kilobytes.
const TOKENS: [&str; 24] = [
    "nodes",
    "cost",
    "edge",
    "#",
    "frob",
    "0",
    "1",
    "2",
    "3",
    "7",
    "12",
    "-1",
    "1.5",
    "1e3",
    "nan",
    "inf",
    "0.0000005",
    "4294967296",
    "18446744073709551616",
    "99999999999999999999.9999999",
    ".",
    "5.",
    "+2",
    "",
];

fn token(rng: &mut SmallRng) -> &'static str {
    TOKENS[rng.gen_range(0..TOKENS.len())]
}

/// Applies 1–6 line- and token-level mutations to a sample text.
fn mutate(rng: &mut SmallRng) -> String {
    let mut lines: Vec<String> = SAMPLES[rng.gen_range(0..SAMPLES.len())]
        .lines()
        .map(str::to_string)
        .collect();
    for _ in 0..rng.gen_range(1..=6) {
        // `at` may be one past the end: only insertions use that slot.
        let at = rng.gen_range(0..lines.len().max(1));
        match rng.gen_range(0..5) {
            0 if !lines.is_empty() => {
                lines.remove(at);
            }
            1 if !lines.is_empty() => {
                let dup = lines[at].clone();
                lines.insert(rng.gen_range(0..=lines.len()), dup);
            }
            2 if !lines.is_empty() => {
                let mut toks: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
                let i = rng.gen_range(0..toks.len());
                toks[i] = token(rng).to_string();
                lines[at] = toks.join(" ");
            }
            3 => {
                // A directive with 0–2 operands, well-formed or not.
                let head = ["nodes", "cost", "edge", token(rng)][rng.gen_range(0..4usize)];
                let mut line = vec![head];
                for _ in 0..rng.gen_range(0..=2) {
                    line.push(token(rng));
                }
                // Half the time at the end, after every line it could
                // contradict.
                let at = if rng.gen_bool(0.5) { lines.len() } else { at };
                lines.insert(at.min(lines.len()), line.join(" "));
            }
            _ => {
                let j = rng.gen_range(0..lines.len().max(1));
                if at < lines.len() && j < lines.len() {
                    lines.swap(at, j);
                }
            }
        }
    }
    lines.join("\n")
}

/// Mutated sample texts never panic the parser; whatever it accepts
/// writes back out and re-parses to the same graph.
#[test]
fn mutated_texts_parse_or_fail_cleanly() {
    forall!(cases(2048), 0u64..1 << 48, |seed| {
        let text = mutate(&mut SmallRng::seed_from_u64(seed));
        let parsed = std::panic::catch_unwind(|| parse_node_weighted(&text));
        prop_assert!(parsed.is_ok(), "parser panicked on {:?}", text);
        if let Ok(Ok(g)) = parsed {
            let again = parse_node_weighted(&write_node_weighted(&g));
            prop_assert_eq!(again, Ok(g), "round trip of {:?}", text);
        }
        Ok(())
    });
}
