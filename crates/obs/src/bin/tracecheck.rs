//! Validates truthcast trace artifacts from the command line.
//!
//! ```text
//! tracecheck --chrome trace.json [--chrome more.json] [--jsonl run.jsonl]
//! ```
//!
//! Each `--chrome` file is checked against the Chrome `trace_event`
//! structural contract ([`truthcast_obs::validate_chrome_trace`]); each
//! `--jsonl` file against the truthcast-obs JSONL schema, including the
//! service's session reconciliation (`offered = settled + shed +
//! unreachable`, [`truthcast_obs::validate_jsonl`]). Exit status 0
//! when every file parses, 1 on the first invalid file, 2 on usage
//! errors. `scripts/ci.sh` runs this over the smoke-test artifacts.

fn main() {
    let mut chrome: Vec<String> = Vec::new();
    let mut jsonl: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("tracecheck: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--chrome" => chrome.push(value("--chrome")),
            "--jsonl" => jsonl.push(value("--jsonl")),
            "--help" | "-h" => {
                println!("usage: tracecheck [--chrome FILE]... [--jsonl FILE]...");
                return;
            }
            other => {
                eprintln!("tracecheck: unknown flag {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if chrome.is_empty() && jsonl.is_empty() {
        eprintln!("tracecheck: nothing to check (try --help)");
        std::process::exit(2);
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("tracecheck: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    for path in &chrome {
        match truthcast_obs::validate_chrome_trace(&read(path)) {
            Ok(stats) => println!(
                "{path}: ok — {} events ({} slices, {} flow starts, {} flow ends)",
                stats.events, stats.spans, stats.flow_starts, stats.flow_ends
            ),
            Err(e) => {
                eprintln!("{path}: INVALID chrome trace: {e}");
                std::process::exit(1);
            }
        }
    }
    for path in &jsonl {
        match truthcast_obs::validate_jsonl(&read(path)) {
            Ok(lines) => println!("{path}: ok — {lines} JSONL records"),
            Err(e) => {
                eprintln!("{path}: INVALID JSONL: {e}");
                std::process::exit(1);
            }
        }
    }
}
