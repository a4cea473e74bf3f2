//! End-to-end serving benchmark for the truthcast payment service.
//!
//! ```text
//! perfbench --workload <serve-steady|mobility|churn> --seed N --seconds S --trace 0|1
//! ```
//!
//! One run measures one workload for `S` seconds: half of it is the live
//! phase (an open-loop session schedule served by one thread while a
//! second thread rolls epochs underneath), the other half is either a
//! search for the highest sustainable session rate (`--trace 0`) or a
//! second, traced live phase plus a replay of the epoch sequence through
//! the core engines (`--trace 1`). Live phases run in child processes of
//! this executable, so an epoch that never returns costs a restart, not
//! the run. The last line of stdout is a JSON object with the metrics;
//! any failed output check makes the exit status non-zero.

mod adapter;
mod inputs;
mod live;
mod parent;
mod proc;
mod replay;
mod report;

use std::process::ExitCode;
use std::time::Instant;

use inputs::{Workload, WORKLOADS};

/// Environment variables that change the code path being measured.
const REFUSED_ENV: [&str; 4] = [
    "TRUTHCAST_QUEUE",
    "TRUTHCAST_DELTA_THRESHOLD",
    "TRUTHCAST_TRACE",
    "TRUTHCAST_PROFILE",
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    // The rest is how the parent starts its children: `--child
    // live|replay`, the live-phase length, the segment's first epoch and
    // session, and the epochs where the live run restarted.
    child: Option<String>,
    live_ns: u64,
    e0: usize,
    s0: usize,
    failed: Vec<usize>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <serve-steady|mobility|churn> --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: &WORKLOADS[0],
        seed: 0,
        seconds: 0,
        trace: false,
        child: None,
        live_ns: 0,
        e0: 0,
        s0: 0,
        failed: Vec::new(),
    };
    let (mut have_workload, mut have_seed) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                a.workload = WORKLOADS
                    .iter()
                    .find(|w| w.name == v)
                    .ok_or(format!("unknown workload {v:?}"))?;
                have_workload = true;
            }
            "--seed" => {
                a.seed = num(&v)?;
                have_seed = true;
            }
            "--seconds" => a.seconds = num(&v)?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                }
            }
            "--child" => a.child = Some(v),
            "--live-ns" => a.live_ns = num(&v)?,
            "--e0" => a.e0 = num(&v)? as usize,
            "--s0" => a.s0 = num(&v)? as usize,
            "--failed" => {
                a.failed = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map_err(|_| format!("--failed: bad epoch {s:?}")))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !have_workload || !have_seed {
        return Err("--workload and --seed are required".into());
    }
    if a.child.is_none() && !(2..=600).contains(&a.seconds) {
        return Err("--seconds must be in 2..=600".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if let Some(v) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {v} set: it changes the code path being measured"
        );
        return ExitCode::from(2);
    }
    match a.child.as_deref() {
        Some("live") => {
            live::run(a.workload, a.seed, a.live_ns, a.e0, a.s0, a.trace);
            return ExitCode::SUCCESS;
        }
        Some("replay") => {
            replay::run(a.workload, a.seed, a.live_ns, a.failed);
            return ExitCode::SUCCESS;
        }
        Some(other) => return usage(&format!("unknown child mode {other:?}")),
        None => {}
    }
    match run(&a) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs one workload; `Ok(false)` when an output check failed.
fn run(a: &Args) -> Result<bool, String> {
    let w = a.workload;
    let live_ns = a.seconds * 1_000_000_000 / 2;
    println!(
        "available_parallelism : {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "workload              : {} (seed {}, {} s, trace {})",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!(
        "shape                 : n={} k={} rate={} sessions/s, epoch every {} ms, queue {} per AP, 1 service thread",
        w.n,
        w.k,
        w.rate,
        w.period_ms,
        inputs::QUEUE_CAPACITY
    );
    let t = Instant::now();
    let inp = inputs::generate(w, a.seed, live_ns);
    println!(
        "inputs                : {} sessions, {} epochs, prepared in {:.2} s",
        inp.due.len(),
        inp.epochs.len() - 1,
        t.elapsed().as_secs_f64()
    );
    let setup = report::setup(&inp);
    let mut r = report::Report::new(w, setup);
    let run_live = |traced: bool| -> Result<Vec<parent::Segment>, String> {
        let mut segs: Vec<parent::Segment> = Vec::new();
        let (mut e0, mut s0) = (0usize, 0usize);
        loop {
            let args: Vec<String> = [
                "--child",
                "live",
                "--workload",
                w.name,
                "--seed",
                &a.seed.to_string(),
                "--live-ns",
                &live_ns.to_string(),
                "--e0",
                &e0.to_string(),
                "--s0",
                &s0.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let seg = parent::Segment::parse(&parent::child(&args)?);
            let failed = seg.failed;
            s0 += seg.served_sessions();
            segs.push(seg);
            let Some(f) = failed else { break };
            println!("  epoch {f} did not return: restarting the service cold on its graph");
            e0 = f;
            if s0 >= inp.due.len() && e0 + 1 >= inp.epochs.len() {
                break;
            }
            if segs.len() > 1000 {
                return Err("more than 1000 restarts in one live phase".into());
            }
        }
        Ok(segs)
    };
    let plain = run_live(false)?;
    if a.trace {
        let traced = run_live(true)?;
        let failed: Vec<String> = traced
            .iter()
            .filter_map(|s| s.failed)
            .map(|e| e.to_string())
            .collect();
        let args: Vec<String> = [
            "--child",
            "replay",
            "--workload",
            w.name,
            "--seed",
            &a.seed.to_string(),
            "--live-ns",
            &live_ns.to_string(),
            "--failed",
            &failed.join(","),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        r.replay(parent::Replay::parse(&parent::child(&args)?));
        r.oracle(&inp, &[&plain, &traced]);
        r.live(&inp, &plain, 0, false);
        r.live(&inp, &traced, 1, true);
    } else {
        r.rate_search(&inp, a.seed, live_ns);
        r.oracle(&inp, &[&plain]);
        r.live(&inp, &plain, 0, false);
    }
    Ok(r.finish(a.trace))
}
