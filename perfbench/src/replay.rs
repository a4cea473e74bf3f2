//! The replay pass, run in a child process after the live phases: the
//! same seeded epoch sequence goes through a shadow `IncrementalEngine`
//! per AP and one cold `AllSourcesEngine`, with spans around every core
//! call. The live runs never pay for this instrumentation.
//!
//! At each epoch the live service failed, the live run restarted the
//! service cold on that epoch's graph; the replay does the same, so its
//! engines see the sequence the live shards saw. A watchdog like the
//! live one guards against an epoch that does not return.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::adapter::{Delta, Shadow};
use crate::inputs::{self, Workload};
use crate::live::{ns, outcome_code, EPOCH_DEADLINE, RSS_CAP_KB};
use crate::proc;

/// `(epoch, name, ap, start, end)`; `ap` is `usize::MAX` when the span
/// is not per AP.
type SpanRec = (usize, &'static str, usize, u64, u64);

#[derive(Default)]
struct Log {
    spans: Vec<SpanRec>,
    /// `(epoch, ap, outcome code)`.
    outcomes: Vec<(usize, usize, String)>,
}

pub fn run(w: &'static Workload, seed: u64, live_ns: u64, failed: Vec<usize>) {
    let inp = Arc::new(inputs::generate(w, seed, live_ns));
    let log = Arc::new(Mutex::new(Log::default()));
    let at = Arc::new(AtomicU64::new(0));
    let since = Arc::new(AtomicU64::new(0));
    let rss0 = proc::rss_kb();
    let origin = Instant::now();
    let worker = {
        let (inp, log, at, since) = (inp.clone(), log.clone(), at.clone(), since.clone());
        std::thread::spawn(move || {
            let k = inp.aps.len();
            let mut prev = inp.epochs[0].graph();
            let mut shadow = Shadow::new(&inp.aps, &prev);
            for e in 1..inp.epochs.len() {
                at.store(e as u64, Ordering::SeqCst);
                since.store(ns(origin) + 1, Ordering::SeqCst);
                let mut spans: Vec<SpanRec> = Vec::new();
                let mut outcomes = Vec::new();
                let ep = &inp.epochs[e];
                let t0 = ns(origin);
                let g = ep.graph();
                let map = ep
                    .old_to_new
                    .as_ref()
                    .map(|m| crate::adapter::build_map(m, ep.n));
                let t1 = ns(origin);
                spans.push((e, "graph.build", usize::MAX, t0, t1));
                if failed.contains(&e) {
                    shadow = Shadow::new(&inp.aps, &g);
                    spans.push((e, "core.restart", usize::MAX, t1, ns(origin)));
                } else {
                    let trees: Vec<_> = (0..k).map(|i| shadow.tree(i, map.as_ref())).collect();
                    let t2 = ns(origin);
                    spans.push((e, "harness.replay_prep", usize::MAX, t1, t2));
                    let delta: Delta = Shadow::diff(&prev, &g, map.as_ref());
                    let mut t = ns(origin);
                    spans.push((e, "core.diff", usize::MAX, t2, t));
                    for (i, tree) in trees.iter().enumerate() {
                        std::hint::black_box(shadow.classify(i, &delta, tree));
                        let t3 = ns(origin);
                        spans.push((e, "core.classify", i, t, t3));
                        let o = shadow.price_epoch(i, &g, map.as_ref());
                        t = ns(origin);
                        spans.push((e, "core.price_epoch", i, t3, t));
                        outcomes.push((e, i, outcome_code(&o)));
                    }
                    drop((trees, delta));
                    let t4 = ns(origin);
                    spans.push((e, "harness.replay_prep", usize::MAX, t, t4));
                    // One cold sweep per epoch, for the AP that rotates
                    // with the epoch: the reference every AP's repair of
                    // this graph is compared against.
                    let cold_ap = e % k;
                    shadow.cold(cold_ap, &g);
                    spans.push((e, "core.cold", cold_ap, t4, ns(origin)));
                }
                since.store(0, Ordering::SeqCst);
                prev = g;
                let mut l = log.lock().expect("replay log holder panicked");
                l.spans.extend(spans);
                l.outcomes.extend(outcomes);
            }
        })
    };
    let mut tripped = None;
    while !worker.is_finished() {
        std::thread::sleep(Duration::from_millis(5));
        let s = since.load(Ordering::SeqCst);
        let overdue = s != 0 && ns(origin).saturating_sub(s - 1) > EPOCH_DEADLINE.as_nanos() as u64;
        if overdue || proc::rss_kb().saturating_sub(rss0) > RSS_CAP_KB {
            tripped = Some(at.load(Ordering::SeqCst));
            break;
        }
    }
    if tripped.is_none() {
        worker.join().expect("replay thread panicked");
    }
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let l = log.lock().unwrap_or_else(|p| p.into_inner());
    let mut write = || -> std::io::Result<()> {
        for (e, name, ap, s, t) in &l.spans {
            let ap = if *ap == usize::MAX { -1 } else { *ap as i64 };
            writeln!(out, "P {e} {name} {ap} {s} {t}")?;
        }
        for (e, ap, code) in &l.outcomes {
            writeln!(out, "O {e} {ap} {code}")?;
        }
        if let Some(e) = tripped {
            writeln!(out, "T {e}")?;
        }
        writeln!(out, "END")?;
        out.flush()
    };
    write().expect("write to the parent");
    if tripped.is_some() {
        std::process::exit(0);
    }
}
