//! The live phase, run in a child process: one thread serves the
//! open-loop session schedule, a second rolls the epoch schedule, and
//! the main thread is the watchdog.
//!
//! The watchdog exists because an epoch can fail to return: a known
//! defect in warm-resize repair loops while growing a vector until the
//! allocator aborts. A stuck thread cannot be stopped from inside the
//! process, so when an epoch runs past its deadline or the process grows
//! past its memory cap, the child writes what it has recorded and exits;
//! the parent then counts the epoch as failed and starts a fresh child
//! from the next epoch. A stuck resize can also wedge the serving thread
//! (`serve_batch` waits for every shard to reach the new node epoch), so
//! the watchdog never waits for either thread.
//!
//! Output is line-oriented text on stdout, read by `parent::Segment::parse`.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::adapter::{self, EpochOutcome, NodeId, Served, Service};
use crate::inputs::{self, Inputs, Workload, QUEUE_CAPACITY};
use crate::proc;

/// Longest an epoch may run before it counts as failed. Epochs on these
/// workloads take well under 0.5 s.
pub const EPOCH_DEADLINE: Duration = Duration::from_secs(3);
/// Growth over the live phase's starting RSS that counts as runaway.
pub const RSS_CAP_KB: u64 = 384 * 1024;

/// Room reserved for sampled settlements: one per this many sessions,
/// above every workload's sampling rate.
const SAMPLES_RESERVE_DIVISOR: usize = 16;

pub fn ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// What the serving loop keeps per batch: 16 bytes, since serve-steady
/// runs millions of batches. Traced runs keep `[start, recorded,
/// dropped, drained]` beside it.
#[derive(Clone, Copy)]
pub struct Batch {
    pub n: u32,
    pub shed: u32,
    pub served: u64,
}

pub struct ServeLog {
    pub batches: Vec<Batch>,
    pub spans: Vec<[u64; 4]>,
    /// `(session index, ap_index, generation, digest)`.
    pub samples: Vec<(u64, usize, u64, u64)>,
    pub offered: u64,
    pub settled: u64,
    pub shed: u64,
    pub unreachable: u64,
    pub drained: u64,
    /// Serving-thread CPU time spent inside the program's serving calls
    /// (`serve_batch`, dropping its outcomes, `drain`); see `CpuShare`.
    pub busy_ns: u64,
    pub start: u64,
    pub end: u64,
}

impl ServeLog {
    /// A log with room for `sessions` batches, already written once:
    /// growing a large vector mid-run would stall the loop while it
    /// copies, and first touches of fresh memory stall it too.
    pub fn new(sessions: usize, traced: bool) -> ServeLog {
        fn touched<T: Copy>(n: usize, zero: T) -> Vec<T> {
            let mut v = vec![zero; n];
            v.clear();
            v
        }
        ServeLog {
            batches: touched(
                sessions,
                Batch {
                    n: 0,
                    shed: 0,
                    served: 0,
                },
            ),
            spans: touched(if traced { sessions } else { 0 }, [0; 4]),
            samples: touched(sessions / SAMPLES_RESERVE_DIVISOR, (0, 0, 0, 0)),
            offered: 0,
            settled: 0,
            shed: 0,
            unreachable: 0,
            drained: 0,
            busy_ns: 0,
            start: 0,
            end: 0,
        }
    }

    /// Bytes the log holds, all of it resident.
    fn bytes(&self) -> usize {
        self.batches.capacity() * std::mem::size_of::<Batch>()
            + self.spans.capacity() * std::mem::size_of::<[u64; 4]>()
            + self.samples.capacity() * std::mem::size_of::<(u64, usize, u64, u64)>()
    }
}

/// The part of the schedule one serving loop works through.
pub struct Schedule<'a> {
    pub due: &'a [u64],
    pub sources: &'a [NodeId],
    /// Index of `due[0]` in the whole schedule (for sampling).
    pub first: u64,
    /// Schedule time that maps to the segment origin.
    pub base: u64,
}

pub struct ServeOpts<'a> {
    pub traced: bool,
    pub sample: &'a dyn Fn(u64) -> bool,
    /// Give up once a batch starts this late: the backlog is growing.
    pub give_up_late_ns: Option<u64>,
}

/// The open-loop serving loop. Each batch takes every session due by
/// the time it starts, so a stall is charged to every session queued
/// behind it. Waits sleep when the next arrival is far and spin when it
/// is near.
pub fn serve_loop(
    svc: &Service,
    s: &Schedule,
    origin: Instant,
    opts: &ServeOpts,
    stop: &AtomicBool,
    log: &Mutex<ServeLog>,
) {
    let start = ns(origin);
    let mut cpu = CpuShare::new(start);
    let mut i = 0usize;
    while i < s.due.len() && !stop.load(Ordering::Relaxed) {
        let due = s.due[i].saturating_sub(s.base);
        let mut now = ns(origin);
        if due > now {
            if due - now > 200_000 {
                std::thread::sleep(Duration::from_nanos(due - now - 100_000));
                cpu.asleep += ns(origin) - now;
            }
            now = ns(origin);
            while now < due {
                std::hint::spin_loop();
                now = ns(origin);
            }
        }
        if let Some(limit) = opts.give_up_late_ns {
            if now - due > limit {
                break;
            }
        }
        let mut j = i + 1;
        while j < s.due.len() && s.due[j].saturating_sub(s.base) <= now {
            j += 1;
        }
        let out = adapter::serve_batch(svc, &s.sources[i..j]);
        let served = ns(origin);
        let (settled, shed, unreachable) = adapter::tally(&out);
        let mut samples = Vec::new();
        for (k, o) in out.iter().enumerate() {
            let idx = s.first + (i + k) as u64;
            if (opts.sample)(idx) {
                if let Served::Settled(ap, gen, digest) = adapter::served(o) {
                    samples.push((idx, ap, gen, digest));
                }
            }
        }
        let recorded = ns(origin);
        // The settlements `serve_batch` hands back are the caller's to
        // free; that cost belongs to the serve path, not the harness.
        drop(out);
        let dropped = if opts.traced { ns(origin) } else { 0 };
        let drained = adapter::drain(svc) as u64;
        let drained_at = ns(origin);
        let mut l = log.lock().expect("serve log holder panicked");
        l.batches.push(Batch {
            n: (j - i) as u32,
            shed: shed as u32,
            served,
        });
        if opts.traced {
            l.spans.push([now, recorded, dropped, drained_at]);
        }
        l.samples.extend(samples);
        l.offered += (j - i) as u64;
        l.settled += settled;
        l.shed += shed;
        l.unreachable += unreachable;
        l.drained += drained;
        cpu.busy += (served - now) + (drained_at - recorded);
        l.busy_ns = cpu.read(drained_at, false);
        l.start = start;
        l.end = drained_at;
        drop(l);
        i = j;
    }
    let end = ns(origin);
    let mut l = log.lock().expect("serve log holder panicked");
    l.busy_ns = cpu.read(end, true);
    l.start = start;
    l.end = end;
}

/// The serving thread's CPU time inside the program's calls. The thread
/// spins while it waits for arrivals, so its CPU time as a whole counts
/// the waiting too, and reading the thread clock around every call would
/// cost as much as a small batch. Instead the clock is read about once a
/// millisecond and each interval's CPU time is split by the share of its
/// waking wall time spent inside calls; time the host takes the CPU away
/// then counts for neither.
struct CpuShare {
    since: u64,
    since_cpu: u64,
    /// Wall time inside calls, and asleep, since `since`.
    busy: u64,
    asleep: u64,
    total: u64,
}

impl CpuShare {
    fn new(now: u64) -> CpuShare {
        CpuShare {
            since: now,
            since_cpu: proc::thread_cpu_ns(),
            busy: 0,
            asleep: 0,
            total: 0,
        }
    }

    /// CPU time inside calls so far, closing the interval at `now` if it
    /// is a millisecond old or `last`.
    fn read(&mut self, now: u64, last: bool) -> u64 {
        if last || now - self.since >= 1_000_000 {
            let cpu = proc::thread_cpu_ns();
            let awake = (now - self.since).saturating_sub(self.asleep);
            if awake > 0 {
                let share = self.busy.min(awake) as u128;
                self.total += ((cpu - self.since_cpu) as u128 * share / awake as u128) as u64;
            }
            *self = CpuShare {
                since: now,
                since_cpu: cpu,
                busy: 0,
                asleep: 0,
                total: self.total,
            };
        }
        self.total
    }
}

/// One epoch: scheduled time, graph build, `begin_epoch*`, harness
/// bookkeeping. Timestamps are ns from the segment origin.
pub struct EpochRec {
    pub e: usize,
    pub due: u64,
    pub start: u64,
    pub built: u64,
    pub published: u64,
    pub recorded: u64,
    pub cpu_ns: u64,
    pub outcomes: Vec<EpochOutcome>,
    pub unreachable: usize,
    /// Digest of each AP's published table, checked against the oracle.
    pub tables: Vec<u64>,
}

#[derive(Default)]
pub struct EpochLog {
    pub epochs: Vec<EpochRec>,
    pub start: u64,
    pub end: u64,
    /// Peak RSS (`VmHWM`) in KiB, read after every epoch and at the end
    /// of a segment that finished; a segment the watchdog cut short keeps
    /// the reading from before the runaway epoch.
    pub peak_kb: u64,
    pub snapshot_bytes: usize,
}

/// Epoch in flight, for the watchdog: `(epoch, start ns + 1)`, start 0
/// when idle.
#[derive(Default)]
pub struct InFlight {
    pub epoch: AtomicU64,
    pub since: AtomicU64,
}

#[allow(clippy::too_many_arguments)]
fn epoch_loop(
    svc: &Service,
    inp: &Inputs,
    k: usize,
    e0: usize,
    base: u64,
    origin: Instant,
    stop: &AtomicBool,
    inflight: &InFlight,
    log: &Mutex<EpochLog>,
) {
    log.lock().expect("epoch log holder panicked").start = ns(origin);
    for e in e0 + 1..inp.epochs.len() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // Sleep to just short of the due time, then spin: a plain sleep
        // wakes tens to hundreds of microseconds late.
        let due = inp.epoch_due[e].saturating_sub(base);
        let now = ns(origin);
        if due > now + 300_000 {
            std::thread::sleep(Duration::from_nanos(due - now - 300_000));
        }
        while ns(origin) < due {
            std::hint::spin_loop();
        }
        let ep = &inp.epochs[e];
        inflight.epoch.store(e as u64, Ordering::SeqCst);
        let cpu0 = proc::thread_cpu_ns();
        let start = ns(origin);
        inflight.since.store(start + 1, Ordering::SeqCst);
        let g = ep.graph();
        let map = ep.old_to_new.as_ref().map(|m| adapter::build_map(m, ep.n));
        let built = ns(origin);
        let outcomes = adapter::begin_epoch(svc, &g, map.as_ref());
        let published = ns(origin);
        let cpu_ns = proc::thread_cpu_ns() - cpu0;
        inflight.since.store(0, Ordering::SeqCst);
        drop((g, map));
        let published_tables = adapter::published(svc, k);
        let peak = proc::peak_rss_kb();
        let recorded = ns(origin);
        let mut l = log.lock().expect("epoch log holder panicked");
        l.peak_kb = l.peak_kb.max(peak);
        l.epochs.push(EpochRec {
            e,
            due,
            start,
            built,
            published,
            recorded,
            cpu_ns,
            outcomes,
            unreachable: published_tables.unreachable,
            tables: published_tables.digests,
        });
    }
    log.lock().expect("epoch log holder panicked").end = ns(origin);
}

pub fn outcome_code(o: &EpochOutcome) -> String {
    match *o {
        EpochOutcome::Cold => "C".into(),
        EpochOutcome::ColdResize { from, to } => format!("Z:{from}:{to}"),
        EpochOutcome::Reused => "U".into(),
        EpochOutcome::Repaired {
            dirty_nodes,
            repaired_slices,
            repriced_sources,
        } => format!("R:{dirty_nodes}:{repaired_slices}:{repriced_sources}"),
        EpochOutcome::Fallback { dirty_nodes } => format!("F:{dirty_nodes}"),
        EpochOutcome::WarmResize {
            born,
            died,
            repaired,
        } => format!("W:{born}:{died}:{repaired}"),
    }
}

/// Runs one live segment: a fresh service on epoch `e0`'s graph, the
/// sessions from `s0` on, and the epochs after `e0`. Writes the record
/// to stdout and, after a watchdog trip, exits the process.
pub fn run(w: &'static Workload, seed: u64, live_ns: u64, e0: usize, s0: usize, traced: bool) {
    let inp = Arc::new(inputs::generate(w, seed, live_ns));
    let g0 = inp.epochs[e0].graph();
    let t = Instant::now();
    let svc = Arc::new(adapter::new_service(&inp.aps, QUEUE_CAPACITY, &g0));
    let setup_ns = t.elapsed().as_nanos() as u64;
    drop(g0);
    let initial = adapter::published(&svc, w.k).digests;
    let base = if e0 == 0 {
        0
    } else {
        inp.due.get(s0).copied().unwrap_or(0)
    };
    let stop = Arc::new(AtomicBool::new(false));
    let inflight = Arc::new(InFlight::default());
    let serve_log = Arc::new(Mutex::new(ServeLog::new(inp.due.len() - s0, traced)));
    let epoch_log = Arc::new(Mutex::new(EpochLog::default()));
    let rss_limit = proc::rss_kb() + RSS_CAP_KB;
    let origin = Instant::now();

    let server = {
        let (svc, inp, stop, log) = (svc.clone(), inp.clone(), stop.clone(), serve_log.clone());
        std::thread::spawn(move || {
            let s = Schedule {
                due: &inp.due[s0..],
                sources: &inp.sources[s0..],
                first: s0 as u64,
                base,
            };
            let every = w.sample_every;
            let sample = move |i: u64| inputs::sampled(seed, i, every);
            let opts = ServeOpts {
                traced,
                sample: &sample,
                give_up_late_ns: None,
            };
            serve_loop(&svc, &s, origin, &opts, &stop, &log);
        })
    };
    let roller = {
        let (svc, inp, stop, inflight, log) = (
            svc.clone(),
            inp.clone(),
            stop.clone(),
            inflight.clone(),
            epoch_log.clone(),
        );
        std::thread::spawn(move || {
            epoch_loop(&svc, &inp, w.k, e0, base, origin, &stop, &inflight, &log)
        })
    };

    let mut failed: Option<u64> = None;
    while !(server.is_finished() && roller.is_finished()) {
        std::thread::sleep(Duration::from_millis(5));
        let since = inflight.since.load(Ordering::SeqCst);
        let overdue =
            since != 0 && ns(origin).saturating_sub(since - 1) > EPOCH_DEADLINE.as_nanos() as u64;
        if overdue || proc::rss_kb() > rss_limit {
            failed = Some(inflight.epoch.load(Ordering::SeqCst));
            break;
        }
    }
    stop.store(true, Ordering::SeqCst);
    if failed.is_none() {
        server.join().expect("serving thread panicked");
        roller.join().expect("epoch thread panicked");
        let mut l = epoch_log.lock().expect("epoch log holder panicked");
        l.peak_kb = l.peak_kb.max(proc::peak_rss_kb());
        l.snapshot_bytes = adapter::published(&svc, w.k).bytes_per_ap;
    } else {
        // Give a serving thread that is not wedged a moment to finish its
        // batch; the stuck thread keeps running until the process exits.
        let t = Instant::now();
        while !server.is_finished() && t.elapsed() < Duration::from_millis(50) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let schedule_bytes = inp.due.len() * std::mem::size_of::<u64>()
        + inp.sources.len() * std::mem::size_of::<NodeId>();
    dump(
        &mut out,
        [e0, s0, base as usize, setup_ns as usize, schedule_bytes],
        &initial,
        &serve_log,
        &epoch_log,
        failed,
    )
    .expect("write to the parent");
    out.flush().expect("write to the parent");
    drop(out);
    if failed.is_some() {
        std::process::exit(0);
    }
}

fn hex(v: &[u64]) -> String {
    v.iter()
        .map(|d| format!("{d:x}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// `head` is `[e0, s0, base, setup_ns, schedule_bytes]`; `initial` the
/// digests of the tables the service was set up with.
fn dump(
    out: &mut impl Write,
    head: [usize; 5],
    initial: &[u64],
    serve: &Mutex<ServeLog>,
    epochs: &Mutex<EpochLog>,
    failed: Option<u64>,
) -> std::io::Result<()> {
    let [e0, s0, base, setup_ns, schedule_bytes] = head;
    writeln!(out, "G {e0} {s0} {base} {setup_ns} {}", hex(initial))?;
    let s = serve.lock().unwrap_or_else(|p| p.into_inner());
    for (i, b) in s.batches.iter().enumerate() {
        let [start, recorded, dropped, drained] = s.spans.get(i).copied().unwrap_or_default();
        writeln!(
            out,
            "B {} {} {start} {} {recorded} {dropped} {drained}",
            b.n, b.shed, b.served
        )?;
    }
    for (i, ap, gen, d) in &s.samples {
        writeln!(out, "S {i} {ap} {gen} {d}")?;
    }
    writeln!(
        out,
        "X {} {} {} {} {} {} {} {}",
        s.offered, s.settled, s.shed, s.unreachable, s.drained, s.busy_ns, s.start, s.end
    )?;
    let l = epochs.lock().unwrap_or_else(|p| p.into_inner());
    for r in &l.epochs {
        let codes: Vec<String> = r.outcomes.iter().map(outcome_code).collect();
        writeln!(
            out,
            "E {} {} {} {} {} {} {} {} {} {}",
            r.e,
            r.due,
            r.start,
            r.built,
            r.published,
            r.recorded,
            r.cpu_ns,
            r.unreachable,
            codes.join(","),
            hex(&r.tables)
        )?;
    }
    // The peak reported is the program's: the harness's per-session
    // arrays (the schedule and the batch log, millions of entries on
    // serve-steady) are subtracted, since they would otherwise dominate.
    let harness_kb = (schedule_bytes + s.bytes()) as u64 / 1024;
    writeln!(
        out,
        "L {} {} {} {}",
        l.start,
        l.end,
        l.peak_kb.saturating_sub(harness_kb),
        l.snapshot_bytes
    )?;
    if let Some(e) = failed {
        writeln!(out, "T {e}")?;
    }
    writeln!(out, "END")
}
