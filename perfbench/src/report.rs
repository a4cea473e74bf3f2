//! Turning the children's records into metrics, output checks, the
//! per-layer self-time table, the span file and the result line.

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One source's oracle entry per AP: `(LCP cost in micros, digest)`.
type OracleRow = Vec<Option<(u64, u64)>>;
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Instant;

use crate::adapter::{self, NodeId};
use crate::inputs::{self, Inputs, Workload, QUEUE_CAPACITY};
use crate::live::{self, Schedule, ServeLog, ServeOpts};
use crate::parent::{Replay, Segment};

/// Where the traced run writes its span file (Chrome trace format).
pub const SPAN_FILE: &str = "perfbench/out/spans.json";
/// Latency limit for the rate search, and the share of spans that must
/// be named layer spans.
const LATENCY_LIMIT_NS: u64 = 1_000_000;
const MIN_COVERAGE: f64 = 0.90;
/// Window over which `session_p99_us` takes each p99.
const WINDOW_NS: u64 = 100_000_000;
/// Batches written to the span file; the table uses all of them. The
/// file stays at a few thousand events because `tracecheck`'s nesting
/// check takes time quadratic in the event count.
const SPAN_FILE_BATCHES: usize = 300;

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Nearest-rank quantile of sorted data; NaN when empty.
fn q(s: &[u64], p: f64) -> f64 {
    if s.is_empty() {
        return f64::NAN;
    }
    let i = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    s[i] as f64
}

fn median_f(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
}

/// `PaymentService::new` on the first epoch graph, three times (ns).
pub fn setup(inp: &Inputs) -> Vec<u64> {
    let g = inp.epochs[0].graph();
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let svc = adapter::new_service(&inp.aps, QUEUE_CAPACITY, &g);
            let ns = t.elapsed().as_nanos() as u64;
            drop(svc);
            ns
        })
        .collect()
}

/// A span for the span file, in ns on the file's timeline.
struct Span {
    name: String,
    tid: u32,
    start: u64,
    end: u64,
    id: u64,
    parent: Option<u64>,
    arg: u64,
}

const OUTCOMES: [(&str, &str); 6] = [
    ("C", "cold"),
    ("U", "reused"),
    ("R", "repaired"),
    ("F", "fallback"),
    ("W", "warm_resize"),
    ("Z", "cold_resize"),
];

fn outcome_name(code: &str) -> &'static str {
    let tag = code.split(':').next().unwrap_or("");
    OUTCOMES
        .iter()
        .find(|(c, _)| *c == tag)
        .map_or("unknown", |(_, n)| n)
}

fn code_field(code: &str, i: usize) -> Option<u64> {
    code.split(':').nth(i)?.parse().ok()
}

/// Everything one live phase measured.
#[derive(Default)]
struct Live {
    /// Every session's latency (a shed session counts as `u64::MAX`),
    /// and per 100 ms window of the schedule.
    lat: Vec<u64>,
    windows: Vec<Vec<u64>>,
    /// Latencies of sessions whose wait overlapped epoch `e`'s call.
    swap: BTreeMap<usize, Vec<u64>>,
    stale: Vec<u64>,
    epoch_cpu: Vec<u64>,
    epochs_ok: u64,
    epochs_failed: u64,
    segments: u64,
    busy_ns: u64,
    peak_kb: u64,
    snapshot_bytes: u64,
    offered: u64,
    shed: u64,
    unreachable: u64,
    digest: adapter::Fnv,
    outcomes: BTreeMap<&'static str, u64>,
    dirty: Vec<u64>,
    repriced: Vec<u64>,
    // Traced phase only.
    batch_n: Vec<u64>,
    serve: Vec<u64>,
    per_session: Vec<u64>,
    wait: Vec<u64>,
    drain: Vec<u64>,
    begin: Vec<u64>,
    build: Vec<u64>,
    gen_late: Vec<u64>,
    epoch_late: Vec<u64>,
    /// Total ns per span name, and per root.
    totals: BTreeMap<&'static str, (u64, u64)>,
    spans: Vec<Span>,
}

impl Live {
    fn cpu_ns_per_session(&self) -> f64 {
        self.busy_ns as f64 / self.offered.max(1) as f64
    }

    /// The median over the schedule's 100 ms windows of each window's
    /// p99. A stall of the machine spoils the windows it lands in, not
    /// the run; windows with fewer than 100 sessions are skipped.
    fn windowed_p99(&self) -> f64 {
        median_f(
            self.windows
                .iter()
                .filter(|w| w.len() >= 100)
                .map(|w| q(&sorted(w.clone()), 0.99))
                .collect(),
        )
    }

    /// The median over epochs of the p99 of the sessions that waited
    /// while that epoch was being applied (epochs overlapped by fewer
    /// than 100 sessions are skipped).
    fn swap_p99(&self) -> f64 {
        median_f(
            self.swap
                .values()
                .filter(|v| v.len() >= 100)
                .map(|v| q(&sorted(v.clone()), 0.99))
                .collect(),
        )
    }

    /// Epoch-thread CPU time for the graph builds and `begin_epoch*`
    /// calls, per epoch.
    fn epoch_cpu_ms(&self) -> f64 {
        self.epoch_cpu.iter().sum::<u64>() as f64 / self.epoch_cpu.len().max(1) as f64 / 1e6
    }

    fn add(&mut self, name: &'static str, ns: u64) {
        let t = self.totals.entry(name).or_default();
        t.0 += 1;
        t.1 += ns;
    }
}

pub struct Report {
    w: &'static Workload,
    setup_ns: Vec<u64>,
    plain: Option<Live>,
    traced: Option<Live>,
    replay: Option<Replay>,
    max_rate: Option<f64>,
    rate_probes: Vec<(f64, f64, bool)>,
    failures: Vec<String>,
    oracle_checked: usize,
    /// Per live phase, `(segment, epoch)` whose published table
    /// disagrees with the oracle.
    bad_tables: Vec<BTreeSet<(usize, usize)>>,
}

impl Report {
    pub fn new(w: &'static Workload, setup_ns: Vec<u64>) -> Report {
        Report {
            w,
            setup_ns,
            plain: None,
            traced: None,
            replay: None,
            max_rate: None,
            rate_probes: Vec::new(),
            failures: Vec::new(),
            oracle_checked: 0,
            bad_tables: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        println!("CHECK FAILED: {msg}");
        self.failures.push(msg);
    }

    /// Folds one live phase's segments into metrics and runs the
    /// accounting check (offered = settled + shed + unreachable).
    /// Call after `oracle`, which finds the epochs that published a wrong
    /// table; `phase` indexes the phases as passed to it.
    pub fn live(&mut self, inp: &Inputs, segs: &[Segment], phase: usize, traced: bool) {
        let bad = self.bad_tables[phase].clone();
        let mut l = Live::default();
        let mut offset = 0u64;
        let mut batches_in_file = 0usize;
        let mut next_id = 1u64;
        for (si, seg) in segs.iter().enumerate() {
            l.segments += 1;
            if seg.settled + seg.shed + seg.unreachable != seg.offered
                || seg.drained != seg.settled
                || seg.offered != seg.served_sessions() as u64
            {
                self.fail(format!(
                    "segment from epoch {}: offered {} != settled {} + shed {} + unreachable {} (drained {})",
                    seg.e0, seg.offered, seg.settled, seg.shed, seg.unreachable, seg.drained
                ));
            }
            l.offered += seg.offered;
            l.shed += seg.shed;
            l.unreachable += seg.unreachable;
            l.busy_ns += seg.busy_ns;
            l.peak_kb = l.peak_kb.max(seg.peak_kb);
            l.snapshot_bytes = l.snapshot_bytes.max(seg.snapshot_bytes);
            // Epoch intervals a session can overlap; a failed epoch is in
            // flight from its start to the end of the segment.
            let mut inflight: Vec<(u64, u64, usize)> = seg
                .epochs
                .iter()
                .map(|r| (r.start, r.published, r.e))
                .collect();
            let mut prev = seg.epoch_start;
            for r in &seg.epochs {
                l.stale.push(r.published - r.due);
                l.epoch_cpu.push(r.cpu_ns);
                if bad.contains(&(si, r.e)) {
                    l.epochs_failed += 1;
                } else {
                    l.epochs_ok += 1;
                }
                l.digest.eat(r.e as u64);
                l.digest.eat(r.unreachable);
                for c in &r.codes {
                    l.digest.bytes(c.as_bytes());
                    *l.outcomes.entry(outcome_name(c)).or_default() += 1;
                    match outcome_name(c) {
                        "repaired" => {
                            l.dirty.extend(code_field(c, 1));
                            l.repriced.extend(code_field(c, 3));
                        }
                        "fallback" => l.dirty.extend(code_field(c, 1)),
                        "warm_resize" => l.repriced.extend(code_field(c, 3)),
                        _ => {}
                    }
                }
                if traced {
                    l.build.push(r.built - r.start);
                    l.begin.push(r.published - r.built);
                    l.epoch_late.push(r.start.saturating_sub(r.due.max(prev)));
                    l.add("gen.epoch_wait", r.start.saturating_sub(prev));
                    l.add("graph.build", r.built - r.start);
                    l.add("service.begin_epoch", r.published - r.built);
                    l.add("harness.epoch_record", r.recorded - r.published);
                }
                prev = r.recorded;
            }
            let epoch_end = if seg.epoch_end >= seg.epoch_start {
                seg.epoch_end
            } else {
                prev
            };
            if let Some(f) = seg.failed {
                l.epochs_failed += 1;
                l.digest.eat(f as u64);
                l.digest.bytes(b"failed");
                inflight.push((prev, u64::MAX, f));
            }
            if traced {
                l.add("harness.epoch_loop", epoch_end.max(prev) - seg.epoch_start);
            }
            // Sessions, in schedule order.
            let mut idx = seg.s0;
            let mut p = 0usize;
            let mut prev_end = seg.start;
            for (bi, b) in seg.batches.iter().enumerate() {
                let first_due = inp.due[idx].saturating_sub(seg.base);
                for k in 0..b.n as usize {
                    let d = inp.due[idx + k].saturating_sub(seg.base);
                    let shed = k >= (b.n - b.shed) as usize;
                    let lat = if shed { u64::MAX } else { b.served - d };
                    l.lat.push(lat);
                    let w = (inp.due[idx + k] / WINDOW_NS) as usize;
                    if l.windows.len() <= w {
                        l.windows.resize(w + 1, Vec::new());
                    }
                    l.windows[w].push(lat);
                    while p < inflight.len() && inflight[p].1 < d {
                        p += 1;
                    }
                    if p < inflight.len() && inflight[p].0 <= b.served {
                        l.swap.entry(inflight[p].2).or_default().push(lat);
                    }
                    if traced {
                        l.wait.push(b.start - d);
                    }
                }
                if traced {
                    let serve = b.served - b.start;
                    l.batch_n.push(u64::from(b.n));
                    l.serve.push(serve);
                    l.per_session.push(serve / u64::from(b.n));
                    l.drain.push(b.drained - b.dropped);
                    l.gen_late
                        .push(b.start.saturating_sub(first_due.max(prev_end)));
                    l.add("gen.wait", b.start - prev_end);
                    l.add("service.serve_batch", serve);
                    l.add("harness.record", b.recorded - b.served);
                    l.add("service.outcome_drop", b.dropped - b.recorded);
                    l.add("service.drain", b.drained - b.dropped);
                    if batches_in_file < SPAN_FILE_BATCHES {
                        batches_in_file += 1;
                        for (name, s, e) in [
                            ("gen.wait", prev_end, b.start),
                            ("service.serve_batch", b.start, b.served),
                            ("harness.record", b.served, b.recorded),
                            ("service.outcome_drop", b.recorded, b.dropped),
                            ("service.drain", b.dropped, b.drained),
                        ] {
                            l.spans.push(Span {
                                name: name.into(),
                                tid: 1,
                                start: offset + s,
                                end: offset + e,
                                id: next_id,
                                parent: Some(0),
                                arg: bi as u64,
                            });
                            next_id += 1;
                        }
                    }
                    prev_end = b.drained;
                }
                idx += b.n as usize;
            }
            if traced {
                let serve_end = seg.end.max(prev_end);
                l.add("harness.serve_loop", serve_end - seg.start);
                // Roots are patched to real ids below; children point at
                // the placeholder parent 0 until then.
                let root = next_id;
                next_id += 1;
                for s in l.spans.iter_mut().filter(|s| s.parent == Some(0)) {
                    s.parent = Some(root);
                }
                l.spans.push(Span {
                    name: "harness.serve_loop".into(),
                    tid: 1,
                    start: offset + seg.start,
                    end: offset + serve_end,
                    id: root,
                    parent: None,
                    arg: seg.e0 as u64,
                });
                let eroot = next_id;
                next_id += 1;
                l.spans.push(Span {
                    name: "harness.epoch_loop".into(),
                    tid: 2,
                    start: offset + seg.epoch_start,
                    end: offset + epoch_end.max(prev),
                    id: eroot,
                    parent: None,
                    arg: seg.e0 as u64,
                });
                let mut prev = seg.epoch_start;
                for r in &seg.epochs {
                    for (name, s, e) in [
                        ("gen.epoch_wait", prev, r.start),
                        ("graph.build", r.start, r.built),
                        ("service.begin_epoch", r.built, r.published),
                        ("harness.epoch_record", r.published, r.recorded),
                    ] {
                        l.spans.push(Span {
                            name: name.into(),
                            tid: 2,
                            start: offset + s,
                            end: offset + e,
                            id: next_id,
                            parent: Some(eroot),
                            arg: r.e as u64,
                        });
                        next_id += 1;
                    }
                    prev = r.recorded;
                }
                offset += serve_end.max(epoch_end).max(prev) + 1_000_000;
            }
        }
        l.lat = sorted(std::mem::take(&mut l.lat));
        l.stale = sorted(std::mem::take(&mut l.stale));
        if segs.len() > 1 {
            let restarts: Vec<u64> = segs[1..].iter().map(|s| s.setup_ns).collect();
            println!(
                "  {} restart(s), cold set-up median {:.1} ms",
                restarts.len(),
                q(&sorted(restarts), 0.5) / 1e6
            );
        }
        println!(
            "live ({})         : {} sessions ({} shed, {} unreachable) in {} segment(s); {} epochs ok, {} failed; outcome digest {:016x}",
            if traced { "traced" } else { "plain " },
            l.offered,
            l.shed,
            l.unreachable,
            l.segments,
            l.epochs_ok,
            l.epochs_failed,
            l.digest.0
        );
        if l.offered != inp.due.len() as u64 {
            self.fail(format!(
                "{} of {} scheduled sessions were offered",
                l.offered,
                inp.due.len()
            ));
        }
        if traced {
            self.traced = Some(l);
        } else {
            self.plain = Some(l);
        }
    }

    pub fn replay(&mut self, r: Replay) {
        if let Some(e) = r.tripped {
            self.fail(format!("replay pass: epoch {e} did not return"));
        }
        self.replay = Some(r);
    }

    /// The highest offered rate the service keeps up with: nothing shed,
    /// no batch starting more than 20 ms late, and median session latency
    /// within 1 ms, so the backlog is not growing. Found by geometric
    /// bisection over `[rate / 4, rate * 256]` with no epochs running; the
    /// range leaves room for a serve path many times faster than today's.
    /// The limit is on the median, not the p99: on a 2-vCPU VM the p99 of
    /// any half-second probe is set by the host's scheduling stalls of one
    /// to ten milliseconds, at every rate, while a growing backlog moves
    /// the median within a probe.
    pub fn rate_search(&mut self, inp: &Inputs, seed: u64, budget_ns: u64) {
        const STEPS: u32 = 10;
        const MAX_SESSIONS: usize = 3_000_000;
        let g = inp.epochs[0].graph();
        let svc = adapter::new_service(&inp.aps, QUEUE_CAPACITY, &g);
        let mut rng = inputs::stream(seed, 4);
        // Unit-rate arrivals (one per ns), scaled to each probe's rate.
        let unit = inputs::arrivals(&mut rng, 1e9, MAX_SESSIONS as u64);
        let n0 = inp.epochs[0].n as u32;
        let sources: Vec<NodeId> = unit
            .iter()
            .map(|_| NodeId(truthcast_rt::Rng::gen_range(&mut rng, self.w.k as u32..n0)))
            .collect();
        let probe_ns = budget_ns / (2 * u64::from(STEPS));
        let probe = |rate: f64| -> (bool, f64, f64) {
            let scale = 1e9 / rate;
            // Above MAX_SESSIONS / probe length the probe is shortened
            // to the arrivals there are.
            let span = probe_ns.min((*unit.last().expect("arrivals") as f64 * scale) as u64);
            let due: Vec<u64> = unit
                .iter()
                .map(|&u| (u as f64 * scale) as u64)
                .take_while(|&d| d < span)
                .collect();
            let log = Mutex::new(ServeLog::new(due.len(), false));
            let s = Schedule {
                due: &due,
                sources: &sources[..due.len()],
                first: 0,
                base: 0,
            };
            let opts = ServeOpts {
                traced: false,
                sample: &|_| false,
                give_up_late_ns: Some(20 * LATENCY_LIMIT_NS),
            };
            live::serve_loop(
                &svc,
                &s,
                Instant::now(),
                &opts,
                &AtomicBool::new(false),
                &log,
            );
            let l = log.into_inner().expect("serve log holder panicked");
            let mut lat = Vec::with_capacity(due.len());
            let mut i = 0usize;
            for b in &l.batches {
                for &d in &due[i..i + b.n as usize] {
                    lat.push(b.served - d);
                }
                i += b.n as usize;
            }
            let p50 = q(&sorted(lat), 0.5);
            let pass =
                l.offered == due.len() as u64 && l.shed == 0 && p50 <= LATENCY_LIMIT_NS as f64;
            (pass, due.len() as f64 / (span as f64 / 1e9), p50)
        };
        let (mut lo, mut hi) = (self.w.rate / 4.0, self.w.rate * 256.0);
        let mut best = None;
        for _ in 0..STEPS {
            let mid = (lo * hi).sqrt();
            // A stall of the machine can sink one probe at any rate, so a
            // rate fails only when two probes in a row miss the limit.
            let (mut pass, mut offered, mut p50) = probe(mid);
            if !pass {
                self.rate_probes.push((offered, p50, pass));
                (pass, offered, p50) = probe(mid);
            }
            self.rate_probes.push((offered, p50, pass));
            if pass {
                lo = mid;
                best = Some(offered);
            } else {
                hi = mid;
            }
        }
        if best.is_none() {
            let (pass, offered, p50) = probe(lo);
            self.rate_probes.push((offered, p50, pass));
            if pass {
                best = Some(offered);
            } else {
                self.fail(format!(
                    "rate search: even {lo:.0} sessions/s misses the latency limit"
                ));
            }
        }
        self.max_rate = best;
    }

    /// Checks every table the service published against
    /// `all_sources_payments` on that epoch's graph, and a seeded sample
    /// of settlements against the same oracle, bit for bit.
    ///
    /// An epoch whose published table disagrees with the oracle is a
    /// failed epoch (counted by `live`), not a failed check: it is a
    /// defect of the epoch layer the benchmark records, and settlements
    /// priced while such a table was current are not compared. Every
    /// other sampled settlement must name an epoch whose call had begun
    /// when its batch returned and match the oracle. A batch that read
    /// its snapshots while an epoch was being published may see shards
    /// one epoch apart (the service only pins the node epoch, and shards
    /// publish one by one), so for such a batch the winner must match its
    /// own AP's table exactly and beat every other AP at that AP's epoch
    /// or a neighbouring one; any other batch must match the argmin over
    /// the APs of one epoch exactly.
    pub fn oracle(&mut self, inp: &Inputs, phases: &[&[Segment]]) {
        struct Sample {
            phase: usize,
            seg: usize,
            i: u64,
            ap: usize,
            digest: u64,
            e: usize,
            mixed: bool,
        }
        let mut samples = Vec::new();
        for (phase, segs) in phases.iter().enumerate() {
            for (si, seg) in segs.iter().enumerate() {
                let mut firsts = Vec::with_capacity(seg.batches.len());
                let mut idx = seg.s0 as u64;
                for b in &seg.batches {
                    firsts.push((idx, b.served));
                    idx += u64::from(b.n);
                }
                for &(i, ap, gen, digest) in &seg.samples {
                    let e = seg.e0 + gen as usize - 1;
                    let b = firsts.partition_point(|&(f, _)| f <= i) - 1;
                    let served = firsts[b].1;
                    let read_after = if b == 0 { 0 } else { firsts[b - 1].1 };
                    let begun = if e == seg.e0 {
                        Some(0)
                    } else {
                        seg.epochs.iter().find(|r| r.e == e).map(|r| r.built)
                    };
                    if e >= inp.epochs.len() || begun.is_none_or(|t| t > served) {
                        self.fail(format!(
                            "session {i} settled at generation {gen}, which had not begun"
                        ));
                        continue;
                    }
                    let mixed = seg
                        .epochs
                        .iter()
                        .any(|r| r.built <= served && r.published >= read_after);
                    samples.push(Sample {
                        phase,
                        seg: si,
                        i,
                        ap,
                        digest,
                        e,
                        mixed,
                    });
                }
            }
        }
        // Epochs a shard may sit at while epoch e is current: neighbours
        // over the same node set.
        let near = |e: usize| -> Vec<usize> {
            let mut v = vec![e];
            if e >= 1 && inp.epochs[e].old_to_new.is_none() {
                v.push(e - 1);
            }
            if e + 1 < inp.epochs.len() && inp.epochs[e + 1].old_to_new.is_none() {
                v.push(e + 1);
            }
            v
        };
        let mut need: Vec<BTreeSet<u32>> = vec![Default::default(); inp.epochs.len()];
        for s in &samples {
            let src = inp.sources[s.i as usize].0;
            for x in if s.mixed { near(s.e) } else { vec![s.e] } {
                need[x].insert(src);
            }
        }
        let mut tables: Vec<Vec<u64>> = Vec::with_capacity(inp.epochs.len());
        let mut rows: HashMap<(usize, u32), OracleRow> = HashMap::new();
        for (e, ep) in inp.epochs.iter().enumerate() {
            let srcs: Vec<NodeId> = need[e].iter().copied().map(NodeId).collect();
            let o = adapter::oracle(&ep.graph(), &inp.aps, &srcs);
            for (s, row) in srcs.iter().zip(o.rows) {
                rows.insert((e, s.0), row);
            }
            tables.push(o.tables);
        }
        // Published tables against the oracle.
        for segs in phases {
            let mut bad = BTreeSet::new();
            for (si, seg) in segs.iter().enumerate() {
                if seg.initial_tables != tables[seg.e0] {
                    bad.insert((si, seg.e0));
                }
                for r in &seg.epochs {
                    if r.tables != tables[r.e] {
                        bad.insert((si, r.e));
                    }
                }
            }
            self.bad_tables.push(bad);
        }
        let mut skipped = 0usize;
        for s in samples {
            let bad = &self.bad_tables[s.phase];
            if near(s.e).iter().any(|&x| bad.contains(&(s.seg, x))) {
                skipped += 1;
                continue;
            }
            let src = inp.sources[s.i as usize].0;
            let row = &rows[&(s.e, src)];
            let mut best: Option<(usize, (u64, u64))> = None;
            for (j, x) in row.iter().enumerate() {
                if let Some(x) = *x {
                    if best.is_none_or(|(_, b)| x.0 < b.0) {
                        best = Some((j, x));
                    }
                }
            }
            let exact = best.map(|(j, x)| (j, x.1)) == Some((s.ap, s.digest));
            let won_mixed =
                s.mixed && row.get(s.ap).copied().flatten().map(|x| x.1) == Some(s.digest) && {
                    let cost = row[s.ap].map_or(0, |x| x.0);
                    (0..row.len()).filter(|&j| j != s.ap).all(|j| {
                        near(s.e).iter().any(|&x| match rows[&(x, src)][j] {
                            None => true,
                            Some((c, _)) => c > cost || (c == cost && j > s.ap),
                        })
                    })
                };
            self.oracle_checked += 1;
            if !(exact || won_mixed) {
                self.fail(format!(
                    "session {} (source {src}) at epoch {}: settled at AP {} digest {:016x}; oracle per AP {row:?}",
                    s.i, s.e, s.ap, s.digest
                ));
            }
        }
        let bad: Vec<usize> = self.bad_tables.iter().map(|b| b.len()).collect();
        println!(
            "oracle check          : {} sampled settlements match all_sources_payments ({} skipped: priced from a table that disagrees with it); published tables disagreeing with it, per live phase: {:?} epochs",
            self.oracle_checked, skipped, bad
        );
    }

    /// Prints the tables and the result line; returns whether every
    /// check passed.
    pub fn finish(mut self, trace: bool) -> bool {
        let plain = self.plain.take().expect("plain live phase ran");
        let setup_s = median_f(self.setup_ns.iter().map(|&x| x as f64 / 1e9).collect());
        let sessions_failed = plain.shed as f64 / plain.offered.max(1) as f64;
        let epochs_failed =
            plain.epochs_failed as f64 / (plain.epochs_ok + plain.epochs_failed).max(1) as f64;
        // Every end-to-end metric, and whether BENCHMARK.json gates it.
        // The ungated ones vary between runs of the same code on a 2-vCPU
        // VM by about a quarter or more: the tails, the p90 staleness and
        // the peak RSS are set by the host's scheduling stalls of one to
        // ten milliseconds (and the large batches after them), and the
        // median latency on serve-steady by the machine's run-to-run
        // speed. They are printed, not gated.
        let mut e2e: Vec<(&str, f64, &str, bool)> = vec![
            ("setup_s", setup_s, "s", true),
            ("session_p50_us", q(&plain.lat, 0.50) / 1e3, "us", false),
            ("session_p99_us", plain.windowed_p99() / 1e3, "us", false),
            ("swap_p99_us", plain.swap_p99() / 1e3, "us", false),
        ];
        if let Some(r) = self.max_rate {
            e2e.push(("max_rate_sps", r, "sessions/s", true));
        }
        e2e.extend([
            ("cpu_ns_per_session", plain.cpu_ns_per_session(), "ns", true),
            ("staleness_p50_ms", q(&plain.stale, 0.50) / 1e6, "ms", true),
            ("staleness_p90_ms", q(&plain.stale, 0.90) / 1e6, "ms", false),
            ("epoch_cpu_ms", plain.epoch_cpu_ms(), "ms", true),
            ("peak_rss_mb", plain.peak_kb as f64 / 1024.0, "MiB", false),
        ]);
        println!("\n== end-to-end (untraced live phase) ==");
        for (name, v, unit, gated) in &e2e {
            println!(
                "  {name:<22} {v:>14.4} {unit:<10} {}",
                if *gated { "" } else { "(not gated)" }
            );
        }
        println!(
            "  {:<22} {:>14.6} ratio      (not gated; {} of {})",
            "sessions_failed_frac", sessions_failed, plain.shed, plain.offered
        );
        println!(
            "  {:<22} {:>14.6} ratio      (not gated; {} of {})",
            "epochs_failed_frac",
            epochs_failed,
            plain.epochs_failed,
            plain.epochs_ok + plain.epochs_failed
        );
        println!(
            "  samples: {} sessions in {} windows ({} overlapping an epoch), {} epochs",
            plain.lat.len(),
            plain.windows.iter().filter(|w| w.len() >= 100).count(),
            plain.swap.values().map(Vec::len).sum::<usize>(),
            plain.stale.len()
        );
        let mut all_swap: Vec<u64> = plain.swap.values().flatten().copied().collect();
        all_swap.sort_unstable();
        println!(
            "  whole-run p99 (not windowed): sessions {:.1} us, overlapping an epoch {:.1} us",
            q(&plain.lat, 0.99) / 1e3,
            q(&all_swap, 0.99) / 1e3
        );
        let outcomes: Vec<String> = plain
            .outcomes
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("  epoch outcomes (all shards): {}", outcomes.join(" "));
        for (offered, p50, pass) in &self.rate_probes {
            println!(
                "  rate probe {offered:>12.0} sessions/s: p50 {:>10.1} us {}",
                p50 / 1e3,
                if *pass { "pass" } else { "fail" }
            );
        }
        let mut attempted = plain.offered + plain.epochs_ok + plain.epochs_failed;
        let mut failed = plain.shed + plain.epochs_failed;
        let mut metrics: Vec<(&str, f64, &str)> = e2e
            .iter()
            .filter(|m| m.3)
            .map(|m| (m.0, m.1, m.2))
            .collect();
        if trace {
            let t = self.traced.take().expect("traced live phase ran");
            if t.digest.0 != plain.digest.0 {
                self.fail(format!(
                    "outcome digest differs between the plain ({:016x}) and traced ({:016x}) runs of the same seed",
                    plain.digest.0, t.digest.0
                ));
            }
            attempted += t.offered + t.epochs_ok + t.epochs_failed;
            failed += t.shed + t.epochs_failed;
            metrics = self.layers(&plain, &t, sessions_failed, epochs_failed);
        }
        let correct = self.failures.is_empty();
        let mut json = String::from("{");
        let _ = write!(json, "\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
        let mut first = true;
        for (name, v, unit) in &metrics {
            // Only a quantile of an empty set is not finite: a count of
            // nothing (e.g. dirty nodes on a workload without repairs).
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if first { "" } else { ", " }
            );
            first = false;
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }

    /// Per-layer metrics and the self-time table of the traced run.
    fn layers(
        &mut self,
        plain: &Live,
        t: &Live,
        sessions_failed: f64,
        epochs_failed: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let s = |v: &[u64]| sorted(v.to_vec());
        let (batch_n, serve, per_session, wait, drain) = (
            s(&t.batch_n),
            s(&t.serve),
            s(&t.per_session),
            s(&t.wait),
            s(&t.drain),
        );
        let (begin, build, gen_late, epoch_late) =
            (s(&t.begin), s(&t.build), s(&t.gen_late), s(&t.epoch_late));
        let (dirty, repriced) = (s(&t.dirty), s(&t.repriced));
        // Replay pass: core-layer calls.
        let mut price: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut all_price = Vec::new();
        let mut cold: BTreeMap<usize, u64> = BTreeMap::new();
        let mut diff = Vec::new();
        let mut classify = Vec::new();
        let mut replay_totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let r = self.replay.take().unwrap_or_default();
        let outcome_of: BTreeMap<(usize, usize), &str> = r
            .outcomes
            .iter()
            .map(|(e, ap, c)| ((*e, *ap), c.as_str()))
            .collect();
        for (e, name, ap, a, b) in &r.spans {
            let d = b - a;
            let tot = replay_totals.entry(name.clone()).or_default();
            tot.0 += 1;
            tot.1 += d;
            match name.as_str() {
                "core.diff" => diff.push(d),
                "core.classify" => classify.push(d),
                "core.cold" => {
                    cold.insert(*e, d);
                }
                "core.price_epoch" => {
                    all_price.push(d);
                    let kind = outcome_of
                        .get(&(*e, *ap as usize))
                        .map_or("unknown", |c| outcome_name(c));
                    price.entry(kind).or_default().push(d);
                }
                _ => {}
            }
        }
        let mut slower = 0u64;
        let mut non_cold = 0u64;
        for (e, name, ap, a, b) in &r.spans {
            if name == "core.price_epoch" {
                let kind = outcome_of
                    .get(&(*e, *ap as usize))
                    .map_or("unknown", |c| outcome_name(c));
                if let (Some(c), true) = (cold.get(e), kind != "cold" && kind != "cold_resize") {
                    non_cold += 1;
                    slower += u64::from(b - a > *c);
                }
            }
        }
        let cold_v = sorted(cold.values().copied().collect());
        let (all_price, diff, classify) = (sorted(all_price), sorted(diff), sorted(classify));
        let serve_root = t.totals.get("harness.serve_loop").map_or(1, |x| x.1.max(1)) as f64;
        let epoch_root = t.totals.get("harness.epoch_loop").map_or(1, |x| x.1.max(1)) as f64;
        let total = |n: &str| t.totals.get(n).map_or(0, |x| x.1) as f64;
        let serve_cov = (total("gen.wait")
            + total("service.serve_batch")
            + total("service.outcome_drop")
            + total("service.drain"))
            / serve_root;
        let epoch_cov =
            (total("gen.epoch_wait") + total("graph.build") + total("service.begin_epoch"))
                / epoch_root;
        println!("\n== per-layer self time (traced live phase; spans from the harness around each call) ==");
        println!(
            "  {:<26} {:>9} {:>12} {:>8}",
            "span", "calls", "self ms", "share"
        );
        for (root, root_ns, names) in [
            (
                "harness.serve_loop",
                serve_root,
                &[
                    "gen.wait",
                    "service.serve_batch",
                    "harness.record",
                    "service.outcome_drop",
                    "service.drain",
                ][..],
            ),
            (
                "harness.epoch_loop",
                epoch_root,
                &[
                    "gen.epoch_wait",
                    "graph.build",
                    "service.begin_epoch",
                    "harness.epoch_record",
                ][..],
            ),
        ] {
            let children: f64 = names.iter().map(|n| total(n)).sum();
            println!(
                "  {root:<26} {:>9} {:>12.2} {:>7.1}%",
                "",
                (root_ns - children) / 1e6,
                (root_ns - children) / root_ns * 100.0
            );
            for n in names {
                let (c, ns) = t.totals.get(n).copied().unwrap_or_default();
                println!(
                    "    {n:<24} {c:>9} {:>12.2} {:>7.1}%",
                    ns as f64 / 1e6,
                    ns as f64 / root_ns * 100.0
                );
            }
        }
        println!("  replay pass (core layer, after the live phases):");
        for (n, (c, ns)) in &replay_totals {
            println!("    {n:<24} {c:>9} {:>12.2}", *ns as f64 / 1e6);
        }
        for (kind, v) in &price {
            let v = sorted(v.clone());
            println!(
                "    core.price_epoch.ms.{kind:<12} n={:<4} p50 {:>9.3} p90 {:>9.3}",
                v.len(),
                q(&v, 0.5) / 1e6,
                q(&v, 0.9) / 1e6
            );
        }
        println!(
            "  coverage by layer and generator spans: serve loop {:.1}%, epoch loop {:.1}%",
            serve_cov * 100.0,
            epoch_cov * 100.0
        );
        for (what, cov) in [("serve", serve_cov), ("epoch", epoch_cov)] {
            if cov < MIN_COVERAGE {
                self.fail(format!(
                    "{what}-loop span coverage {:.1}% is below 90%",
                    cov * 100.0
                ));
            }
        }
        match write_spans(&t.spans, &r.spans) {
            Ok(()) => println!("  span file: {SPAN_FILE}"),
            Err(e) => self.fail(format!("cannot write {SPAN_FILE}: {e}")),
        }
        let overhead_serve = t.cpu_ns_per_session() / plain.cpu_ns_per_session() - 1.0;
        let overhead_epoch = t.epoch_cpu_ms() / plain.epoch_cpu_ms() - 1.0;
        let count = |k: &str| t.outcomes.get(k).copied().unwrap_or(0) as f64;
        let v = vec![
            (
                "service.serve_batch.ns_per_session.p50",
                q(&per_session, 0.5),
                "ns",
            ),
            ("service.serve_batch.us.p50", q(&serve, 0.5) / 1e3, "us"),
            ("service.serve_batch.us.p99", q(&serve, 0.99) / 1e3, "us"),
            ("service.batch_sessions.p50", q(&batch_n, 0.5), "count"),
            ("service.batch_sessions.p99", q(&batch_n, 0.99), "count"),
            ("service.arrival_wait_us.p50", q(&wait, 0.5) / 1e3, "us"),
            ("service.arrival_wait_us.p99", q(&wait, 0.99) / 1e3, "us"),
            ("service.drain.us.p50", q(&drain, 0.5) / 1e3, "us"),
            ("service.begin_epoch.ms.p50", q(&begin, 0.5) / 1e6, "ms"),
            ("service.begin_epoch.ms.p90", q(&begin, 0.9) / 1e6, "ms"),
            (
                "service.snapshot_bytes_per_ap",
                t.snapshot_bytes as f64,
                "bytes",
            ),
            ("service.restarts", (t.segments - 1) as f64, "count"),
            ("graph.build.ms.p50", q(&build, 0.5) / 1e6, "ms"),
            ("core.price_epoch.ms.p50", q(&all_price, 0.5) / 1e6, "ms"),
            ("core.price_epoch.ms.p90", q(&all_price, 0.9) / 1e6, "ms"),
            ("core.cold.ms.p50", q(&cold_v, 0.5) / 1e6, "ms"),
            (
                "core.repair_slower_than_cold_frac",
                slower as f64 / non_cold.max(1) as f64,
                "ratio",
            ),
            ("core.diff.us.p50", q(&diff, 0.5) / 1e3, "us"),
            ("core.classify.us.p50", q(&classify, 0.5) / 1e3, "us"),
            ("core.outcomes.cold", count("cold"), "count"),
            ("core.outcomes.reused", count("reused"), "count"),
            ("core.outcomes.repaired", count("repaired"), "count"),
            ("core.outcomes.fallback", count("fallback"), "count"),
            ("core.outcomes.warm_resize", count("warm_resize"), "count"),
            ("core.outcomes.cold_resize", count("cold_resize"), "count"),
            ("core.dirty_nodes.p50", q(&dirty, 0.5), "count"),
            ("core.repriced_sources.p50", q(&repriced, 0.5), "count"),
            ("obs.trace_overhead_frac.serve", overhead_serve, "ratio"),
            ("obs.trace_overhead_frac.epoch", overhead_epoch, "ratio"),
            ("gen.lateness_us.p99", q(&gen_late, 0.99) / 1e3, "us"),
            ("gen.epoch_lateness_ms.p90", q(&epoch_late, 0.9) / 1e6, "ms"),
            ("sessions_failed_frac", sessions_failed, "ratio"),
            ("epochs_failed_frac", epochs_failed, "ratio"),
            ("trace.coverage.serve", serve_cov, "ratio"),
            ("trace.coverage.epoch", epoch_cov, "ratio"),
        ];
        println!("\n== per-layer metrics ==");
        for (name, x, unit) in &v {
            println!("  {name:<40} {x:>14.4} {unit}");
        }
        v
    }
}

/// Writes the traced live spans and the replay spans as a Chrome trace.
fn write_spans(live: &[Span], replay: &[(usize, String, i64, u64, u64)]) -> std::io::Result<()> {
    let mut spans: Vec<&Span> = live.iter().collect();
    let mut owned = Vec::new();
    let mut id = live.iter().map(|s| s.id).max().unwrap_or(0) + 1;
    let offset = live.iter().map(|s| s.end).max().unwrap_or(0) + 1_000_000;
    // One root per replayed epoch, spanning its calls.
    let mut epochs: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for (e, _, _, a, b) in replay {
        let r = epochs.entry(*e).or_insert((*a, *b));
        r.0 = r.0.min(*a);
        r.1 = r.1.max(*b);
    }
    let mut roots = BTreeMap::new();
    for (e, (a, b)) in &epochs {
        roots.insert(*e, id);
        owned.push(Span {
            name: "harness.replay_epoch".into(),
            tid: 3,
            start: offset + a,
            end: offset + b,
            id,
            parent: None,
            arg: *e as u64,
        });
        id += 1;
    }
    for (e, name, _, a, b) in replay {
        owned.push(Span {
            name: name.clone(),
            tid: 3,
            start: offset + a,
            end: offset + b,
            id,
            parent: roots.get(e).copied(),
            arg: *e as u64,
        });
        id += 1;
    }
    spans.extend(owned.iter());
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span_id\":{},{}\"id\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.tid,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.id,
            s.parent.map_or(String::new(), |p| format!("\"parent_id\":{p},")),
            s.arg
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    std::fs::create_dir_all("perfbench/out")?;
    std::fs::write(SPAN_FILE, out)
}
