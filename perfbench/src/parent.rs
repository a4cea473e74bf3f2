//! Starting child processes and reading back what they recorded.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::proc;

/// A child that outgrows this, or outlives `CHILD_DEADLINE`, is killed.
/// The children's own watchdogs should always act first.
const CHILD_RSS_CAP_KB: u64 = 2 * 1024 * 1024;
const CHILD_DEADLINE: Duration = Duration::from_secs(150);

/// Runs this executable with `args` and returns its stdout, or an error
/// if it failed, was killed, or did not finish its record.
pub fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut c = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut pipe = c.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        pipe.read_to_string(&mut s).map(|_| s)
    });
    let t = Instant::now();
    let status = loop {
        if let Some(st) = c.try_wait().map_err(|e| format!("child wait: {e}"))? {
            break st;
        }
        if t.elapsed() > CHILD_DEADLINE || proc::rss_kb_of(c.id()).unwrap_or(0) > CHILD_RSS_CAP_KB {
            // Best effort: the child may exit between the check and the kill.
            let _ = c.kill();
            let _ = c.wait();
            return Err(format!(
                "child {args:?} killed: over its time or memory cap"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = reader
        .join()
        .expect("reader thread panicked")
        .map_err(|e| format!("child output: {e}"))?;
    if !status.success() || !out.ends_with("END\n") {
        return Err(format!("child {args:?} failed ({status})"));
    }
    Ok(out)
}

fn hexes(field: &str) -> Vec<u64> {
    field
        .split(',')
        .map(|x| u64::from_str_radix(x, 16).expect("hex digest from child"))
        .collect()
}

fn nums(it: &mut std::str::SplitWhitespace) -> Vec<u64> {
    it.map(|x| x.parse().expect("numeric field from child"))
        .collect()
}

/// One `serve_batch` call and the harness work around it, as read back
/// from a live child. Timestamps are ns from the segment origin; untraced
/// runs record only `served`.
#[derive(Clone, Copy, Default)]
pub struct BatchRec {
    pub n: u32,
    pub shed: u32,
    pub start: u64,
    pub served: u64,
    pub recorded: u64,
    pub dropped: u64,
    pub drained: u64,
}

pub struct EpochRow {
    pub e: usize,
    pub due: u64,
    pub start: u64,
    pub built: u64,
    pub published: u64,
    pub recorded: u64,
    pub cpu_ns: u64,
    pub unreachable: u64,
    pub codes: Vec<String>,
    pub tables: Vec<u64>,
}

/// One live child's record.
#[derive(Default)]
pub struct Segment {
    pub e0: usize,
    pub s0: usize,
    pub base: u64,
    pub setup_ns: u64,
    /// Digests of the tables the service was set up with.
    pub initial_tables: Vec<u64>,
    pub batches: Vec<BatchRec>,
    /// `(session, ap_index, generation, digest)`.
    pub samples: Vec<(u64, usize, u64, u64)>,
    pub offered: u64,
    pub settled: u64,
    pub shed: u64,
    pub unreachable: u64,
    pub drained: u64,
    pub busy_ns: u64,
    pub start: u64,
    pub end: u64,
    pub epochs: Vec<EpochRow>,
    pub epoch_start: u64,
    pub epoch_end: u64,
    pub peak_kb: u64,
    pub snapshot_bytes: u64,
    pub failed: Option<usize>,
}

impl Segment {
    pub fn parse(text: &str) -> Segment {
        let mut s = Segment::default();
        for line in text.lines() {
            let mut it = line.split_whitespace();
            match it.next() {
                Some("G") => {
                    let f: Vec<&str> = it.collect();
                    let v: Vec<u64> = f[..4]
                        .iter()
                        .map(|x| x.parse().expect("numeric segment field"))
                        .collect();
                    (s.e0, s.s0, s.base, s.setup_ns) = (v[0] as usize, v[1] as usize, v[2], v[3]);
                    s.initial_tables = hexes(f[4]);
                }
                Some("B") => {
                    let v = nums(&mut it);
                    s.batches.push(BatchRec {
                        n: v[0] as u32,
                        shed: v[1] as u32,
                        start: v[2],
                        served: v[3],
                        recorded: v[4],
                        dropped: v[5],
                        drained: v[6],
                    });
                }
                Some("S") => {
                    let v = nums(&mut it);
                    s.samples.push((v[0], v[1] as usize, v[2], v[3]));
                }
                Some("X") => {
                    let v = nums(&mut it);
                    s.offered = v[0];
                    s.settled = v[1];
                    s.shed = v[2];
                    s.unreachable = v[3];
                    s.drained = v[4];
                    s.busy_ns = v[5];
                    s.start = v[6];
                    s.end = v[7];
                }
                Some("E") => {
                    let f: Vec<&str> = it.collect();
                    let v: Vec<u64> = f[..8]
                        .iter()
                        .map(|x| x.parse().expect("numeric epoch field"))
                        .collect();
                    s.epochs.push(EpochRow {
                        e: v[0] as usize,
                        due: v[1],
                        start: v[2],
                        built: v[3],
                        published: v[4],
                        recorded: v[5],
                        cpu_ns: v[6],
                        unreachable: v[7],
                        codes: f[8].split(',').map(str::to_string).collect(),
                        tables: hexes(f[9]),
                    });
                }
                Some("L") => {
                    let v = nums(&mut it);
                    (s.epoch_start, s.epoch_end, s.peak_kb, s.snapshot_bytes) =
                        (v[0], v[1], v[2], v[3]);
                }
                Some("T") => s.failed = Some(nums(&mut it)[0] as usize),
                _ => {}
            }
        }
        s
    }

    /// Sessions this segment served (the prefix of its schedule).
    pub fn served_sessions(&self) -> usize {
        self.batches.iter().map(|b| b.n as usize).sum()
    }
}

/// The replay child's record.
#[derive(Default)]
pub struct Replay {
    /// `(epoch, name, ap or -1, start, end)`.
    pub spans: Vec<(usize, String, i64, u64, u64)>,
    /// `(epoch, ap, outcome code)`.
    pub outcomes: Vec<(usize, usize, String)>,
    pub tripped: Option<usize>,
}

impl Replay {
    pub fn parse(text: &str) -> Replay {
        let mut r = Replay::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.first() {
                Some(&"P") => r.spans.push((
                    f[1].parse().expect("epoch"),
                    f[2].to_string(),
                    f[3].parse().expect("ap"),
                    f[4].parse().expect("start"),
                    f[5].parse().expect("end"),
                )),
                Some(&"O") => r.outcomes.push((
                    f[1].parse().expect("epoch"),
                    f[2].parse().expect("ap"),
                    f[3].to_string(),
                )),
                Some(&"T") => r.tripped = Some(f[1].parse().expect("epoch")),
                _ => {}
            }
        }
        r
    }
}
