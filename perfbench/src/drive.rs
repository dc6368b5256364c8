//! Closed-loop client threads and the timed window.
//!
//! Each client thread sends its next request only after the previous
//! reply arrives. The window runs from the first send of any client to
//! the last reply of any client, taken from the timestamps the client
//! threads record themselves; thread spawn, join and any helper thread
//! stay outside it. (The old loadgen timer also joined a watchdog that
//! polls in 100 ms sleeps, which rounded every run up to the next
//! 100 ms.)
//!
//! On a virtual machine the host can take a vCPU away for tens of
//! milliseconds at a time, for seconds on end; the guest sees it as
//! steal time in `/proc/stat`. A sampler thread logs steal through the
//! window, the window is cut into one-second slices, and the end-to-end
//! metrics are taken over the slices with the least steal: every slice
//! at or below the median slice's steal, so at least half the window.
//! [`Window::whole`] gives the same figures over the whole window, so
//! the filter's effect on the run-to-run spread stays measurable.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Length of the slices the window is cut into.
const SLICE: Duration = Duration::from_secs(1);
/// How often the sampler reads the host's steal counter.
const STEAL_POLL: Duration = Duration::from_millis(50);
/// `USER_HZ`: the unit of `/proc/stat` times.
const TICKS_PER_S: f64 = 100.0;

/// The round trip recorded for a failed request.
pub const FAILED: u32 = u32::MAX;

/// One request as the client saw it: its round trip, and whether it
/// failed (an error reply, a shed or expired request, or a transport
/// failure).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
    /// Simulation results the request delivered.
    pub points: u32,
}

pub struct Window<S> {
    pub states: Vec<S>,
    /// Every client's round trips in nanoseconds, in send order: at most
    /// `FAILED - 1` (4.3 s), and [`FAILED`] for a failed request.
    pub rtt_ns: Vec<Vec<u32>>,
    /// Every client's slices, counted from `origin`: the index in
    /// `rtt_ns` of the first request whose reply arrived in the slice,
    /// and the simulation results those requests delivered.
    slices: Vec<Vec<(usize, u64)>>,
    /// When the clients were released.
    origin: Instant,
    pub first_send: Instant,
    pub last_reply: Instant,
    /// `(when, cumulative steal ticks)`, from before the first send to
    /// after the last reply.
    steal: Vec<(Instant, u64)>,
}

/// The requests and time that end-to-end figures are taken over.
pub struct Measured {
    /// Round trips in nanoseconds, [`FAILED`] for a failed request.
    pub rtt_ns: Vec<u32>,
    /// Simulation results delivered.
    pub points: u64,
    pub seconds: f64,
}

/// How much of the window [`Window::quiet`] kept.
pub struct Quiet {
    pub slices: usize,
    pub kept: usize,
    /// Share of the whole window's CPU time the host stole.
    pub steal_share: f64,
}

impl<S> Window<S> {
    pub fn seconds(&self) -> f64 {
        self.last_reply
            .saturating_duration_since(self.first_send)
            .as_secs_f64()
    }

    pub fn attempted(&self) -> u64 {
        self.rtt_ns.iter().map(|c| c.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.rtt_ns
            .iter()
            .flatten()
            .filter(|&&ns| ns == FAILED)
            .count() as u64
    }

    /// Every request of the window.
    pub fn whole(&self) -> Measured {
        Measured {
            rtt_ns: self.rtt_ns.concat(),
            points: self.slices.iter().flatten().map(|s| s.1).sum(),
            seconds: self.seconds(),
        }
    }

    /// Steal ticks counted by `t` (the last reading at or before it).
    fn steal_at(&self, t: Instant) -> u64 {
        self.steal
            .iter()
            .take_while(|(at, _)| *at <= t)
            .last()
            .or(self.steal.first())
            .map_or(0, |&(_, ticks)| ticks)
    }

    /// The requests that ended in the window's whole slices with the
    /// least steal.
    pub fn quiet(&self) -> (Measured, Quiet) {
        let span = self.last_reply.saturating_duration_since(self.origin);
        let n = ((span.as_secs_f64() / SLICE.as_secs_f64()) as usize).max(1);
        let at = |k: usize| self.origin + SLICE * u32::try_from(k).expect("slice count fits u32");
        let steal: Vec<u64> = (0..n)
            .map(|k| self.steal_at(at(k + 1)) - self.steal_at(at(k)))
            .collect();
        let keep = quietest(&steal);
        let kept = keep.iter().filter(|&&k| k).count();
        let mut m = Measured {
            rtt_ns: Vec::new(),
            points: 0,
            seconds: kept as f64 * SLICE.as_secs_f64(),
        };
        for (rtt, slices) in self.rtt_ns.iter().zip(&self.slices) {
            for (k, &(first, points)) in slices.iter().enumerate().take(n) {
                if keep[k] {
                    let end = slices.get(k + 1).map_or(rtt.len(), |s| s.0);
                    m.rtt_ns.extend_from_slice(&rtt[first..end]);
                    m.points += points;
                }
            }
        }
        let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        let stolen = self.steal_at(self.last_reply) - self.steal_at(self.first_send);
        let quiet = Quiet {
            slices: n,
            kept,
            steal_share: stolen as f64 / TICKS_PER_S / (self.seconds() * cpus),
        };
        (m, quiet)
    }
}

/// Marks the slices whose steal is at or below the median slice's.
fn quietest(steal: &[u64]) -> Vec<bool> {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let median = sorted[(sorted.len() - 1) / 2];
    steal.iter().map(|&s| s <= median).collect()
}

/// The host's cumulative steal time over all CPUs, in ticks; 0 where
/// `/proc/stat` does not report it.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// An empty vector with room for `n` values whose pages are already
/// resident, so that filling it raises no memory peak.
pub fn resident<T: Copy>(n: usize, fill: T) -> Vec<T> {
    // `fill` must not be all zero bits: a zeroed allocation may map
    // pages that are only made resident when first written.
    let mut v = vec![fill; n];
    v.clear();
    v
}

/// Runs one closed-loop client thread per state until `length` has
/// passed since the clients were released together. `step` sends one
/// request starting at the given instant, waits for its reply and
/// returns the sample. Each client's round trips go into a buffer of
/// `capacity` made resident before the clients start.
pub fn run_window<S, F>(states: Vec<S>, length: Duration, capacity: usize, step: F) -> Window<S>
where
    S: Send,
    F: Fn(&mut S, Instant) -> Sample + Sync,
{
    struct Client<S> {
        state: S,
        rtt_ns: Vec<u32>,
        slices: Vec<(usize, u64)>,
        first_send: Instant,
        last_reply: Instant,
    }
    let barrier = Barrier::new(states.len());
    let deadline: OnceLock<Instant> = OnceLock::new();
    let clients_done = AtomicBool::new(false);
    let (clients, steal): (Vec<Client<S>>, _) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut log = vec![(Instant::now(), steal_ticks())];
            while !clients_done.load(Ordering::Relaxed) {
                std::thread::sleep(STEAL_POLL);
                log.push((Instant::now(), steal_ticks()));
            }
            log
        });
        let handles: Vec<_> = states
            .into_iter()
            .map(|state| {
                let (barrier, deadline, step) = (&barrier, &deadline, &step);
                let rtt_ns = resident(capacity, FAILED);
                scope.spawn(move || {
                    barrier.wait();
                    let now = Instant::now();
                    let deadline = *deadline.get_or_init(|| now + length);
                    let origin = deadline - length;
                    let mut c = Client {
                        state,
                        rtt_ns,
                        slices: Vec::new(),
                        first_send: now,
                        last_reply: now,
                    };
                    loop {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        let s = step(&mut c.state, now);
                        if c.rtt_ns.is_empty() {
                            c.first_send = s.start;
                        }
                        c.last_reply = s.end;
                        let since = s.end.saturating_duration_since(origin).as_secs_f64();
                        let k = (since / SLICE.as_secs_f64()) as usize;
                        while c.slices.len() <= k {
                            c.slices.push((c.rtt_ns.len(), 0));
                        }
                        c.slices[k].1 += u64::from(s.points);
                        c.rtt_ns.push(if s.ok {
                            let ns = s.end.duration_since(s.start).as_nanos();
                            u32::try_from(ns).unwrap_or(FAILED - 1).min(FAILED - 1)
                        } else {
                            FAILED
                        });
                    }
                    c
                })
            })
            .collect();
        let clients = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        clients_done.store(true, Ordering::Relaxed);
        (clients, sampler.join().expect("steal sampler panicked"))
    });
    let sent = clients.iter().filter(|c| !c.rtt_ns.is_empty());
    let first_send = sent
        .clone()
        .map(|c| c.first_send)
        .min()
        .expect("a request was sent");
    let last_reply = sent
        .map(|c| c.last_reply)
        .max()
        .expect("a request was sent");
    let mut w = Window {
        states: Vec::new(),
        rtt_ns: Vec::new(),
        slices: Vec::new(),
        origin: *deadline.get().expect("clients were released") - length,
        first_send,
        last_reply,
        steal,
    };
    for c in clients {
        w.states.push(c.state);
        w.rtt_ns.push(c.rtt_ns);
        w.slices.push(c.slices);
    }
    w
}

/// A raw line-protocol connection, so encode, round trip and decode can
/// be timed apart.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    pub line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Sends one request line in a single write.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)
    }

    /// Reads one response line into [`Conn::line`].
    pub fn recv(&mut self) -> io::Result<()> {
        self.line.clear();
        match self.reader.read_line(&mut self.line)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quietest_keeps_at_least_half_the_slices() {
        assert_eq!(quietest(&[0, 0, 0, 0]), [true; 4]);
        assert_eq!(
            quietest(&[30, 0, 2, 41, 0, 9]),
            [false, true, true, false, true, false]
        );
        assert_eq!(quietest(&[5]), [true]);
    }

    #[test]
    fn window_spans_first_send_to_last_reply_only() {
        // A helper that polls in 100 ms sleeps runs beside the clients
        // and is joined after the window; the window must not round up
        // to its poll period.
        let stop = AtomicBool::new(false);
        let (w, helper_done) = std::thread::scope(|s| {
            let helper = s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(100));
                }
                Instant::now()
            });
            let w = run_window(vec![0u32; 2], Duration::from_millis(60), 4, |n, start| {
                std::thread::sleep(Duration::from_millis(3));
                *n += 1;
                Sample {
                    start,
                    end: Instant::now(),
                    ok: *n != 2,
                    points: 1,
                }
            });
            stop.store(true, Ordering::Relaxed);
            (w, helper.join().unwrap())
        });
        let secs = w.seconds();
        assert!((0.060..0.080).contains(&secs), "window {secs} s");
        assert!(w.last_reply < helper_done);
        let sent: u32 = w.states.iter().sum();
        assert_eq!(w.attempted(), u64::from(sent));
        let whole = w.whole();
        assert_eq!(whole.points, u64::from(sent));
        assert_eq!(whole.rtt_ns.len() as u64, w.attempted());
        // Each client's second request failed; the others took 3 ms.
        assert_eq!(w.failed(), 2);
        for ns in whole.rtt_ns.iter().filter(|&&ns| ns != FAILED) {
            assert!(*ns >= 3_000_000, "round trip {ns} ns");
        }
        // The window fits in one slice, which is kept whole.
        let (quiet, q) = w.quiet();
        assert_eq!((q.slices, q.kept), (1, 1));
        assert_eq!(quiet.rtt_ns, whole.rtt_ns);
        assert_eq!(quiet.points, whole.points);
    }
}
