//! In-process replay of a workload's exact requests through each
//! layer's public functions.
//!
//! The replay does two jobs. It verifies: every distinct point the
//! server answered is simulated again with [`oov_bench::machine_run_in`]
//! and must match the served `SimStats` and `ideal_cycles` bit for bit.
//! And in a traced run it times the layers the request path crosses,
//! one span per call: request encode and decode, the fingerprint, the
//! result-cache lookup or the simulation, response encode and decode.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use oov_bench::{machine_run_in, RunOutcome, Suite};
use oov_core::SimArena;
use oov_isa::MachineConfig;
use oov_kernels::{Program, Scale};
use oov_serve::{Request, Response, SimRequest, SimResult};

use crate::trace::{Recorder, Span};

/// Replay threads: one per shard, each holding one arena as a shard
/// does.
const THREADS: usize = 2;
/// Request lines replayed through the protocol layers in a traced run
/// (the first lines the clients sent; later lines only verify).
pub const PROTO_LINES: usize = 20_000;

/// Set-up layers, timed in process.
pub struct Compile {
    pub suite: Suite,
    pub suite_compile_ms: f64,
    /// Sequential sum of `Program::compile` (traced runs only).
    pub vcc_compile_ms: f64,
    /// Sum of each program's first `base_image()` call (traced runs only).
    pub exec_seed_ms: f64,
}

pub fn compile(scale: Scale, traced: bool) -> Compile {
    let t = Instant::now();
    let suite = Suite::compile(scale);
    let suite_compile_ms = ms(t);
    let (mut vcc_compile_ms, mut exec_seed_ms) = (0.0, 0.0);
    if traced {
        for p in Program::ALL {
            let t = Instant::now();
            let prog = black_box(p.compile(scale));
            vcc_compile_ms += ms(t);
            let t = Instant::now();
            black_box(prog.base_image());
            exec_seed_ms += ms(t);
        }
    }
    Compile {
        suite,
        suite_compile_ms,
        vcc_compile_ms,
        exec_seed_ms,
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What the replay found.
#[derive(Default)]
pub struct Replay {
    /// Host time of the first in-process simulation of each distinct
    /// point, in nanoseconds.
    pub sim_ns: HashMap<u32, u64>,
    pub spans: Vec<Span>,
    /// Mean request and response bytes per replayed line.
    pub req_bytes: f64,
    pub resp_bytes: f64,
}

/// Whether two results carry the same simulation outcome (the `cached`
/// and `shard` tags describe how it was served, not what it is).
pub fn same_outcome(a: &SimResult, b: &SimResult) -> bool {
    a.stats == b.stats && a.ideal_cycles == b.ideal_cycles && a.faults_taken == b.faults_taken
}

/// Replays `lines` (each a request's pool indices, in send order) and
/// then every other point of `served`, verifying each distinct point
/// once per replay thread.
///
/// # Errors
///
/// Names the first point whose replay differs from what was served.
pub fn replay(
    suite: &Suite,
    points: &[SimRequest],
    served: &HashMap<u32, SimResult>,
    lines: &[&[u32]],
    sweep: bool,
    traced: bool,
    epoch: Instant,
) -> Result<Replay, String> {
    // Points served outside the window (warm-up, pre-phase) are verified
    // too.
    let in_lines: HashSet<u32> = lines.iter().flat_map(|l| l.iter().copied()).collect();
    let mut rest: Vec<u32> = served
        .keys()
        .copied()
        .filter(|i| !in_lines.contains(i))
        .collect();
    rest.sort_unstable();
    let parts: Vec<Result<Part, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let rest = &rest;
                s.spawn(move || {
                    let mut part = Part::new(traced, epoch, t as u64 + 1);
                    for (n, line) in lines.iter().enumerate().skip(t).step_by(THREADS) {
                        let proto = traced && n < PROTO_LINES;
                        part.line(suite, points, served, line, sweep, proto)?;
                    }
                    for &i in rest.iter().skip(t).step_by(THREADS) {
                        part.simulate(suite, points, served, i, 0)?;
                    }
                    Ok(part)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut out = Replay::default();
    let (mut req_bytes, mut resp_bytes, mut proto_lines) = (0usize, 0usize, 0usize);
    for p in parts {
        for (i, ns) in p.sim_ns {
            out.sim_ns.entry(i).or_insert(ns);
        }
        out.spans.extend(p.rec.spans);
        req_bytes += p.req_bytes;
        resp_bytes += p.resp_bytes;
        proto_lines += p.proto_lines;
    }
    if proto_lines > 0 {
        out.req_bytes = req_bytes as f64 / proto_lines as f64;
        out.resp_bytes = resp_bytes as f64 / proto_lines as f64;
    }
    Ok(out)
}

/// One replay thread's state: its arena, its mirror of a shard's result
/// cache, and what it measured.
struct Part {
    arena: SimArena,
    cache: HashMap<u64, SimResult>,
    sim_ns: HashMap<u32, u64>,
    rec: Recorder,
    req_bytes: usize,
    resp_bytes: usize,
    proto_lines: usize,
}

impl Part {
    fn new(traced: bool, epoch: Instant, thread: u64) -> Self {
        Part {
            arena: SimArena::new(),
            cache: HashMap::new(),
            sim_ns: HashMap::new(),
            rec: Recorder::new(traced, epoch, thread),
            req_bytes: 0,
            resp_bytes: 0,
            proto_lines: 0,
        }
    }

    /// Replays one request line. With `proto`, the line also crosses the
    /// protocol layers, each in its own span.
    fn line(
        &mut self,
        suite: &Suite,
        points: &[SimRequest],
        served: &HashMap<u32, SimResult>,
        line: &[u32],
        sweep: bool,
        proto: bool,
    ) -> Result<(), String> {
        if !proto {
            for &i in line {
                if !self.sim_ns.contains_key(&i) {
                    self.simulate(suite, points, served, i, 0)?;
                }
            }
            return Ok(());
        }
        let root = self.rec.reserve();
        let t0 = Instant::now();
        let reqs: Vec<SimRequest> = line.iter().map(|&i| points[i as usize]).collect();
        let request = if sweep {
            Request::Sweep {
                points: reqs,
                deadline_ms: None,
            }
        } else {
            Request::Sim {
                req: reqs[0],
                deadline_ms: None,
            }
        };
        let text = request.encode();
        let t1 = Instant::now();
        self.rec.record("proto.req_encode", root, t0, t1);
        let decoded = Request::decode(&text).map_err(|e| format!("replay decode: {e}"))?;
        let t2 = Instant::now();
        self.rec.record("proto.req_decode", root, t1, t2);
        if decoded != request {
            return Err("request did not survive an encode/decode round trip".into());
        }
        self.req_bytes += text.len() + 1;
        let mut rows = Vec::with_capacity(line.len());
        for &i in line {
            let req = &points[i as usize];
            let t = Instant::now();
            let fp = black_box(req.fingerprint());
            let tf = Instant::now();
            self.rec.record("proto.fingerprint", root, t, tf);
            let hit = self.cache.get(&fp).cloned();
            let result = match hit {
                Some(r) => {
                    self.rec.record("cache.lookup", root, tf, Instant::now());
                    r
                }
                None => {
                    let r = self.simulate(suite, points, served, i, root)?;
                    self.cache.insert(fp, r.clone());
                    r
                }
            };
            rows.push(result);
        }
        let responses: Vec<Response> = if sweep {
            let mut v: Vec<Response> = rows
                .into_iter()
                .enumerate()
                .map(|(index, result)| Response::SweepRow { index, result })
                .collect();
            v.push(Response::SweepDone { count: line.len() });
            v
        } else {
            vec![Response::Result(rows.pop().expect("one row"))]
        };
        for resp in responses {
            let t = Instant::now();
            let text = resp.encode();
            let te = Instant::now();
            self.rec.record("proto.resp_encode", root, t, te);
            let back = Response::decode(&text).map_err(|e| format!("replay decode: {e}"))?;
            self.rec
                .record("proto.resp_decode", root, te, Instant::now());
            if back != resp {
                return Err("response did not survive an encode/decode round trip".into());
            }
            self.resp_bytes += text.len() + 1;
        }
        self.proto_lines += 1;
        self.rec
            .record_as(root, "replay.request", 0, t0, Instant::now());
        Ok(())
    }

    /// Simulates point `i` in process and checks it against what the
    /// server answered for it.
    fn simulate(
        &mut self,
        suite: &Suite,
        points: &[SimRequest],
        served: &HashMap<u32, SimResult>,
        i: u32,
        parent: u64,
    ) -> Result<SimResult, String> {
        let req = &points[i as usize];
        let t = Instant::now();
        let RunOutcome {
            stats,
            ideal_cycles,
            faults_taken,
        } = machine_run_in(
            suite.get(req.program),
            &req.machine,
            req.stepper,
            req.fault_at,
            &mut self.arena,
        );
        let end = Instant::now();
        let name = match req.machine {
            MachineConfig::Ooo(_) => "core.simulate",
            MachineConfig::Ref(_) => "refsim.simulate",
        };
        self.rec.record(name, parent, t, end);
        self.sim_ns.entry(i).or_insert_with(|| {
            u64::try_from(end.saturating_duration_since(t).as_nanos()).unwrap_or(u64::MAX)
        });
        let local = SimResult {
            stats,
            ideal_cycles,
            faults_taken,
            cached: false,
            shard: 0,
        };
        match served.get(&i) {
            Some(s) if same_outcome(s, &local) => Ok(local),
            Some(_) => Err(format!(
                "point {i} ({} on {:?}): served result differs from the in-process replay",
                req.program, req.machine
            )),
            // A request that failed has nothing to verify; it is
            // counted as failed instead.
            None => Ok(local),
        }
    }
}
