//! End-to-end and per-layer benchmark of the `oov-serve` simulation
//! server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process starts an in-process server with two shards and drives
//! it with two closed-loop client threads (each waits for its reply
//! before sending again; the reference machine has two cores). Every
//! answer is checked: each distinct served point is simulated again in
//! process and must match bit for bit, and the server's counters must
//! match what the request stream implies. On any mismatch the run exits
//! non-zero and prints no number.
//!
//! Workloads (`--workload`, or `all`):
//!
//! * `serve_hot` — paper scale, a 60-point warm set, every request a
//!   result-cache hit: the request path alone.
//! * `serve_cold` — paper scale, every request a distinct machine
//!   config, every request a miss: the simulators carry the cost.
//! * `serve_churn` — smoke scale, journal on, 8-point sweeps drawn with
//!   skew from a pool four times the capped cache: inserts, evictions
//!   and journal appends beside lookups, through the sweep path.
//!
//! With `--trace 0` the last line of standard output holds the
//! end-to-end metrics; with `--trace 1` it holds the per-layer metrics,
//! taken from client spans, the server's `stats`/`metrics` snapshots
//! around the window, and an in-process replay of the window's requests.

mod drive;
mod gen;
mod replay;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use oov_isa::MachineConfig;
use oov_kernels::Scale;
use oov_proto::Json;
use oov_serve::{
    Client, PersistOptions, Request, Response, ServeConfig, Server, ServerHandle, SimRequest,
    SimResult, StatsSnapshot,
};

use drive::{Conn, Sample};
use gen::{DistinctGen, Rng};
use replay::same_outcome;
use trace::Recorder;

const SHARDS: usize = 2;
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Untimed traffic before the window.
const WARM_PHASE: Duration = Duration::from_secs(1);
/// `serve_churn`: per-shard result-cache cap, pool size (four times
/// the two shards' total), points per sweep, and pre-phase sweeps.
const CHURN_CACHE_ENTRIES: usize = 128;
const CHURN_POOL: usize = 4 * SHARDS * CHURN_CACHE_ENTRIES;
const SWEEP_POINTS: usize = 8;
const PRE_SWEEPS: usize = 128;

const USAGE: &str = "usage: perfbench --workload <serve_hot|serve_cold|serve_churn|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Hot,
    Cold,
    Churn,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Hot, Workload::Cold, Workload::Churn];

    fn name(self) -> &'static str {
        match self {
            Workload::Hot => "serve_hot",
            Workload::Cold => "serve_cold",
            Workload::Churn => "serve_churn",
        }
    }

    fn scale(self) -> Scale {
        match self {
            Workload::Hot | Workload::Cold => Scale::Paper,
            Workload::Churn => Scale::Smoke,
        }
    }

    fn sweep(self) -> bool {
        self == Workload::Churn
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?]
                });
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for &w in &args.workloads {
        match run(w, &args) {
            Ok(report) => report.print(args.trace),
            Err(e) => {
                eprintln!("perfbench: {}: FAILED: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// A scratch directory under the working directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(w: Workload) -> Result<Self, String> {
        let dir = Path::new(".perfbench_tmp").join(format!("{}-{}", std::process::id(), w.name()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Where a client's points come from.
enum Pool<'a> {
    /// `serve_hot`: uniform over the warm set.
    Uniform(&'a [SimRequest]),
    /// `serve_churn`: skewed sweeps over the pool, skipping the warm-up
    /// point at index 0.
    Skewed(&'a [SimRequest]),
    /// `serve_cold`: a fresh distinct point per request.
    Distinct(&'a Mutex<DistinctGen>),
}

impl Pool<'_> {
    fn pick(&self, rng: &mut Rng) -> Vec<(u32, SimRequest)> {
        match self {
            Pool::Uniform(p) => {
                let i = rng.below(p.len());
                vec![(i as u32, p[i])]
            }
            Pool::Skewed(p) => churn_draw(rng)
                .into_iter()
                .map(|i| (i, p[i as usize]))
                .collect(),
            Pool::Distinct(g) => {
                let mut g = g.lock().expect("generator lock poisoned");
                let i = g.next_index();
                vec![(i, g.points[i as usize])]
            }
        }
    }
}

fn churn_draw(rng: &mut Rng) -> Vec<u32> {
    (0..SWEEP_POINTS)
        .map(|_| 1 + gen::skewed(rng, CHURN_POOL))
        .collect()
}

/// One closed-loop client thread's connection and log.
struct ClientState {
    addr: SocketAddr,
    conn: Option<Conn>,
    rng: Rng,
    rec: Recorder,
    sweep: bool,
    /// Pool indices of every point sent, in send order.
    sent: Vec<u32>,
    /// The first answer seen for each point; later answers must match.
    seen: HashMap<u32, SimResult>,
    /// Pool index of every answer the server simulated (`cached: false`).
    missed: Vec<u32>,
    rows_ok: u64,
    mismatch: Option<String>,
    failures: Vec<String>,
}

impl ClientState {
    fn step(&mut self, pool: &Pool, t0: Instant) -> Sample {
        let picks = pool.pick(&mut self.rng);
        let root = self.rec.reserve();
        let request = if self.sweep {
            Request::Sweep {
                points: picks.iter().map(|p| p.1).collect(),
                deadline_ms: None,
            }
        } else {
            Request::Sim {
                req: picks[0].1,
                deadline_ms: None,
            }
        };
        let line = request.encode();
        let rows_before = self.rows_ok;
        let t_enc = Instant::now();
        self.rec.record("client.encode", root, t0, t_enc);
        let ok = match self.exchange(&line, &picks, root, t_enc) {
            Ok(ok) => ok,
            Err(e) => {
                // Transport trouble: count the failure, redial next time.
                self.conn = None;
                self.note_failure(e);
                false
            }
        };
        let end = Instant::now();
        self.rec.record_as(root, "client.request", 0, t0, end);
        self.sent.extend(picks.iter().map(|p| p.0));
        Sample {
            start: t0,
            end,
            ok,
            points: u32::try_from(self.rows_ok - rows_before).expect("a sweep is capped"),
        }
    }

    /// Sends one request line and reads its answer. `Ok(false)` is a
    /// failed request on a healthy connection.
    fn exchange(
        &mut self,
        line: &str,
        picks: &[(u32, SimRequest)],
        root: u64,
        t_send: Instant,
    ) -> Result<bool, String> {
        let mut conn = match self.conn.take() {
            Some(c) => c,
            None => Conn::connect(self.addr).map_err(|e| format!("connect: {e}"))?,
        };
        conn.send(line).map_err(|e| format!("send: {e}"))?;
        let rtt = self.rec.reserve();
        let mut rows = 0usize;
        let mut ok = true;
        loop {
            conn.recv().map_err(|e| format!("recv: {e}"))?;
            let t_recv = Instant::now();
            let resp = Response::decode(conn.line.trim_end());
            let t_dec = Instant::now();
            let done = match resp {
                Ok(Response::Result(r)) if !self.sweep => {
                    self.check(picks[0].0, r);
                    true
                }
                Ok(Response::SweepRow { index, result }) if self.sweep && index == rows => {
                    rows += 1;
                    self.check(picks[index].0, result);
                    false
                }
                Ok(Response::SweepRowError { index, message }) if self.sweep && index == rows => {
                    rows += 1;
                    ok = false;
                    self.note_failure(message);
                    false
                }
                Ok(Response::SweepDone { count }) if self.sweep && count == rows => true,
                other => {
                    // An error reply, a shed or expired request, or a
                    // reply out of protocol order: the request failed,
                    // and the connection may be out of step.
                    self.rec.record_as(rtt, "client.rtt", root, t_send, t_recv);
                    return Err(format!("unexpected reply {other:?}"));
                }
            };
            if done {
                self.rec.record_as(rtt, "client.rtt", root, t_send, t_recv);
                self.rec.record("client.decode", root, t_recv, t_dec);
                break;
            }
            self.rec.record("client.decode", rtt, t_recv, t_dec);
        }
        self.conn = Some(conn);
        Ok(ok)
    }

    fn check(&mut self, i: u32, r: SimResult) {
        self.rows_ok += 1;
        if !r.cached {
            self.missed.push(i);
        }
        match self.seen.get(&i) {
            Some(first) if !same_outcome(first, &r) => {
                self.mismatch
                    .get_or_insert_with(|| format!("point {i} answered two different results"));
            }
            Some(_) => {}
            None => {
                self.seen.insert(i, r);
            }
        }
    }

    fn note_failure(&mut self, message: String) {
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }
}

/// Adds a served answer to the verification set, checking it against
/// any earlier answer for the same point.
fn merge(served: &mut HashMap<u32, SimResult>, i: u32, r: SimResult) -> Result<(), String> {
    match served.get(&i) {
        Some(first) if !same_outcome(first, &r) => {
            Err(format!("point {i} answered two different results"))
        }
        Some(_) => Ok(()),
        None => {
            served.insert(i, r);
            Ok(())
        }
    }
}

fn start(cfg: &ServeConfig) -> Result<ServerHandle, String> {
    Server::start_cfg("127.0.0.1:0", SHARDS, cfg.clone()).map_err(|e| format!("server start: {e}"))
}

/// Misses and evictions a per-shard LRU of `cap` entries must count for
/// `keys` arriving one at a time, routed by fingerprint as the server
/// routes them.
fn lru_model(keys: &[u64], cap: usize) -> (u64, u64) {
    let mut shards: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    let (mut misses, mut evictions) = (0, 0);
    for &k in keys {
        let lru = &mut shards[(k % SHARDS as u64) as usize];
        if let Some(pos) = lru.iter().position(|&x| x == k) {
            lru.remove(pos);
        } else {
            misses += 1;
            if lru.len() >= cap {
                lru.pop();
                evictions += 1;
            }
        }
        lru.insert(0, k);
    }
    (misses, evictions)
}

/// The server's counters once its journal writer has caught up: every
/// miss inserts one result, and every insert appends one record.
fn settled_stats(client: &mut Client, journal: bool) -> Result<StatsSnapshot, String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let s = client.stats()?;
        if !journal || s.journal_records >= s.result_misses || Instant::now() > deadline {
            return Ok(s);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// `serve_churn`'s untimed pre-phase: one client sends fixed sweeps to a
/// fresh journaled server, whose counts must equal the LRU model's.
/// Returns the records it journaled.
fn pre_phase(
    cfg: &ServeConfig,
    pool: &[SimRequest],
    seed: u64,
    served: &mut HashMap<u32, SimResult>,
) -> Result<u64, String> {
    let handle = start(cfg)?;
    let mut client = Client::connect(handle.addr())?;
    let mut rng = Rng::new(seed, 3);
    let mut keys = Vec::new();
    for _ in 0..PRE_SWEEPS {
        let idx = churn_draw(&mut rng);
        let points: Vec<SimRequest> = idx.iter().map(|&i| pool[i as usize]).collect();
        let mut rows = Vec::new();
        let out = client.sweep(&points, None, |row, r| rows.push((idx[row], r)))?;
        if let Some((row, e)) = out.errors.first() {
            return Err(format!("pre-phase row {row} failed: {e}"));
        }
        for (i, r) in rows {
            merge(served, i, r)?;
        }
        keys.extend(points.iter().map(SimRequest::fingerprint));
    }
    let (misses, evictions) = lru_model(&keys, CHURN_CACHE_ENTRIES);
    let s = settled_stats(&mut client, true)?;
    let got = (s.result_misses, s.result_evictions, s.journal_records);
    if got != (misses, evictions, misses) {
        return Err(format!(
            "pre-phase (misses, evictions, journal records) = {got:?}, LRU model says {:?}",
            (misses, evictions, misses)
        ));
    }
    drop(client);
    handle.stop();
    Ok(misses)
}

struct Setup {
    setup_s: f64,
    start_ms: f64,
    first_result_ms: f64,
    recovered: u64,
}

/// Starts a server and warms it: the first miss forces the lazy suite
/// compile, and on `serve_hot` the rest of the warm set follows.
fn setup(
    w: Workload,
    cfg: &ServeConfig,
    pool: &[SimRequest],
    served: &mut HashMap<u32, SimResult>,
) -> Result<(ServerHandle, Setup), String> {
    let t0 = Instant::now();
    let handle = start(cfg)?;
    let start_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut client = Client::connect(handle.addr())?;
    let t1 = Instant::now();
    let first = client.sim(&pool[0])?;
    let first_result_ms = t1.elapsed().as_secs_f64() * 1e3;
    if first.cached {
        return Err("the warm-up point was already cached".into());
    }
    merge(served, 0, first)?;
    if w == Workload::Hot {
        let mut rows = Vec::new();
        let out = client.sweep(&pool[1..], None, |row, r| rows.push((row as u32 + 1, r)))?;
        if !out.errors.is_empty() || rows.len() + 1 != pool.len() {
            return Err(format!("warm-up sweep failed: {:?}", out.errors.first()));
        }
        for (i, r) in rows {
            merge(served, i, r)?;
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let s = client.stats()?;
    let compiles = s.suite_compiles_smoke + s.suite_compiles_paper;
    if compiles != 1 {
        return Err(format!("set-up compiled the suite {compiles} times"));
    }
    Ok((
        handle,
        Setup {
            setup_s,
            start_ms,
            first_result_ms,
            recovered: s.journal_recovered,
        },
    ))
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A histogram's `(count, sum)` in a `metrics` snapshot.
fn hist(m: &Json, name: &str) -> (u64, u64) {
    let h = m.get("histograms").and_then(|h| h.get(name));
    let field = |f: &str| h.and_then(|h| h.get(f)).and_then(Json::as_u64).unwrap_or(0);
    (field("count"), field("sum"))
}

fn counter(m: &Json, name: &str) -> u64 {
    m.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Server-side view of the window: `after − before`.
struct WireDelta {
    /// Wire requests of the workload's kind and their summed latency.
    requests: u64,
    request_ns: u64,
    /// Shard jobs (one per point) and their summed service time.
    jobs: u64,
    service_ns: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    per_shard: Vec<u64>,
    journal_records: u64,
    journal_bytes: u64,
    journal_rotations: u64,
}

fn wire_delta(
    sweep: bool,
    (s0, m0): &(StatsSnapshot, Json),
    (s1, m1): &(StatsSnapshot, Json),
) -> WireDelta {
    let kind = if sweep { "sweep" } else { "sim" };
    let name = format!("request.{kind}.latency_ns");
    let (c0, n0) = hist(m0, &name);
    let (c1, n1) = hist(m1, &name);
    let (mut jobs, mut service_ns) = (0, 0);
    for shard in 0..SHARDS {
        let name = format!("shard.{shard}.service_ns");
        let (a, b) = (hist(m0, &name), hist(m1, &name));
        jobs += b.0 - a.0;
        service_ns += b.1 - a.1;
    }
    WireDelta {
        requests: c1 - c0,
        request_ns: n1 - n0,
        jobs,
        service_ns,
        hits: s1.result_hits - s0.result_hits,
        misses: s1.result_misses - s0.result_misses,
        evictions: s1.result_evictions - s0.result_evictions,
        per_shard: s1
            .per_shard_requests
            .iter()
            .zip(&s0.per_shard_requests)
            .map(|(a, b)| a - b)
            .collect(),
        journal_records: s1.journal_records - s0.journal_records,
        journal_bytes: counter(m1, "journal.appended_bytes")
            - counter(m0, "journal.appended_bytes"),
        journal_rotations: s1.journal_rotations - s0.journal_rotations,
    }
}

fn snapshot(client: &mut Client, journal: bool) -> Result<(StatsSnapshot, Json), String> {
    Ok((settled_stats(client, journal)?, client.metrics()?))
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// Requests whose latency the percentiles are taken over.
    samples: usize,
    quiet: drive::Quiet,
    end_to_end: Metrics,
    /// `points_per_s`, `latency_p50_us` and `latency_p99_us` over the
    /// whole window, beside the quiet slices' figures in `end_to_end`.
    whole_window: Metrics,
    per_layer: Metrics,
    /// Printed by traced runs: the reconciliation table and span self
    /// times.
    notes: Vec<String>,
}

fn run(w: Workload, args: &Args) -> Result<Report, String> {
    let tmp = TempDir::new(w)?;
    let scale = w.scale();
    let epoch = Instant::now();
    let mut served: HashMap<u32, SimResult> = HashMap::new();
    let cold_gen = Mutex::new(DistinctGen::new(args.seed, 1, scale));
    let mut pool = match w {
        Workload::Hot => gen::hot_set(scale),
        Workload::Cold => vec![gen::warmup_point(scale)],
        Workload::Churn => gen::distinct_pool(args.seed, 2, scale, CHURN_POOL),
    };

    let mut cfg = ServeConfig::default();
    let mut pre_records = 0;
    if w == Workload::Churn {
        cfg.persist = PersistOptions {
            max_entries: Some(CHURN_CACHE_ENTRIES),
            journal: Some(tmp.0.join("pre.journal")),
            ..PersistOptions::default()
        };
        pre_records = pre_phase(&cfg, &pool, args.seed, &mut served)?;
    }

    // Each set-up on `serve_churn` recovers its own copy of the
    // pre-phase journal.
    let set_up = |rep: usize, served: &mut HashMap<u32, SimResult>| {
        let mut rep_cfg = cfg.clone();
        if let Some(pre) = &cfg.persist.journal {
            let journal = tmp.0.join(format!("rep{rep}.journal"));
            std::fs::copy(pre, &journal).map_err(|e| format!("copy journal: {e}"))?;
            rep_cfg.persist.journal = Some(journal);
        }
        let (handle, s) = setup(w, &rep_cfg, &pool, served)?;
        if s.recovered != pre_records {
            return Err(format!(
                "set-up recovered {} journal records, the pre-phase wrote {pre_records}",
                s.recovered
            ));
        }
        Ok((handle, s))
    };
    // The first set-up's server serves the window; the other set-ups run
    // after it, so the memory peak read after the window is this
    // server's under load.
    let (handle, first_setup) = set_up(0, &mut served)?;
    let mut setups = vec![first_setup];

    let states: Vec<ClientState> = (0..CLIENTS)
        .map(|c| ClientState {
            addr: handle.addr(),
            conn: Conn::connect(handle.addr()).ok(),
            rng: Rng::new(args.seed, 100 + c as u64),
            rec: Recorder::new(args.trace, epoch, 10 + c as u64),
            sweep: w.sweep(),
            sent: Vec::new(),
            seen: if w == Workload::Hot {
                served.clone()
            } else {
                HashMap::new()
            },
            missed: Vec::new(),
            rows_ok: 0,
            mismatch: None,
            failures: Vec::new(),
        })
        .collect();
    let source = match w {
        Workload::Hot => Pool::Uniform(&pool),
        Workload::Cold => Pool::Distinct(&cold_gen),
        Workload::Churn => Pool::Skewed(&pool),
    };
    // An untimed phase of the same traffic lets allocator, socket and
    // cache growth settle before the window. Its answers are verified
    // with the rest.
    let warm = drive::run_window(states, WARM_PHASE, 0, |st, t0| st.step(&source, t0));
    if warm.failed() > 0 {
        return Err(format!(
            "{} requests failed before the window",
            warm.failed()
        ));
    }
    // Room for every request of the window, from the untimed phase's
    // rate with a quarter to spare, made resident before the window so
    // the clients' own records raise no memory peak inside it.
    let busiest = warm.rtt_ns.iter().map(Vec::len).max().unwrap_or(0);
    let capacity =
        (busiest as f64 * args.seconds as f64 / WARM_PHASE.as_secs_f64() * 1.25) as usize;
    let per_line = if w.sweep() { SWEEP_POINTS } else { 1 };
    let mut states = warm.states;
    for st in &mut states {
        st.sent = drive::resident(capacity * per_line, u32::MAX);
        st.missed.clear();
        st.rows_ok = 0;
        st.rec.spans.clear();
    }

    // The timed window, between two snapshots of the server's counters.
    let mut control = Client::connect(handle.addr())?;
    let journal = w == Workload::Churn;
    let before = snapshot(&mut control, journal)?;
    let window = drive::run_window(
        states,
        Duration::from_secs(args.seconds),
        capacity,
        |st, t0| st.step(&source, t0),
    );
    let peak_rss_mb = peak_rss_mb()?;
    let (attempted, failed) = (window.attempted(), window.failed());
    let whole = window.whole();
    let (measured, quiet) = window.quiet();
    let mut states = window.states;
    for st in &mut states {
        st.conn = None;
    }
    let window_misses: usize = states.iter().map(|s| s.missed.len()).sum();
    let after = snapshot(&mut control, journal)?;
    drop(control);
    handle.stop();
    let d = wire_delta(w.sweep(), &before, &after);
    for rep in 1..SETUP_REPS {
        let (handle, s) = set_up(rep, &mut served)?;
        handle.stop();
        setups.push(s);
    }

    // Verify: every answer, then the counters the request stream implies.
    for st in &mut states {
        if let Some(m) = st.mismatch.take() {
            return Err(m);
        }
        for (i, r) in std::mem::take(&mut st.seen) {
            merge(&mut served, i, r)?;
        }
    }
    if w == Workload::Cold {
        pool = cold_gen
            .into_inner()
            .expect("generator lock poisoned")
            .points;
    }
    let rows_ok: u64 = states.iter().map(|s| s.rows_ok).sum();
    if d.misses != window_misses as u64 {
        return Err(format!(
            "server counted {} misses, clients saw {window_misses} simulated answers",
            d.misses
        ));
    }
    if failed == 0 && d.hits + d.misses != rows_ok {
        return Err(format!(
            "server counted {} lookups for {rows_ok} answered points",
            d.hits + d.misses
        ));
    }
    match w {
        Workload::Hot if d.misses != 0 => {
            return Err(format!("{} requests missed the warm set", d.misses));
        }
        Workload::Cold if d.hits != 0 => {
            return Err(format!("{} distinct requests hit the cache", d.hits));
        }
        Workload::Churn if d.evictions == 0 || d.journal_records != d.misses => {
            return Err(format!(
                "churn: {} evictions, {} journal records for {} misses",
                d.evictions, d.journal_records, d.misses
            ));
        }
        _ => {}
    }
    for st in &states {
        for f in &st.failures {
            eprintln!("perfbench: {}: failed request: {f}", w.name());
        }
    }

    let compiled = replay::compile(scale, args.trace);
    let per_line = if w.sweep() { SWEEP_POINTS } else { 1 };
    let lines: Vec<&[u32]> = states
        .iter()
        .flat_map(|s| s.sent.chunks(per_line))
        .collect();
    let rp = replay::replay(
        &compiled.suite,
        &pool,
        &served,
        &lines,
        w.sweep(),
        args.trace,
        epoch,
    )?;

    // End-to-end metrics, over the window's quiet slices.
    let mut e2e = throughput_latency(&measured)?;
    let whole_window = throughput_latency(&whole)?;
    let median_of = |f: fn(&Setup) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    e2e.insert("setup_s", (median_of(|s| s.setup_s), "s"));
    e2e.insert("peak_rss_mb", (peak_rss_mb, "MB"));

    // Per-layer metrics.
    let mut layer = Metrics::new();
    let mut notes = Vec::new();
    let rtt_us = stats::mean(
        whole
            .rtt_ns
            .iter()
            .filter(|&&ns| ns != drive::FAILED)
            .map(|&ns| f64::from(ns) / 1e3),
    );
    let per = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    let request_us = per(d.request_ns, d.requests) / 1e3;
    let service_us = per(d.service_ns, d.jobs) / 1e3;
    let jobs_per_request = per(d.jobs, d.requests);
    layer.insert("failed_ratio", (per(failed, attempted), "ratio"));
    layer.insert("serve.rtt_us", (rtt_us, "us"));
    layer.insert("serve.request_us", (request_us, "us"));
    layer.insert("serve.service_us", (service_us, "us"));
    layer.insert("serve.wire_us", (rtt_us - request_us, "us"));
    layer.insert(
        "serve.dispatch_us",
        (request_us - service_us * jobs_per_request, "us"),
    );
    layer.insert("serve.hit_ratio", (per(d.hits, d.hits + d.misses), "ratio"));
    layer.insert("serve.misses", (d.misses as f64, "count"));
    layer.insert("serve.evictions", (d.evictions as f64, "count"));
    let shard_mean = stats::mean(d.per_shard.iter().map(|&n| n as f64));
    let shard_min = d.per_shard.iter().copied().min().unwrap_or(0) as f64;
    layer.insert(
        "serve.shard_balance",
        (
            if shard_mean > 0.0 {
                shard_min / shard_mean
            } else {
                0.0
            },
            "ratio",
        ),
    );
    layer.insert("serve.start_ms", (median_of(|s| s.start_ms), "ms"));
    layer.insert(
        "serve.first_result_ms",
        (median_of(|s| s.first_result_ms), "ms"),
    );
    layer.insert("journal.records", (d.journal_records as f64, "count"));
    layer.insert(
        "journal.bytes_per_record",
        (per(d.journal_bytes, d.journal_records), "B"),
    );
    layer.insert("journal.rotations", (d.journal_rotations as f64, "count"));
    layer.insert("journal.recovered", (pre_records as f64, "count"));

    let spans = trace::self_times(&rp.spans);
    let span_mean = |name: &str| spans.get(name).map_or(0.0, trace::SpanTotals::mean_ns);
    layer.insert("proto.req_encode_ns", (span_mean("proto.req_encode"), "ns"));
    layer.insert("proto.req_decode_ns", (span_mean("proto.req_decode"), "ns"));
    layer.insert(
        "proto.resp_encode_ns",
        (span_mean("proto.resp_encode"), "ns"),
    );
    layer.insert(
        "proto.resp_decode_ns",
        (span_mean("proto.resp_decode"), "ns"),
    );
    layer.insert(
        "proto.fingerprint_ns",
        (span_mean("proto.fingerprint"), "ns"),
    );
    layer.insert("proto.req_bytes", (rp.req_bytes, "B"));
    layer.insert("cache.lookup_ns", (span_mean("cache.lookup"), "ns"));
    layer.insert("proto.resp_bytes", (rp.resp_bytes, "B"));

    // The engines' share of the window: the points the server simulated.
    let is_ooo = |i: u32| matches!(pool[i as usize].machine, MachineConfig::Ooo(_));
    let missed: Vec<u32> = states
        .iter()
        .flat_map(|s| s.missed.iter().copied())
        .collect();
    let distinct: HashSet<u32> = missed.iter().copied().collect();
    let (ooo, refm): (Vec<u32>, Vec<u32>) = distinct.iter().partition(|&&i| is_ooo(i));
    let sim_us = |pts: &[u32]| stats::mean(pts.iter().map(|i| rp.sim_ns[i] as f64 / 1e3));
    let stat_sum = |f: fn(&SimResult) -> u64| -> u64 {
        missed
            .iter()
            .filter(|&&i| is_ooo(i))
            .map(|i| f(&served[i]))
            .sum()
    };
    let replay_ns: u64 = ooo.iter().map(|i| rp.sim_ns[i]).sum();
    let replay_pcycles: u64 = ooo.iter().map(|i| served[i].stats.progress_cycles).sum();
    layer.insert("core.sim_us", (sim_us(&ooo), "us"));
    layer.insert("core.ns_per_pcycle", (per(replay_ns, replay_pcycles), "ns"));
    layer.insert(
        "core.progress_cycles",
        (stat_sum(|r| r.stats.progress_cycles) as f64, "count"),
    );
    layer.insert(
        "core.cycles",
        (stat_sum(|r| r.stats.cycles) as f64, "count"),
    );
    let ooo_points = missed.iter().filter(|&&i| is_ooo(i)).count();
    layer.insert("core.points", (ooo_points as f64, "count"));
    layer.insert("refsim.sim_us", (sim_us(&refm), "us"));
    layer.insert(
        "refsim.points",
        ((missed.len() - ooo_points) as f64, "count"),
    );
    // The shard's job against the same work in process: the fingerprint,
    // then a lookup on a hit or a simulation on a miss.
    let lookup_ns = d.hits as f64 * span_mean("cache.lookup");
    let sim_ns: f64 = missed.iter().map(|i| rp.sim_ns[i] as f64).sum();
    let in_process_us =
        (span_mean("proto.fingerprint") + (lookup_ns + sim_ns) / d.jobs.max(1) as f64) / 1e3;
    layer.insert(
        "serve.service_residual_us",
        (service_us - in_process_us, "us"),
    );
    layer.insert("bench.steal_share", (quiet.steal_share, "ratio"));
    layer.insert(
        "bench.measured_share",
        (quiet.kept as f64 / quiet.slices as f64, "ratio"),
    );
    layer.insert("bench.suite_compile_ms", (compiled.suite_compile_ms, "ms"));
    layer.insert("vcc.compile_ms", (compiled.vcc_compile_ms, "ms"));
    layer.insert("exec.seed_ms", (compiled.exec_seed_ms, "ms"));

    if args.trace {
        // Reconcile the client's round trip with the server's layers,
        // and the shard's service time with the same work in process.
        let mut client_spans = Vec::new();
        for st in &states {
            client_spans.extend_from_slice(&st.rec.spans);
        }
        let cs = trace::self_times(&client_spans);
        let per_req = |name: &str| {
            cs.get(name)
                .map_or(0.0, |t| t.total_ns as f64 / attempted as f64 / 1e3)
        };
        let client_codec = per_req("client.encode") + per_req("client.decode");
        let wire = rtt_us - request_us;
        let dispatch = request_us - service_us * jobs_per_request;
        let row = |n: &str, v: f64| format!("  {n:<44} {v:>12.2}");
        notes.push(format!(
            "reconciliation, µs per request ({} requests):",
            attempted
        ));
        notes.push(row("serve.rtt_us (client round trip)", rtt_us));
        notes.push(row("  client encode + decode", client_codec));
        notes.push(row("  socket, server read + decode", wire - client_codec));
        notes.push(row("= serve.wire_us", wire));
        notes.push(row("+ serve.dispatch_us", dispatch));
        notes.push(row(
            &format!("+ serve.service_us × {jobs_per_request:.2} jobs"),
            service_us * jobs_per_request,
        ));
        notes.push(row(
            "= sum (equals rtt by construction)",
            wire + dispatch + service_us * jobs_per_request,
        ));
        notes.push("service per job against the same work in process, µs:".into());
        notes.push(row("serve.service_us (shard histogram)", service_us));
        notes.push(row(
            "in process: fingerprint + lookup | simulate",
            in_process_us,
        ));
        notes.push(row(
            "serve.service_residual_us (clone, counters, contention)",
            service_us - in_process_us,
        ));
        notes.push("span self time (count, mean ns, mean self ns):".into());
        for (name, t) in cs.iter().chain(spans.iter()) {
            notes.push(format!(
                "  {name:<24} {:>9} {:>12.0} {:>12.0}",
                t.count,
                t.mean_ns(),
                t.mean_self_ns()
            ));
        }
    }

    Ok(Report {
        workload: w,
        attempted,
        failed,
        samples: measured.rtt_ns.len(),
        quiet,
        end_to_end: e2e,
        whole_window,
        per_layer: layer,
        notes,
    })
}

/// `points_per_s` and the latency percentiles over `m`.
fn throughput_latency(m: &drive::Measured) -> Result<Metrics, String> {
    let mut lat: Vec<f64> = m
        .rtt_ns
        .iter()
        .map(|&ns| {
            if ns == drive::FAILED {
                // A failed request misses every latency limit.
                f64::INFINITY
            } else {
                f64::from(ns) / 1e3
            }
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    if lat.len() < stats::min_samples_for(99.0) {
        return Err(format!(
            "{} requests in the measured slices; p99 needs {}: run longer",
            lat.len(),
            stats::min_samples_for(99.0)
        ));
    }
    let (p50, p99) = (stats::percentile(&lat, 50.0), stats::percentile(&lat, 99.0));
    if !p99.is_finite() {
        return Err(format!(
            "more than 1% of {} requests failed; p99 is undefined",
            lat.len()
        ));
    }
    let mut out = Metrics::new();
    out.insert("points_per_s", (m.points as f64 / m.seconds, "1/s"));
    out.insert("latency_p50_us", (p50, "us"));
    out.insert("latency_p99_us", (p99, "us"));
    Ok(out)
}

fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(
        m.iter()
            .map(|(name, &(value, unit))| {
                (
                    (*name).to_string(),
                    Json::obj(vec![("value", Json::Num(value)), ("unit", unit.into())]),
                )
            })
            .collect(),
    )
}

impl Report {
    fn print(&self, traced: bool) {
        println!(
            "{}: {} requests, {} failed (failed_ratio {}); measured over {} of {} one-second \
             slices (host steal {:.1}% of CPU time), {} latency samples",
            self.workload.name(),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted as f64,
            self.quiet.kept,
            self.quiet.slices,
            self.quiet.steal_share * 100.0,
            self.samples
        );
        let table = |title: &str, m: &Metrics| {
            println!("{title}:");
            for (name, (v, unit)) in m {
                println!("  {name:<28} {v:>14.3} {unit}");
            }
        };
        let shown = if traced {
            table("end-to-end, traced", &self.end_to_end);
            println!("traced_end_to_end {}", metrics_json(&self.end_to_end));
            for n in &self.notes {
                println!("{n}");
            }
            &self.per_layer
        } else {
            &self.end_to_end
        };
        table(if traced { "per-layer" } else { "end-to-end" }, shown);
        println!("whole_window {}", metrics_json(&self.whole_window));
        let result = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics_json(shown)),
        ]);
        println!("{result}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_model_counts_misses_and_evictions() {
        // Keys 0, 2, 4 share shard 0 (cap 2); 1 sits alone on shard 1.
        let (misses, evictions) = lru_model(&[0, 2, 0, 4, 2, 1, 0], 2);
        // 0 m, 2 m, 0 h, 4 m (evicts 2), 2 m (evicts 0), 1 m, 0 m (evicts 4).
        assert_eq!((misses, evictions), (6, 3));
    }
}
