//! Durability and cancellation integration tests: a SIGKILLed server
//! restarts warm from its write-ahead journal, arbitrary corruption of
//! the journal and its snapshot recovers exactly each file's
//! intact-record prefix without ever panicking or serving a corrupted
//! result, an unreadable journal is left untouched, and a
//! `deadline_ms` expiring *mid-simulation* aborts the run cooperatively
//! instead of completing it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use oov_core::Stepper;
use oov_isa::{MachineConfig, OooConfig};
use oov_kernels::{Program, Scale};
use oov_serve::{
    journal, CacheLine, Client, PersistOptions, ServeConfig, Server, SimError, SimRequest,
};

/// A pool of distinct smoke-scale points (distinct fingerprints).
fn distinct_points(n: usize) -> Vec<SimRequest> {
    (0..n)
        .map(|i| SimRequest {
            machine: MachineConfig::Ooo(OooConfig::default().with_queue_slots(16 + i)),
            ..SimRequest::ooo_default(Program::ALL[i % Program::ALL.len()], Scale::Smoke)
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oov_recovery_{}_{name}", std::process::id()))
}

/// A real `serve` process (the compiled binary, not an in-process
/// server) — the only way to test recovery from an actual SIGKILL.
struct ServeProc {
    child: Child,
    addr: String,
    // Held open so the child's stdout writes never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

fn spawn_serve(args: &[&str]) -> ServeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve binary");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read listen banner");
    // "oov-serve listening on 127.0.0.1:<port> (<n> shards)"
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();
    ServeProc {
        child,
        addr,
        _stdout: stdout,
    }
}

#[test]
fn sigkilled_server_restarts_warm_from_the_journal() {
    let jpath = tmp("kill.wal");
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(journal::snapshot_path(&jpath)).ok();
    let journal_flag = jpath.to_str().expect("utf-8 temp path");

    let mut first = spawn_serve(&["--shards", "2", "--journal", journal_flag]);
    let points = distinct_points(6);
    {
        let mut client = Client::connect(first.addr.as_str()).expect("connect");
        for p in &points {
            let r = client.sim(p).expect("fresh simulation");
            assert!(!r.cached, "first run must be a miss");
        }
    }
    // Every result was answered, so every journal append is at least
    // queued; wait for the batching writer to make them durable before
    // pulling the plug.
    let t0 = Instant::now();
    while journal::recover(&jpath)
        .expect("journal readable")
        .entries
        .len()
        < points.len()
    {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "journal writer never persisted all {} records",
            points.len()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // SIGKILL: no drop handlers, no clean close — the journal is all
    // that survives.
    first.child.kill().expect("SIGKILL");
    first.child.wait().expect("reap");

    // Restart with a *different* shard count: recovered entries are
    // re-routed by fingerprint, so the warm cache must still line up.
    let mut second = spawn_serve(&["--shards", "3", "--journal", journal_flag]);
    let mut client = Client::connect(second.addr.as_str()).expect("reconnect");
    for p in &points {
        let r = client.sim(p).expect("served after recovery");
        assert!(r.cached, "every fully-appended record must serve warm");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.result_misses, 0, "no recomputation after recovery");
    assert_eq!(stats.journal_recovered, points.len() as u64);
    assert_eq!(
        stats.suite_compiles_smoke + stats.suite_compiles_paper,
        0,
        "a fully-warm restart must not recompile any suite"
    );
    client.shutdown().expect("shutdown");
    second.child.wait().expect("clean exit");
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(journal::snapshot_path(&jpath)).ok();
}

/// Frames `entries` the way the journal writer does; returns the file
/// bytes and the end offset of each record.
fn frames(entries: &[CacheLine]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let ends = entries
        .iter()
        .map(|e| {
            oov_proto::frame_record(&journal::encode_record(e), &mut buf).expect("frame");
            buf.len()
        })
        .collect();
    (buf, ends)
}

fn journaled(jpath: &std::path::Path) -> PersistOptions {
    PersistOptions {
        journal: Some(jpath.to_path_buf()),
        ..PersistOptions::default()
    }
}

#[test]
fn corrupted_journal_and_snapshot_recover_exactly_the_intact_prefix() {
    let jpath = tmp("corrupt.wal");
    let snap = journal::snapshot_path(&jpath);
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();

    // Build a real journal through a live server.
    let server = Server::start_with("127.0.0.1:0", 2, journaled(&jpath)).expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let points = distinct_points(8);
    for p in &points {
        client.sim(p).expect("simulate");
    }
    client.shutdown().expect("shutdown");
    server.join(); // a clean stop keeps the journal as it is

    let pristine = std::fs::read(&jpath).expect("journal exists");
    let baseline = journal::recover(&jpath).expect("journal readable");
    assert_eq!(baseline.entries.len(), points.len());
    assert_eq!(baseline.truncated_bytes, 0);
    let (reframed, ends) = frames(&baseline.entries);
    assert_eq!(reframed, pristine, "records tile the journal exactly");

    // A snapshot as compaction writes it: the same frames. Even
    // entries share a key with the journal but carry a stale marker
    // value (the tail must win); odd ones exist only in the snapshot.
    let snap_entries: Vec<CacheLine> = baseline
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut e = e.clone();
            e.result.ideal_cycles += 1_000_000;
            if i % 2 == 1 {
                e.key = !e.key;
            }
            e
        })
        .collect();
    let (snap_pristine, snap_ends) = frames(&snap_entries);

    // Deterministic xorshift over flip/truncate positions.
    let mut rng = 0x000C_4A05_u64;
    let mut next = |m: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % m as u64) as usize
    };
    // Writes both files, checks that recovery keeps exactly the
    // records wholly before `tear` / `snap_tear` (a flipped bit breaks
    // its record's CRC or frame, and truncate-at-first-tear never
    // resyncs past damage), and — for some cases — that a real server
    // start truncates the journal to its intact prefix but leaves the
    // snapshot byte-identical.
    let check =
        |journal_bytes: &[u8], tear: usize, snap_bytes: &[u8], snap_tear: usize, serve: bool| {
            std::fs::write(&jpath, journal_bytes).expect("write journal");
            std::fs::write(&snap, snap_bytes).expect("write snapshot");
            let intact = ends.iter().filter(|&&e| e <= tear).count();
            let snap_intact = snap_ends.iter().filter(|&&e| e <= snap_tear).count();
            let tail = journal::recover(&jpath).expect("journal readable");
            assert_eq!(
                tail.entries[..],
                baseline.entries[..intact],
                "journal tear at {tear}"
            );
            let head = journal::recover(&snap).expect("snapshot readable");
            assert_eq!(
                head.entries[..],
                snap_entries[..snap_intact],
                "snapshot tear at {snap_tear}"
            );
            assert_eq!(
                tail.skipped + head.skipped,
                0,
                "a torn record never decodes"
            );

            let mut want: HashMap<u64, CacheLine> = HashMap::new();
            for e in snap_entries[..snap_intact]
                .iter()
                .chain(&baseline.entries[..intact])
            {
                want.insert(e.key, e.clone());
            }
            let intact_bytes = if intact == 0 { 0 } else { ends[intact - 1] };
            let restored = journal::restore(&jpath);
            assert_eq!(restored.state, want, "tears at {tear} / {snap_tear}");
            assert_eq!(restored.tail_records, intact as u64);
            assert_eq!(restored.tail_intact_bytes, Some(intact_bytes as u64));
            assert_eq!(std::fs::read(&snap).expect("snapshot"), snap_bytes);

            if serve {
                let server =
                    Server::start_with("127.0.0.1:0", 1, journaled(&jpath)).expect("start");
                let stats = server.snapshot();
                assert_eq!(stats.journal_recovered, intact as u64);
                assert_eq!(stats.cache_load_skipped, 0);
                server.stop();
                assert_eq!(
                    std::fs::read(&jpath).expect("journal"),
                    journal_bytes[..intact_bytes]
                );
                assert_eq!(
                    std::fs::read(&snap).expect("snapshot"),
                    snap_bytes,
                    "snapshot rewritten"
                );
            }
        };
    for case in 0..200 {
        let serve = case % 10 == 0;
        // A single flipped bit in each file.
        let (mut buf, mut snap_buf) = (pristine.clone(), snap_pristine.clone());
        let byte = next(buf.len());
        buf[byte] ^= 1 << next(8);
        let snap_byte = next(snap_buf.len());
        snap_buf[snap_byte] ^= 1 << next(8);
        check(&buf, byte, &snap_buf, snap_byte, serve);

        // A truncated tail on each file: exactly the fully-contained
        // records.
        let cut = next(pristine.len() + 1);
        let snap_cut = next(snap_pristine.len() + 1);
        check(
            &pristine[..cut],
            cut,
            &snap_pristine[..snap_cut],
            snap_cut,
            serve,
        );
    }
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();
}

/// A journal the server cannot read (here: write-only) must not be
/// mistaken for an empty one and wiped: journaling turns off for the
/// run and the file stays byte-identical.
#[cfg(unix)]
#[test]
fn unreadable_journal_is_left_untouched() {
    use std::os::unix::fs::PermissionsExt;
    let jpath = tmp("unreadable.wal");
    let snap = journal::snapshot_path(&jpath);
    std::fs::remove_file(&snap).ok();
    let mut bytes = Vec::new();
    oov_proto::frame_record(b"{\"durable\": \"state\"}", &mut bytes).expect("frame");
    std::fs::write(&jpath, &bytes).expect("write journal");
    let set_mode = |mode| {
        std::fs::set_permissions(&jpath, std::fs::Permissions::from_mode(mode)).expect("chmod");
    };
    set_mode(0o200);
    if std::fs::read(&jpath).is_ok() {
        // Root reads a 0o200 file anyway; the unreadable case cannot
        // be staged here.
        eprintln!("skipping: this process can read a write-only file");
        set_mode(0o600);
        std::fs::remove_file(&jpath).ok();
        return;
    }
    let server = Server::start_with("127.0.0.1:0", 1, journaled(&jpath)).expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .sim(&SimRequest::ooo_default(Program::Trfd, Scale::Smoke))
        .expect("serves without its journal");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.journal_recovered, 0);
    assert_eq!(stats.journal_records, 0, "journaling must be off");
    client.shutdown().expect("shutdown");
    server.join();
    set_mode(0o600);
    assert_eq!(std::fs::read(&jpath).expect("read back"), bytes);
    assert!(!snap.exists());
    std::fs::remove_file(&jpath).ok();
}

#[test]
fn deadline_expiring_mid_simulation_aborts_the_run() {
    let server = Server::start("127.0.0.1:0", 1).expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    // Warm the suite first so the deadlined request below spends its
    // whole wall-clock life *inside* the simulator, not compiling.
    client
        .sim(&SimRequest::ooo_default(Program::Trfd, Scale::Smoke))
        .expect("warm the suite");

    // Naive stepper + 60k-cycle memory latency: >100 ms of wall clock
    // even in release builds, so a 25 ms deadline is comfortably alive
    // when the run starts and expires long before it could finish.
    let slow = SimRequest {
        machine: MachineConfig::Ooo(OooConfig::default().with_memory_latency(60_000)),
        stepper: Stepper::Naive,
        ..SimRequest::ooo_default(Program::Trfd, Scale::Smoke)
    };
    match client.sim_opts(&slow, Some(25)) {
        Err(SimError::Deadline) => {}
        other => panic!("expected a mid-run deadline abort, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.deadline_drops, 1);
    assert_eq!(
        stats.cancelled_jobs, 1,
        "the abort must come from the run budget, not the queue check"
    );
    assert_eq!(
        stats.result_misses, 2,
        "the deadlined job must have *started* simulating"
    );

    // The same point, un-deadlined, completes.
    let r = client.sim(&slow).expect("completes without a deadline");
    assert!(r.stats.cycles > 1_000_000, "the slow config really is slow");
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn cycle_cap_contains_runaway_simulations() {
    let server = Server::start_cfg(
        "127.0.0.1:0",
        1,
        ServeConfig {
            max_sim_cycles: Some(100),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    // Any real smoke run needs thousands of cycles; a 100-cycle cap
    // fires deterministically.
    let err = client
        .sim(&SimRequest::ooo_default(Program::Trfd, Scale::Smoke))
        .expect_err("must hit the cycle cap");
    assert!(
        err.contains("cycle cap exceeded"),
        "unexpected error: {err}"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cancelled_jobs, 1);
    client.shutdown().expect("shutdown");
    server.join();
}
