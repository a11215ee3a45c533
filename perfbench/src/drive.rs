//! The load generator: one publisher connection on the calling thread
//! and one subscriber connection on a second thread, driving a spawned
//! daemon through one repetition of a workload.

use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tiresias_core::AnomalyEvent;
use tiresias_server::protocol::v2;

use crate::daemon::{stat, stat_u64, Conn, Daemon, REPLY_TIMEOUT};
use crate::oracle::{parse_event, Expected};
use crate::workload::{
    Generated, Spec, GRACE_MS, QUERY_SPAN, SEASON, SHARDS, TICK_MS, TIMEUNIT, WARMUP, WINDOW,
};

/// One send-and-await step of the publisher.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Wire bytes: `PUSH` lines, or v2 frames.
    pub bytes: Vec<u8>,
    /// Indices of the records carried.
    pub range: Range<usize>,
    /// What ends the step: the sequence number of the `PING` fence
    /// (NOACK) or of the acked DATA frame; `None` for text batches,
    /// which end after one reply per record.
    pub seq: Option<u32>,
}

/// Appends one batch as the daemon receives it: `PUSH` lines, or with
/// `binary` one v2 DATA frame numbered `seq` through the connection's
/// dictionary `enc`.
pub fn encode_batch(
    enc: &mut v2::FrameEncoder,
    binary: bool,
    seq: u32,
    records: &[(String, u64)],
    out: &mut Vec<u8>,
) {
    if binary {
        enc.encode_data(seq, records, out);
    } else {
        for (path, t) in records {
            out.extend_from_slice(format!("PUSH {path} {t}\n").as_bytes());
        }
    }
}

/// Pre-encodes `records[range]` for one connection (a fresh v2
/// dictionary per connection).
pub fn encode(spec: &Spec, records: &[(String, u64)], range: Range<usize>) -> Vec<Chunk> {
    let mut chunks = Vec::new();
    let mut enc = v2::FrameEncoder::new();
    let mut seq = 0u32;
    let mut i = range.start;
    while i < range.end {
        let start = i;
        let mut bytes = Vec::new();
        for _ in 0..spec.frames_per_step() {
            if i >= range.end {
                break;
            }
            let end = (i + spec.batch).min(range.end);
            encode_batch(&mut enc, spec.binary(), seq, &records[i..end], &mut bytes);
            seq += 1;
            i = end;
        }
        let fence = if !spec.binary() {
            None
        } else if spec.durable() {
            Some(seq - 1)
        } else {
            bytes.extend_from_slice(&v2::control_frame(v2::FrameKind::Ping, seq));
            seq += 1;
            Some(seq - 1)
        };
        chunks.push(Chunk { bytes, range: start..i, seq: fence });
    }
    chunks
}

/// The daemon's command line after `serve --addr …`.
pub fn daemon_args(data_dir: Option<&Path>, wal_sync: &str) -> Vec<String> {
    let mut a: Vec<String> = [
        "--shards",
        &SHARDS.to_string(),
        "--timeunit",
        &TIMEUNIT.to_string(),
        "--window",
        &WINDOW.to_string(),
        "--season",
        &SEASON.to_string(),
        "--warmup",
        &WARMUP.to_string(),
        "--theta",
        &crate::workload::THETA.to_string(),
        "--rt",
        &crate::workload::RT.to_string(),
        "--dt",
        &crate::workload::DT.to_string(),
        "--grace-ms",
        &GRACE_MS.to_string(),
        "--tick-ms",
        &TICK_MS.to_string(),
        "--idle-timeout-ms",
        "0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(dir) = data_dir {
        a.extend(["--data-dir".to_string(), dir.display().to_string()]);
        a.extend(["--wal-sync".to_string(), wal_sync.to_string()]);
    }
    a
}

/// Failed operations by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// `ERR` replies other than refused records.
    pub err_replies: u64,
    /// Records refused as late or too far ahead.
    pub refused: u64,
    /// Events lost to slow-subscriber drops (`dropped_events`) plus
    /// subscribers dropped (`dropped_slow`).
    pub sub_dropped: u64,
    /// Connect, read or write errors.
    pub io_errors: u64,
}

impl Failures {
    /// All failures.
    pub fn total(&self) -> u64 {
        self.err_replies + self.refused + self.sub_dropped + self.io_errors
    }

    /// Adds `other` kind-wise.
    pub fn add(&mut self, other: &Failures) {
        self.err_replies += other.err_replies;
        self.refused += other.refused;
        self.sub_dropped += other.sub_dropped;
        self.io_errors += other.io_errors;
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Spawn to first `PONG`, seconds.
    pub setup_s: f64,
    /// Per step: reply time measured from when the step was due, ms.
    pub ack_ms: Vec<f64>,
    /// Per unit with events: first `EVENT` of unit U minus the due time
    /// of the step carrying unit U+1's first record, ms.
    pub alert_ms: Vec<f64>,
    /// `QUERY` round trips during ingest, ms.
    pub query_ms: Vec<f64>,
    /// Per step: send time minus due time, ms.
    pub late_ms: Vec<f64>,
    /// Records sent in this repetition.
    pub records: u64,
    /// First record sent to the last unit closed, seconds.
    pub elapsed_s: f64,
    /// Daemon CPU over the feed, seconds.
    pub cpu_s: f64,
    /// Daemon `VmHWM` at the end, MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted (records, queries, requests, connections).
    pub attempted: u64,
    /// Failures by kind.
    pub failures: Failures,
    /// The delivered events: the subscriber stream (open loop) or a
    /// final `QUERY` over every unit (bulk and durable).
    pub delivered: Vec<AnomalyEvent>,
    /// Due time of the step carrying each unit's first record.
    pub unit_due: BTreeMap<u64, Instant>,
    /// Engine-side problems the output check must fail on: admitted ≠
    /// sent, late or ahead records, malformed frames.
    pub problems: Vec<String>,
}

/// Tallies one reply line of a publisher step into `f`; returns whether
/// the line ends the step.
fn tally(line: &str, chunk: &Chunk, f: &mut Failures, acked: bool) -> bool {
    if let Some(seq) = chunk.seq {
        if line == format!("PONG frame={seq}") {
            return true;
        }
        if let Some(rest) = line.strip_prefix("OK frame=") {
            f.refused += stat_u64(rest, "late").unwrap_or(0) + stat_u64(rest, "ahead").unwrap_or(0);
            return acked && rest.split_whitespace().next() == Some(&seq.to_string());
        }
        if line.starts_with("ERR") {
            f.err_replies += 1;
            return acked && line.starts_with(&format!("ERR frame={seq} "));
        }
        f.err_replies += 1;
        return false;
    }
    match line {
        "OK" => {}
        "LATE" => f.refused += 1,
        l if l.starts_with("ERR record timestamp too far ahead") => f.refused += 1,
        _ => f.err_replies += 1,
    }
    false
}

/// Awaits the end of a step: one reply per record for text, the fence
/// or frame ack for v2.
fn await_step(conn: &mut Conn, chunk: &Chunk, f: &mut Failures, acked: bool) -> io::Result<()> {
    if chunk.seq.is_none() {
        for _ in chunk.range.clone() {
            let line = conn.line()?;
            tally(&line, chunk, f, acked);
        }
        return Ok(());
    }
    loop {
        let line = conn.line()?;
        if tally(&line, chunk, f, acked) {
            return Ok(());
        }
    }
}

/// One `QUERY` over `[from, to]`: its events and the `OK n=` count.
fn query(conn: &mut Conn, from: u64, to: u64, limit: usize) -> io::Result<Vec<AnomalyEvent>> {
    conn.send(format!("QUERY {from} {to} LIMIT {limit}\n").as_bytes())?;
    let mut events = Vec::new();
    loop {
        let line = conn.line()?;
        if let Some(body) = line.strip_prefix("EVENT ") {
            events.push(
                parse_event(body)
                    .ok_or_else(|| io::Error::other(format!("malformed frame `{line}`")))?,
            );
        } else if let Some(n) = line.strip_prefix("OK n=") {
            if n.parse::<usize>().ok() != Some(events.len()) {
                return Err(io::Error::other(format!("`{line}` after {} events", events.len())));
            }
            return Ok(events);
        } else {
            return Err(io::Error::other(format!("QUERY answered `{line}`")));
        }
    }
}

/// Every retained event of units `[0, last]`, paged under the
/// daemon's per-reply cap.
fn query_all(conn: &mut Conn, last: u64) -> io::Result<Vec<AnomalyEvent>> {
    const LIMIT: usize = tiresias_server::protocol::MAX_QUERY_LIMIT;
    let mut out = Vec::new();
    let mut from = 0;
    loop {
        let mut page = query(conn, from, last, LIMIT)?;
        if page.len() < LIMIT {
            out.append(&mut page);
            return Ok(out);
        }
        // The cap may have cut the last unit short: keep the whole
        // units before it and resume from that unit.
        let cut = page.last().map_or(from, |e| e.unit);
        page.retain(|e| e.unit < cut);
        if cut == from {
            return Err(io::Error::other(format!("unit {cut} holds more than {LIMIT} events")));
        }
        out.append(&mut page);
        from = cut;
    }
}

/// The subscriber's haul.
struct Sub {
    events: Vec<(Instant, String)>,
    dropped_events: u64,
    unexpected: u64,
}

fn subscriber(
    addr: &str,
    ready: &AtomicBool,
    stop: &AtomicBool,
    count: &AtomicUsize,
) -> io::Result<Sub> {
    let mut conn = Conn::connect(addr)?;
    conn.expect("SUBSCRIBE", "OK subscribed")?;
    ready.store(true, Ordering::SeqCst);
    let mut sub = Sub { events: Vec::new(), dropped_events: 0, unexpected: 0 };
    while !stop.load(Ordering::SeqCst) {
        if let Some(line) = conn.poll_line()? {
            if line.starts_with("EVENT ") {
                sub.events.push((Instant::now(), line));
                count.fetch_add(1, Ordering::SeqCst);
            } else {
                sub.unexpected += 1;
            }
        }
    }
    conn.send(b"STATS\n")?;
    loop {
        let line = conn.line()?;
        if line.starts_with("STATS ") {
            sub.dropped_events = stat_u64(&line, "dropped_events").unwrap_or(0);
            return Ok(sub);
        }
        if line.starts_with("EVENT ") {
            sub.events.push((Instant::now(), line));
        }
    }
}

/// Polls `STATS` until `last_closed ≥ last`; returns the final line.
fn await_closed(conn: &mut Conn, last: u64) -> io::Result<String> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        let line = conn.request("STATS")?;
        if stat_u64(&line, "last_closed").is_some_and(|c| c >= last) {
            return Ok(line);
        }
        if Instant::now() >= deadline {
            return Err(io::Error::other(format!("units never closed: `{line}`")));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Switches a fresh connection to the workload's protocol mode.
fn negotiate(conn: &mut Conn, spec: &Spec) -> io::Result<()> {
    if spec.binary() {
        if !spec.durable() {
            conn.expect("NOACK", "OK")?;
        }
        conn.expect("HELLO v2", "OK v2")?;
        conn.expect("UPGRADE", "OK upgraded")?;
    }
    Ok(())
}

/// Leaves v2 framing for text (`END` frame → `OK text`).
fn to_text(conn: &mut Conn) -> io::Result<()> {
    conn.send(&v2::control_frame(v2::FrameKind::End, 0))?;
    let line = conn.line()?;
    if line != "OK text" {
        return Err(io::Error::other(format!("END answered `{line}`")));
    }
    Ok(())
}

/// Feeds `chunks` without measuring: the instance that leaves the
/// crash image. Waits until every unit before the last fed one closed.
pub fn feed_plain(daemon: &Daemon, spec: &Spec, chunks: &[Chunk], last: u64) -> io::Result<()> {
    let mut conn = Conn::connect(&daemon.addr)?;
    negotiate(&mut conn, spec)?;
    let mut f = Failures::default();
    for chunk in chunks {
        conn.send(&chunk.bytes)?;
        await_step(&mut conn, chunk, &mut f, spec.durable())?;
    }
    if f.total() > 0 {
        return Err(io::Error::other(format!("crash-image feed failed: {f:?}")));
    }
    if spec.binary() {
        to_text(&mut conn)?;
    }
    await_closed(&mut conn, last)?;
    Ok(())
}

/// Where a repetition runs.
pub struct Setup<'a> {
    /// The `tiresias` binary.
    pub bin: &'a Path,
    /// The workload.
    pub spec: &'a Spec,
    /// Its records.
    pub gen: &'a Generated,
    /// Pre-encoded publisher traffic (for `ccd_durable`, the records
    /// after the crash image).
    pub chunks: &'a [Chunk],
    /// The offline replay (tells the subscriber how many events to
    /// wait for).
    pub expected: &'a Expected,
    /// `ccd_durable`: the crash image each repetition restarts from.
    pub crash_image: Option<PathBuf>,
    /// Scratch directory.
    pub work: &'a Path,
}

/// Starts the daemon for one repetition: on a fresh copy of the crash
/// image when there is one. Returns it with its data dir.
fn start(s: &Setup) -> io::Result<(Daemon, Option<PathBuf>)> {
    let data_dir = match &s.crash_image {
        Some(image) => {
            let dir = s.work.join("data");
            let _ = std::fs::remove_dir_all(&dir);
            copy_dir(image, &dir)?;
            Some(dir)
        }
        None => None,
    };
    let args = daemon_args(data_dir.as_deref(), "every");
    Ok((Daemon::start(s.bin, &args, &s.work.join("daemon.log"))?, data_dir))
}

/// One more set-up sample: spawn (recovering the crash image, if any)
/// to first `PONG`, then kill. Returns seconds.
pub fn setup_probe(s: &Setup) -> io::Result<f64> {
    let (daemon, _) = start(s)?;
    Ok(daemon.setup.as_secs_f64())
}

/// Runs one repetition: spawn, feed, wait for the last close, collect.
pub fn run_rep(s: &Setup) -> io::Result<Rep> {
    let spec = s.spec;
    let (daemon, data_dir) = start(s)?;
    let mut rep = Rep { setup_s: daemon.setup.as_secs_f64(), ..Rep::default() };
    let mut conn = Conn::connect(&daemon.addr)?;
    let before = conn.request("STATS")?;
    let admitted_before = stat_u64(&before, "records").unwrap_or(0);
    // After a crash-image recovery the hub streams only units closed
    // from the open unit on.
    let sub_target = s.expected.from_unit(stat_u64(&before, "open_unit").unwrap_or(0));
    let (ready, stop, count) =
        (AtomicBool::new(false), AtomicBool::new(false), AtomicUsize::new(0));
    let result = std::thread::scope(|scope| -> io::Result<(Sub, String)> {
        let sub = scope.spawn(|| {
            let r = subscriber(&daemon.addr, &ready, &stop, &count);
            // Unblock the publisher's wait if the subscription failed.
            ready.store(true, Ordering::SeqCst);
            r
        });
        while !ready.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let fed = feed(&mut conn, s, &daemon, &mut rep);
        // Wait (bounded) for the subscriber to see every event.
        let deadline = Instant::now() + Duration::from_secs(5);
        while fed.is_ok() && count.load(Ordering::SeqCst) < sub_target && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        let sub = sub.join().expect("subscriber thread does not panic")?;
        Ok((sub, fed?))
    });
    let (sub, after) = result?;
    rep.peak_rss_mb = daemon.peak_rss_mb()?;
    drop(daemon);
    if let Some(dir) = data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    // Alerts: unit U's first event against the due time of unit U+1's
    // first step.
    let mut first_event: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut streamed = Vec::with_capacity(sub.events.len());
    for (at, line) in &sub.events {
        match parse_event(&line["EVENT ".len()..]) {
            Some(e) => {
                first_event.entry(e.unit).or_insert(*at);
                streamed.push(e);
            }
            None => rep.problems.push(format!("malformed subscriber frame `{line}`")),
        }
    }
    for (unit, at) in &first_event {
        if let Some(due) = rep.unit_due.get(&(unit + 1)) {
            rep.alert_ms.push(ms(at.saturating_duration_since(*due)));
        }
    }
    rep.failures.sub_dropped += sub.dropped_events + stat_u64(&after, "dropped_slow").unwrap_or(0);
    rep.failures.err_replies += sub.unexpected;
    if !spec.binary() {
        rep.delivered = streamed;
    }
    let admitted = stat_u64(&after, "records").unwrap_or(0);
    if admitted != admitted_before + rep.records {
        rep.problems.push(format!(
            "STATS records={admitted}, expected {admitted_before} + {} sent",
            rep.records
        ));
    }
    for key in ["late", "ahead"] {
        if stat(&after, key) != Some("0") {
            rep.problems.push(format!("STATS {key}={}", stat(&after, key).unwrap_or("?")));
        }
    }
    rep.attempted += 3; // the publisher and subscriber connections, the subscription
    Ok(rep)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The publisher loop of one repetition; returns the `STATS` line seen
/// once the last unit closed.
fn feed(conn: &mut Conn, s: &Setup, daemon: &Daemon, rep: &mut Rep) -> io::Result<String> {
    let spec = s.spec;
    let gen = s.gen;
    negotiate(conn, spec)?;
    // The open-loop publisher spins, to its due times and on its
    // replies, instead of sleeping. Between 2 ms batches the host would
    // otherwise go idle, and on a shared host the time to wake an idle
    // vCPU varies far more from run to run than the daemon's own work.
    if spec.open_loop() {
        conn.spin()?;
    }
    let acked = spec.durable();
    let period = if spec.open_loop() {
        Duration::from_secs_f64(spec.batch as f64 / spec.rate_rps)
    } else {
        Duration::ZERO
    };
    let cpu0 = daemon.cpu_secs()?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut first_send = None;
    let mut f = Failures::default();
    for (i, chunk) in s.chunks.iter().enumerate() {
        let due = if spec.open_loop() {
            let due = t0 + period * i as u32;
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            due
        } else {
            Instant::now()
        };
        let sent = Instant::now();
        first_send.get_or_insert(sent);
        rep.late_ms.push(ms(sent.saturating_duration_since(due)));
        // Units whose first record rides in this step.
        let first_unit = gen.unit_of(chunk.range.start);
        let last_unit = gen.unit_of(chunk.range.end - 1);
        let mut query_at = None;
        for u in first_unit..=last_unit {
            let start = gen.unit_start.get(u as usize).copied().unwrap_or(gen.records.len() - 1);
            if chunk.range.contains(&start) {
                rep.unit_due.insert(u, due);
                if u > 0 && u % spec.query_every == 0 && u <= gen.last_unit() {
                    query_at = Some(u);
                }
            }
        }
        conn.send(&chunk.bytes)?;
        await_step(conn, chunk, &mut f, acked)?;
        rep.ack_ms.push(ms(due.elapsed()));
        rep.records += chunk.range.len() as u64;
        rep.attempted += chunk.range.len() as u64;
        // A query over the units before the one just started. In the
        // open loop it goes out before the predecessor closes (the
        // grace keeps it open), so every query meets the same store.
        if let Some(u) = query_at {
            if spec.binary() {
                to_text(conn)?;
            }
            let t = Instant::now();
            query(conn, u.saturating_sub(QUERY_SPAN), u - 1, 1000)?;
            rep.query_ms.push(ms(t.elapsed()));
            rep.attempted += 1;
            if spec.binary() {
                conn.expect("UPGRADE", "OK upgraded")?;
            }
        }
    }
    if spec.binary() {
        to_text(conn)?;
    }
    let last = gen.last_unit();
    let after = await_closed(conn, last)?;
    let done = Instant::now();
    rep.cpu_s = daemon.cpu_secs()? - cpu0;
    rep.elapsed_s = first_send.map_or(0.0, |t| (done - t).as_secs_f64());
    if spec.binary() {
        rep.delivered = query_all(conn, last)?;
        rep.attempted += 1;
    }
    rep.failures.add(&f);
    Ok(after)
}

/// Copies a directory tree (regular files only).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
