//! The traced run: the workload's records replayed in process through
//! each layer's public calls, in the daemon's order, with a span around
//! every call.
//!
//! Per batch: decode (text `parse_request` and v2
//! `decode_header`/`decode_dict`/`records`), route
//! (`ShardRouter::route`), WAL append and sync (`Wal::append_batch`,
//! `Wal::sync_now`), admit (`IngestHandle::admit_batch`), close
//! (`LiveSharded::close_to` once a batch reaches a new unit), query
//! (`ReportReader::query_merged`) and event formatting
//! (`protocol::format_event`). Both decoders and the WAL run on every
//! workload so that every layer figure is a measurement; only the
//! layers the daemon runs for a workload move its end-to-end figures
//! (see README.md). A second pass through a plain single-threaded
//! `Tiresias` (`push_str`, `advance_to`) gives the detector and
//! hierarchy figures.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use tiresias_core::{
    read_wal, CoreError, ShardRouter, Tiresias, Wal, WalSyncPolicy, DEFAULT_MAX_AHEAD_UNITS,
    DEFAULT_WAL_SEGMENT_BYTES,
};
use tiresias_server::protocol::{format_event, parse_request, v2, Request};

use crate::drive::encode_batch;
use crate::stats::{median, quantile, Metric};
use crate::workload::{builder, Generated, Spec, QUERY_SPAN, SHARDS, TIMEUNIT};

const NONE: u32 = u32::MAX;
/// Untraced/traced pass pairs behind `trace.overhead_pct`: at least
/// `OVERHEAD_MIN_PAIRS`, and more until the pairs took
/// `OVERHEAD_MIN_NS` (short passes are noisy).
const OVERHEAD_MIN_PAIRS: usize = 3;
const OVERHEAD_MIN_NS: f64 = 3e9;

/// One recorded span: layer name, start and end in ns since the tracer
/// started, the enclosing span's index (`NONE` for a root) and the
/// batch it belongs to.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    batch: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span recorder; a disabled tracer reads no clock.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        if self.on {
            self.t0.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a span that will have children; returns its index.
    fn open(&mut self, name: &'static str, batch: u32) -> u32 {
        if !self.on {
            return NONE;
        }
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent: NONE, batch });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, idx: u32) {
        if self.on {
            let end = self.now();
            self.spans[idx as usize].end = end;
        }
    }

    /// Records a finished leaf span that started at `start`.
    fn leaf(&mut self, name: &'static str, start: u64, parent: u32, batch: u32) {
        if self.on {
            let end = self.now();
            self.spans.push(Span { name, start, end, parent, batch });
        }
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,batch")?;
        for s in &self.spans {
            let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
            writeln!(out, "{},{},{},{},{}", s.name, s.start, s.end, parent, s.batch)?;
        }
        out.flush()
    }
}

/// Counts the layers report besides their spans.
#[derive(Debug, Default)]
struct Counts {
    records: u64,
    v2_bytes: u64,
    per_shard: Vec<u64>,
    refused: u64,
    units_closed: u64,
    query_events: u64,
    events: u64,
    wal_bytes: u64,
    wal_scan_ns: f64,
    /// Time in `Wal::sync_now`, clocked on untraced passes too.
    fsync_ns: f64,
}

fn err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Decodes one pre-encoded v2 DATA frame the way a v2 session does.
fn decode_v2(bytes: &[u8], dict: &mut Vec<String>, out: &mut Vec<(String, u64)>) -> io::Result<()> {
    let mut pos = 0;
    while pos < bytes.len() {
        let hdr: &[u8; v2::HEADER_BYTES] =
            bytes[pos..pos + v2::HEADER_BYTES].try_into().expect("header length");
        let h = v2::decode_header(hdr).map_err(err)?;
        let payload =
            &bytes[pos + v2::HEADER_BYTES..pos + v2::HEADER_BYTES + h.payload_len as usize];
        if v2::crc32(payload) != h.payload_crc {
            return Err(err("payload CRC mismatch"));
        }
        let (_, offset) = v2::decode_dict(payload, dict).map_err(err)?;
        for r in v2::records(payload, offset, dict.len()).map_err(err)? {
            let (id, t) = r.map_err(err)?;
            out.push((dict[id as usize].clone(), t));
        }
        pos += v2::HEADER_BYTES + h.payload_len as usize;
    }
    Ok(())
}

/// One pass of the live layers over the batches; returns its wall time
/// in ns.
fn live_pass(
    spec: &Spec,
    gen: &Generated,
    text: &[Vec<u8>],
    frames: &[Vec<u8>],
    wal_dir: &Path,
    tr: &mut Tracer,
    c: &mut Counts,
) -> io::Result<f64> {
    let _ = std::fs::remove_dir_all(wal_dir);
    let (wal, _) = Wal::open(wal_dir, WalSyncPolicy::Never, DEFAULT_WAL_SEGMENT_BYTES)?;
    let mut live = builder()
        .shards(SHARDS)
        .build_sharded()
        .map_err(err)?
        .into_live(DEFAULT_MAX_AHEAD_UNITS)
        .map_err(err)?;
    let handle = live.handle();
    let reader = live.reader();
    let router = ShardRouter::new(SHARDS);
    let mut dict = Vec::new();
    let mut outcomes = Vec::new();
    let mut event_seq = 0u64;
    let mut open_unit: Option<u64> = None;
    c.per_shard = vec![0; SHARDS];
    let t_start = Instant::now();
    for (b, (text_bytes, frame_bytes)) in text.iter().zip(frames).enumerate() {
        let b = b as u32;
        let root = tr.open("batch", b);
        // Decode: both codecs; the workload's own one feeds admission.
        let t = tr.now();
        let mut from_text = Vec::with_capacity(spec.batch);
        for line in text_bytes.split(|&c| c == b'\n').filter(|l| !l.is_empty()) {
            let line = std::str::from_utf8(line).map_err(err)?;
            match parse_request(line).map_err(err)? {
                Some(Request::Push { path, t_secs }) => from_text.push((path, t_secs)),
                other => return Err(err(format!("unexpected request {other:?}"))),
            }
        }
        tr.leaf("protocol.text", t, root, b);
        let t = tr.now();
        let mut from_v2 = Vec::with_capacity(spec.batch);
        decode_v2(frame_bytes, &mut dict, &mut from_v2)?;
        tr.leaf("protocol.v2", t, root, b);
        if from_text != from_v2 {
            return Err(err("text and v2 decodes disagree"));
        }
        let mut batch = if spec.binary() { from_v2 } else { from_text };
        c.records += batch.len() as u64;
        c.v2_bytes += frame_bytes.len() as u64;
        let first_unit = batch[0].1 / TIMEUNIT;
        let last_unit = batch[batch.len() - 1].1 / TIMEUNIT;
        // Route.
        let t = tr.now();
        for (path, _) in &batch {
            c.per_shard[router.route(path)] += 1;
        }
        tr.leaf("sharded.route", t, root, b);
        // WAL: append every batch; fsync every batch under the durable
        // workload's `every` policy, else once per unit.
        let t = tr.now();
        wal.append_batch(&batch)?;
        tr.leaf("wal.append", t, root, b);
        let new_unit = open_unit.is_some_and(|u| last_unit > u);
        if spec.durable() || new_unit {
            let t = tr.now();
            let clock = Instant::now();
            wal.sync_now()?;
            c.fsync_ns += clock.elapsed().as_nanos() as f64;
            tr.leaf("wal.fsync", t, root, b);
        }
        // Admit.
        let t = tr.now();
        handle.admit_batch(&mut batch, &mut outcomes).map_err(err)?;
        tr.leaf("live.admit", t, root, b);
        c.refused +=
            outcomes.iter().filter(|o| **o != tiresias_core::Admission::Accepted).count() as u64;
        let prev = open_unit.get_or_insert(first_unit);
        if last_unit > *prev {
            // Close: the data watermark moved past the open unit.
            let t = tr.now();
            live.close_to(last_unit).map_err(err)?;
            tr.leaf("live.close", t, root, b);
            c.units_closed += last_unit - *prev;
            *prev = last_unit;
            // Format the merged events for broadcast.
            let t = tr.now();
            let frames = reader.with(|s| {
                let (_, tail) = s.events_from(event_seq);
                event_seq = s.next_seq();
                tail.iter().map(format_event).collect::<Vec<_>>()
            });
            tr.leaf("protocol.event", t, root, b);
            c.events += frames.len() as u64;
        }
        // Query: at each `query_every`-th unit's first batch, as the
        // generator does.
        for u in first_unit.max(1)..=last_unit {
            let starts_here =
                gen.unit_start.get(u as usize).is_some_and(|&i| i / spec.batch == b as usize);
            if u % spec.query_every == 0 && u <= gen.last_unit() && starts_here {
                let t = tr.now();
                let got = reader
                    .query_merged(u.saturating_sub(QUERY_SPAN), u - 1, None, None, 1000)
                    .map_err(err)?;
                tr.leaf("store.query", t, root, b);
                c.query_events += got.len() as u64;
            }
        }
        tr.close(root);
    }
    let wall = t_start.elapsed().as_nanos() as f64;
    c.wal_bytes = wal.bytes();
    drop(live);
    drop(wal);
    let t = Instant::now();
    let recovered = read_wal(wal_dir)?;
    c.wal_scan_ns = t.elapsed().as_nanos() as f64;
    if recovered.entries.is_empty() {
        return Err(err("WAL scan found nothing"));
    }
    let _ = std::fs::remove_dir_all(wal_dir);
    Ok(wall)
}

/// The single-threaded baseline: the same records through a plain
/// `Tiresias`, closing each unit explicitly with `advance_to`.
struct Baseline {
    push_ns_per_rec: f64,
    update_us_per_unit: f64,
    detect_us_per_unit: f64,
    heavy_hitters: usize,
    memory_bytes: f64,
    nodes: usize,
    labels: usize,
}

fn baseline(gen: &Generated, batch: usize, tr: &mut Tracer) -> Result<Baseline, CoreError> {
    let mut d: Tiresias = builder().build()?;
    let mut unit = gen.unit_of(0);
    let (mut update_ns, mut detect_ns, mut units) = (0f64, 0f64, 0u64);
    for (b, chunk) in gen.records.chunks(batch).enumerate() {
        let b = b as u32;
        let root = tr.open("baseline.batch", b);
        let mut t = tr.now();
        for (path, ts) in chunk {
            let u = ts / TIMEUNIT;
            if u > unit {
                tr.leaf("detector.push", t, root, b);
                let before = d.timings();
                let tc = tr.now();
                d.advance_to(u * TIMEUNIT)?;
                tr.leaf("detector.advance", tc, root, b);
                let after = d.timings();
                update_ns +=
                    (after.updating_hierarchies - before.updating_hierarchies).as_nanos() as f64;
                detect_ns +=
                    (after.detecting_anomalies - before.detecting_anomalies).as_nanos() as f64;
                units += u - unit;
                unit = u;
                t = tr.now();
            }
            d.push_str(path, *ts)?;
        }
        tr.leaf("detector.push", t, root, b);
        tr.close(root);
    }
    let mem = d.memory_report();
    let units = units.max(1) as f64;
    Ok(Baseline {
        push_ns_per_rec: tr.total("detector.push") / gen.records.len() as f64,
        update_us_per_unit: update_ns / units / 1e3,
        detect_us_per_unit: detect_ns / units / 1e3,
        heavy_hitters: mem.heavy_hitters,
        memory_bytes: (mem.total_cells() * std::mem::size_of::<f64>()) as f64,
        nodes: d.tree().len(),
        labels: d.tree().label_count(),
    })
}

/// Runs the traced replay and returns the per-layer metrics (without
/// the generator's own `loadgen.*`, which the caller adds). Spans are
/// written to `spans_csv`.
pub fn run(spec: &Spec, gen: &Generated, work: &Path, spans_csv: &Path) -> io::Result<Vec<Metric>> {
    // The batches as the daemon receives them, encoded up front.
    let mut enc = v2::FrameEncoder::new();
    let (mut text, mut frames) = (Vec::new(), Vec::new());
    for (seq, chunk) in gen.records.chunks(spec.batch).enumerate() {
        let (mut t, mut f) = (Vec::new(), Vec::new());
        encode_batch(&mut enc, false, seq as u32, chunk, &mut t);
        encode_batch(&mut enc, true, seq as u32, chunk, &mut f);
        text.push(t);
        frames.push(f);
    }
    let wal_dir = work.join("trace-wal");
    let pass =
        |tr: &mut Tracer, c: &mut Counts| live_pass(spec, gen, &text, &frames, &wal_dir, tr, c);
    // A warm-up pass first (caches, allocator, file system), then
    // pairs of an untraced and a traced pass. The overhead is the median
    // of the paired slowdowns, with the fsync time left out of both
    // passes because its variance would hide the tracer's cost. The
    // layer figures come from the last traced pass.
    pass(&mut Tracer::new(false), &mut Counts::default())?;
    let (mut tr, mut c, mut traced) = (Tracer::new(true), Counts::default(), 0.0);
    let (mut overheads, mut spent) = (Vec::new(), 0.0);
    while overheads.len() < OVERHEAD_MIN_PAIRS || spent < OVERHEAD_MIN_NS {
        // U,T then T,U, so that neither pass always runs on the state
        // the other left behind.
        let untraced_first = overheads.len() % 2 == 0;
        let mut quiet = Counts::default();
        let mut untraced = 0.0;
        if untraced_first {
            untraced = pass(&mut Tracer::new(false), &mut quiet)?;
        }
        (tr, c) = (Tracer::new(true), Counts::default());
        traced = pass(&mut tr, &mut c)?;
        if !untraced_first {
            untraced = pass(&mut Tracer::new(false), &mut quiet)?;
        }
        let (u, t) = (untraced - quiet.fsync_ns, traced - c.fsync_ns);
        overheads.push((t - u) / u * 100.0);
        spent += untraced + traced;
    }
    let layer_ns: f64 = tr.spans.iter().filter(|s| s.parent != NONE).map(|s| s.ns() as f64).sum();
    let base = baseline(gen, spec.batch, &mut tr).map_err(err)?;
    tr.write_csv(spans_csv)?;

    let recs = c.records.max(1) as f64;
    let ms = |v: Vec<f64>, q: f64| quantile(&v, q).unwrap_or(0.0) / 1e6;
    let us = |v: Vec<f64>, q: f64| quantile(&v, q).unwrap_or(0.0) / 1e3;
    let mean_shard = c.per_shard.iter().sum::<u64>() as f64 / c.per_shard.len() as f64;
    let max_shard = c.per_shard.iter().copied().max().unwrap_or(0) as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        m("protocol.text.ns_per_rec", tr.total("protocol.text") / recs, "ns"),
        m("protocol.v2.ns_per_rec", tr.total("protocol.v2") / recs, "ns"),
        m("protocol.v2.bytes_per_rec", c.v2_bytes as f64 / recs, "B"),
        m("sharded.route.ns_per_rec", tr.total("sharded.route") / recs, "ns"),
        m("sharded.shard_skew", max_shard / mean_shard.max(1.0), "ratio"),
        m("live.admit.ns_per_rec", tr.total("live.admit") / recs, "ns"),
        m("live.admit.refused", c.refused as f64, "count"),
        m("detector.push.ns_per_rec", base.push_ns_per_rec, "ns"),
        m("hierarchy.nodes", base.nodes as f64, "count"),
        m("hierarchy.labels", base.labels as f64, "count"),
        m("live.close.ms_p50", ms(tr.durations("live.close"), 0.5), "ms"),
        m("live.close.ms_p99", ms(tr.durations("live.close"), 0.99), "ms"),
        m("live.close.units", c.units_closed as f64, "count"),
        m("hhh.update_us_per_unit", base.update_us_per_unit, "us"),
        m("detector.detect_us_per_unit", base.detect_us_per_unit, "us"),
        m("hhh.heavy_hitters", base.heavy_hitters as f64, "count"),
        m("hhh.memory_bytes", base.memory_bytes, "B"),
        m("store.query.us_p50", us(tr.durations("store.query"), 0.5), "us"),
        m("store.query.us_p90", us(tr.durations("store.query"), 0.9), "us"),
        m("store.query.events", c.query_events as f64, "count"),
        m("protocol.event.ns_per_event", tr.total("protocol.event") / c.events.max(1) as f64, "ns"),
        m(
            "wal.append.us_per_batch",
            median(&tr.durations("wal.append")).unwrap_or(0.0) / 1e3,
            "us",
        ),
        m("wal.bytes_per_rec", c.wal_bytes as f64 / recs, "B"),
        m("wal.fsync.ms_p50", ms(tr.durations("wal.fsync"), 0.5), "ms"),
        m("wal.fsync.ms_p99", ms(tr.durations("wal.fsync"), 0.99), "ms"),
        m("wal.scan.ms", c.wal_scan_ns / 1e6, "ms"),
        m("trace.residual_pct", (traced - layer_ns) / traced * 100.0, "%"),
        m("trace.overhead_pct", median(&overheads).unwrap_or(0.0), "%"),
    ])
}
