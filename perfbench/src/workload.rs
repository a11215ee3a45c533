//! The three workloads: their hierarchies, sizes, traffic shape and
//! the record streams generated from the seed.

use tiresias_core::TiresiasBuilder;
use tiresias_datagen::{
    ccd_location_spec, ccd_trouble_tree_with_mix, scd_location_spec, InjectedAnomaly, Workload,
    WorkloadConfig,
};
use tiresias_hierarchy::Tree;

/// Timeunit Δ in seconds (the paper's 15 minutes).
pub const TIMEUNIT: u64 = 900;
/// Sliding window ℓ in units.
pub const WINDOW: usize = 96;
/// Season length in units.
pub const SEASON: usize = 24;
/// Warm-up units before detection starts.
pub const WARMUP: usize = 8;
/// Heavy-hitter threshold θ.
pub const THETA: f64 = 10.0;
/// Relative and absolute anomaly thresholds (RT, DT).
pub const RT: f64 = 2.8;
/// See [`RT`].
pub const DT: f64 = 8.0;
/// Shards of the daemon and of the offline oracle (one per core of a
/// 2-core host).
pub const SHARDS: usize = 2;
/// Daemon `--grace-ms`: short, because time is compressed.
pub const GRACE_MS: u64 = 10;
/// Daemon `--tick-ms`.
pub const TICK_MS: u64 = 2;
/// Units each `QUERY` looks back over.
pub const QUERY_SPAN: u64 = 8;
/// NOACK v2 only (`scd_bulk`): DATA frames per `PING` fence.
pub const NOACK_FRAMES_PER_FENCE: usize = 2;
/// One injected anomaly span starts every `SPAN_EVERY` units.
const SPAN_EVERY: u64 = 2;
/// Extra records per unit of an injected span.
const SPAN_EXTRA: f64 = 60.0;

/// The detector configuration every workload runs with.
pub fn builder() -> TiresiasBuilder {
    TiresiasBuilder::new()
        .timeunit_secs(TIMEUNIT)
        .window_len(WINDOW)
        .season_length(SEASON)
        .warmup_units(WARMUP)
        .threshold(THETA)
        .sensitivity(RT, DT)
}

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop text `PUSH` with acks, a subscriber and per-unit
    /// queries over the CCD network-path hierarchy.
    CcdLive,
    /// Closed-loop NOACK v2 bulk replay over the sparse SCD hierarchy.
    ScdBulk,
    /// Closed-loop acked v2 frames into `--wal-sync every`, started
    /// from a crash image, over the CCD trouble hierarchy.
    CcdDurable,
}

impl Kind {
    /// Every workload: the two `BENCHMARK.json` lists, in its order,
    /// then `ccd_durable`, which runs but is not listed (README.md,
    /// "Steadiness").
    pub const ALL: [Kind; 3] = [Kind::CcdLive, Kind::ScdBulk, Kind::CcdDurable];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CcdLive => "ccd_live",
            Kind::ScdBulk => "scd_bulk",
            Kind::CcdDurable => "ccd_durable",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Sizes and traffic shape of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Hierarchy scale passed to the datagen spec.
    pub scale: f64,
    /// Mean records per unit (before the seasonal curve and noise).
    pub base_rate: f64,
    /// Data units per repetition; one sentinel record in the next unit
    /// closes the last of them.
    pub units: u64,
    /// Records per text `PUSH` batch or v2 DATA frame.
    pub batch: usize,
    /// A `QUERY` round trip at the first step of every
    /// `query_every`-th unit.
    pub query_every: u64,
    /// Open loop only: the fixed send rate in records per second.
    pub rate_rps: f64,
    /// `ccd_durable` only: leading units fed to the instance that is
    /// killed to leave the crash image.
    pub prep_units: u64,
    /// Depth of the nodes that carry injected spans.
    pub span_depth: usize,
}

impl Spec {
    /// The full-size workload used by the benchmark.
    pub fn full(kind: Kind) -> Spec {
        match kind {
            Kind::CcdLive => Spec {
                kind,
                scale: 1.0,
                base_rate: 1500.0,
                units: 40,
                batch: 40,
                query_every: 1,
                rate_rps: 20_000.0,
                prep_units: 0,
                span_depth: 2,
            },
            Kind::ScdBulk => Spec {
                kind,
                scale: 0.25,
                base_rate: 3000.0,
                units: 250,
                batch: 256,
                query_every: 2,
                rate_rps: 0.0,
                prep_units: 0,
                span_depth: 1,
            },
            Kind::CcdDurable => Spec {
                kind,
                scale: 1.0,
                base_rate: 1000.0,
                units: 180,
                batch: 100,
                query_every: 1,
                rate_rps: 0.0,
                prep_units: 60,
                span_depth: 2,
            },
        }
    }

    /// A few-second version of the workload for the self-test.
    pub fn tiny(kind: Kind) -> Spec {
        let mut s = Spec::full(kind);
        s.units = 24;
        s.base_rate = 300.0;
        s.rate_rps = 8_000.0;
        s.prep_units = 10;
        if kind == Kind::ScdBulk {
            s.scale = 0.02;
        }
        s
    }

    /// DATA frames per publisher step: a `PING` fence ends a group of
    /// [`NOACK_FRAMES_PER_FENCE`] NOACK frames; an acked frame or a
    /// text batch is a step of its own.
    pub fn frames_per_step(&self) -> usize {
        if self.binary() && !self.durable() {
            NOACK_FRAMES_PER_FENCE
        } else {
            1
        }
    }

    /// Whether the generator sends on a fixed schedule.
    pub fn open_loop(&self) -> bool {
        self.kind == Kind::CcdLive
    }

    /// Whether the daemon is fed binary v2 frames.
    pub fn binary(&self) -> bool {
        self.kind != Kind::CcdLive
    }

    /// Whether the daemon runs with `--data-dir … --wal-sync every` and
    /// every v2 DATA frame is acknowledged (else v2 goes NOACK with a
    /// `PING` fence per group).
    pub fn durable(&self) -> bool {
        self.kind == Kind::CcdDurable
    }
}

/// Measured properties of a generated workload.
#[derive(Debug, Clone, Default)]
pub struct Props {
    /// Nodes of the generating hierarchy.
    pub tree_nodes: usize,
    /// Leaves of the generating hierarchy.
    pub leaves: usize,
    /// Records in the stream, sentinel included.
    pub records: usize,
    /// Data units (the sentinel's unit excluded).
    pub units: u64,
    /// Injected anomaly spans.
    pub spans: usize,
    /// Share of (leaf, unit) pairs with at most one record.
    pub leaf_units_le1: f64,
    /// Among (leaf, unit) pairs with records, the share with exactly one.
    pub hit_leaf_units_single: f64,
}

/// A generated record stream.
#[derive(Debug, Clone)]
pub struct Generated {
    /// `(path, t_secs)` in send order: units `0..units`, each sorted by
    /// time, then one sentinel record in unit `units`.
    pub records: Vec<(String, u64)>,
    /// `unit_start[u]` is the index of unit `u`'s first record
    /// (`unit_start[units]` is the sentinel).
    pub unit_start: Vec<usize>,
    /// Measured properties.
    pub props: Props,
}

impl Generated {
    /// The unit of record `i`.
    pub fn unit_of(&self, i: usize) -> u64 {
        self.records[i].1 / TIMEUNIT
    }

    /// The unit closed last once every record is in: the one before
    /// the sentinel's.
    pub fn last_unit(&self) -> u64 {
        self.props.units - 1
    }
}

/// A deterministic 64-bit mixer (splitmix64) for the span placement.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn workload(spec: &Spec, seed: u64) -> Workload {
    match spec.kind {
        Kind::CcdLive => {
            let tree = ccd_location_spec(spec.scale).build().expect("static spec is valid");
            Workload::new(tree, WorkloadConfig::ccd(spec.base_rate), seed)
        }
        Kind::ScdBulk => {
            let tree = scd_location_spec(spec.scale).build().expect("static spec is valid");
            Workload::new(tree, WorkloadConfig::scd(spec.base_rate), seed)
        }
        Kind::CcdDurable => {
            let (tree, mix) = ccd_trouble_tree_with_mix(spec.scale);
            Workload::with_popularity(tree, WorkloadConfig::ccd(spec.base_rate), &mix, seed)
        }
    }
}

/// Generates the workload's record stream from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Generated {
    let mut w = workload(spec, seed);
    // Injected spans: one every `SPAN_EVERY` units after warm-up, at a
    // seeded node of `span_depth`, lasting one or two units.
    let candidates: Vec<_> = w.tree().nodes_at_depth(spec.span_depth).to_vec();
    let mut mix = Mix(seed ^ 0x5ba2_7e11);
    let mut start = WARMUP as u64 + 2;
    let mut spans = 0;
    while start + 1 < spec.units {
        let node = candidates[(mix.next() % candidates.len() as u64) as usize];
        let len = 1 + mix.next() % 2;
        w.inject(InjectedAnomaly::new(node, start, len, SPAN_EXTRA));
        spans += 1;
        start += SPAN_EVERY;
    }
    let tree: Tree = w.tree().clone();
    let mut label: Vec<Option<String>> = vec![None; tree.len()];
    let mut counts = vec![0u32; tree.len()];
    let (mut pairs_ge2, mut pairs_eq1) = (0u64, 0u64);
    let mut records = Vec::new();
    let mut unit_start = Vec::with_capacity(spec.units as usize + 1);
    for u in 0..spec.units {
        unit_start.push(records.len());
        let recs = w.generate_records(u);
        let mut touched = Vec::new();
        for (node, t) in recs {
            let slot = node.index();
            if counts[slot] == 0 {
                touched.push(slot);
            }
            counts[slot] += 1;
            let path = label[slot].get_or_insert_with(|| tree.path_of(node).to_string());
            records.push((path.clone(), t));
        }
        for slot in touched {
            match counts[slot] {
                1 => pairs_eq1 += 1,
                _ => pairs_ge2 += 1,
            }
            counts[slot] = 0;
        }
    }
    unit_start.push(records.len());
    // The sentinel: one record at the start of the next unit, so the
    // data watermark closes every data unit.
    let first_leaf = records.first().map_or_else(|| "sentinel".to_string(), |r| r.0.clone());
    records.push((first_leaf, spec.units * TIMEUNIT));
    let leaves = tree.leaf_count();
    let pairs = (leaves as u64 * spec.units).max(1);
    let props = Props {
        tree_nodes: tree.len(),
        leaves,
        records: records.len(),
        units: spec.units,
        spans,
        leaf_units_le1: 1.0 - pairs_ge2 as f64 / pairs as f64,
        hit_leaf_units_single: pairs_eq1 as f64 / (pairs_eq1 + pairs_ge2).max(1) as f64,
    };
    Generated { records, unit_start, props }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded_and_sentinel_closes_the_last_unit() {
        let spec = Spec::tiny(Kind::CcdDurable);
        let a = generate(&spec, 7);
        let b = generate(&spec, 7);
        assert_eq!(a.records, b.records);
        assert_ne!(a.records, generate(&spec, 8).records);
        assert_eq!(a.unit_start.len() as u64, spec.units + 1);
        assert_eq!(a.unit_of(a.records.len() - 1), spec.units);
        assert!(a.records.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(a.props.spans > 0);
    }
}
