//! The output check: an offline `ShardedTiresias` replay of the same
//! records with the same configuration and shard count, compared with
//! what the daemon delivered as `events_to_csv` text.

use tiresias_core::{events_to_csv, AnomalyEvent, AnomalyKind, CoreError};
use tiresias_hierarchy::Tree;

use crate::workload::{builder, SHARDS};

/// What the offline replay found.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Every event of the closed units, in `(unit, path)` order.
    pub events: Vec<AnomalyEvent>,
    /// Heavy hitters live at the end of the replay.
    pub heavy_hitters: usize,
}

impl Expected {
    /// Events of units `≥ from_unit`.
    pub fn from_unit(&self, from_unit: u64) -> usize {
        self.events.iter().filter(|e| e.unit >= from_unit).count()
    }
}

/// Replays `records` (in order, sentinel last) through the offline
/// sharded engine. The sentinel's arrival closes every earlier unit.
pub fn replay(records: &[(String, u64)]) -> Result<Expected, CoreError> {
    let mut engine = builder().shards(SHARDS).build_sharded()?;
    for chunk in records.chunks(8192) {
        engine.push_batch(chunk)?;
    }
    Ok(Expected {
        events: engine.anomalies().to_vec(),
        heavy_hitters: engine.heavy_hitter_paths().len(),
    })
}

/// Parses the body of an `EVENT key=value … path=<path>` frame (the
/// `EVENT ` prefix stripped). The node id is a placeholder: the CSV
/// rendering does not carry it.
pub fn parse_event(frame: &str) -> Option<AnomalyEvent> {
    let (front, path) = frame.split_once(" path=")?;
    let (mut unit, mut time, mut level, mut kind, mut actual, mut forecast) =
        (None, None, None, None, None, None);
    for pair in front.split_whitespace() {
        let (key, val) = pair.split_once('=')?;
        match key {
            "unit" => unit = val.parse::<u64>().ok(),
            "time" => time = val.parse::<u64>().ok(),
            "level" => level = val.parse::<usize>().ok(),
            "kind" => kind = val.parse::<AnomalyKind>().ok(),
            "actual" => actual = val.parse::<f64>().ok(),
            "forecast" => forecast = val.parse::<f64>().ok(),
            _ => {}
        }
    }
    Some(AnomalyEvent {
        node: Tree::new("All").root(),
        path: path.parse().ok()?,
        level: level?,
        unit: unit?,
        time_secs: time?,
        actual: actual?,
        forecast: forecast?,
        kind: kind?,
    })
}

/// Requires `delivered` to equal `expected` byte for byte as
/// `events_to_csv` output; the error names the first differing row.
pub fn check(delivered: &[AnomalyEvent], expected: &[AnomalyEvent]) -> Result<(), String> {
    let got = events_to_csv(delivered);
    let want = events_to_csv(expected);
    if got == want {
        return Ok(());
    }
    let row = got.lines().zip(want.lines()).position(|(a, b)| a != b);
    let (g, w) = match row {
        Some(i) => (
            got.lines().nth(i).unwrap_or("").to_string(),
            want.lines().nth(i).unwrap_or("").to_string(),
        ),
        None => (format!("{} rows", delivered.len()), format!("{} rows", expected.len())),
    };
    Err(format!("delivered events differ from the offline replay: got `{g}`, want `{w}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_frames_round_trip() {
        let line = "unit=9 time=8100 level=2 kind=spike actual=80 forecast=8.25 path=TV/No Service";
        let e = parse_event(line).expect("valid frame");
        assert_eq!((e.unit, e.level, e.actual), (9, 2, 80.0));
        assert_eq!(e.path.to_string(), "TV/No Service");
        assert!(check(std::slice::from_ref(&e), std::slice::from_ref(&e)).is_ok());
        assert!(check(&[], &[e]).is_err());
        assert!(parse_event("unit=1 path").is_none());
    }
}
