//! SDE records as Streams data items.
//!
//! The Streams framework represents stream elements as key/value sets; the
//! input handling processes of §3 forward "all SDEs emitted by buses" as one
//! stream and the SCATS SDEs as four per-region streams. These conversions
//! define the item schema shared by those processes.

use insight_datagen::scenario::Scenario;
use insight_datagen::stream::{BusRecord, ScatsRecord, Sde, SdeBody};
use insight_streams::intern::Key;
use insight_streams::item::{DataItem, Value};

/// Item key holding the SDE kind (`"bus"` / `"scats"`).
pub const KIND: &str = "kind";

/// Converts a scenario SDE into a data item.
///
/// The pairs are listed in key order, so the item is built in place with
/// each attribute appended, and costs one allocation. `name()` is a static
/// string short enough to stay inline in the value, so region tagging does
/// not allocate.
pub fn sde_to_item(sde: &Sde) -> DataItem {
    let time = Value::Int(sde.time);
    let arrival = Value::Int(sde.arrival);
    let region = Value::from(sde.region().name());
    match &sde.body {
        SdeBody::Bus(b) => item_of([
            ("arrival", arrival),
            ("bus", Value::Int(b.bus.into())),
            ("congestion", Value::Bool(b.congestion)),
            ("delay", Value::Int(b.delay_s)),
            ("direction", Value::Int(b.direction.into())),
            (KIND, Value::from("bus")),
            ("lat", Value::Float(b.lat)),
            ("line", Value::Int(b.line.into())),
            ("lon", Value::Float(b.lon)),
            ("operator", Value::Int(b.operator.into())),
            ("region", region),
            ("time", time),
        ]),
        SdeBody::Scats(s) => item_of([
            ("approach", Value::Int(s.approach.into())),
            ("arrival", arrival),
            ("density", Value::Float(s.density)),
            ("flow", Value::Float(s.flow)),
            ("intersection", Value::Int(s.intersection.into())),
            (KIND, Value::from("scats")),
            ("lat", Value::Float(s.lat)),
            ("lon", Value::Float(s.lon)),
            ("region", region),
            ("sensor", Value::Int(s.sensor.into())),
            ("time", time),
        ]),
    }
}

/// The item holding `pairs`; listed in key order, each one appends.
fn item_of<const N: usize>(pairs: [(&str, Value); N]) -> DataItem {
    pairs.into_iter().map(|(key, value)| (Key::new(key), value)).collect()
}

/// The pre-built per-feed item vectors of the §3 input-handling processes:
/// one bus stream plus four per-region SCATS streams.
pub struct FeedItems {
    /// Items of every bus SDE, in arrival order.
    pub bus: Vec<DataItem>,
    /// Items of each region's SCATS SDEs, indexed by
    /// [`insight_datagen::regions::Region::index`], each in arrival order.
    pub scats: [Vec<DataItem>; 4],
}

/// Builds every feed's items in one pass over the scenario trace (the old
/// per-feed construction filtered the full trace once per feed — five
/// passes and five region recomputations per SDE).
pub fn feed_items(scenario: &Scenario) -> FeedItems {
    let mut bus = Vec::new();
    let mut scats: [Vec<DataItem>; 4] = Default::default();
    for sde in &scenario.sdes {
        let item = sde_to_item(sde);
        match &sde.body {
            SdeBody::Bus(_) => bus.push(item),
            SdeBody::Scats(s) => scats[s.region().index()].push(item),
        }
    }
    FeedItems { bus, scats }
}

/// The attributes either SDE schema reads, gathered in one pass.
#[derive(Default)]
struct SdeFields<'a> {
    time: Option<&'a Value>,
    arrival: Option<&'a Value>,
    kind: Option<&'a Value>,
    bus: Option<&'a Value>,
    line: Option<&'a Value>,
    operator: Option<&'a Value>,
    delay: Option<&'a Value>,
    direction: Option<&'a Value>,
    congestion: Option<&'a Value>,
    intersection: Option<&'a Value>,
    approach: Option<&'a Value>,
    sensor: Option<&'a Value>,
    density: Option<&'a Value>,
    flow: Option<&'a Value>,
    lon: Option<&'a Value>,
    lat: Option<&'a Value>,
}

/// Parses a data item back into an SDE; `None` when the schema is violated:
/// an attribute the SDE's kind needs is missing or has another type (an
/// integer is read as a float where a float is needed). Other attributes are
/// ignored. The item is read in one pass over its attributes, not by one
/// lookup per field.
pub fn item_to_sde(item: &DataItem) -> Option<Sde> {
    let mut f = SdeFields::default();
    for (key, value) in item.iter() {
        let slot = match key {
            "time" => &mut f.time,
            "arrival" => &mut f.arrival,
            KIND => &mut f.kind,
            "bus" => &mut f.bus,
            "line" => &mut f.line,
            "operator" => &mut f.operator,
            "delay" => &mut f.delay,
            "direction" => &mut f.direction,
            "congestion" => &mut f.congestion,
            "intersection" => &mut f.intersection,
            "approach" => &mut f.approach,
            "sensor" => &mut f.sensor,
            "density" => &mut f.density,
            "flow" => &mut f.flow,
            "lon" => &mut f.lon,
            "lat" => &mut f.lat,
            _ => continue,
        };
        *slot = Some(value);
    }
    let int = |v: Option<&Value>| v.and_then(Value::as_i64);
    let float = |v: Option<&Value>| v.and_then(Value::as_f64);
    let time = int(f.time)?;
    let arrival = int(f.arrival)?;
    let body = match f.kind.and_then(Value::as_str)? {
        "bus" => SdeBody::Bus(BusRecord {
            bus: int(f.bus)? as u32,
            line: int(f.line)? as u32,
            operator: int(f.operator)? as u32,
            delay_s: int(f.delay)?,
            lon: float(f.lon)?,
            lat: float(f.lat)?,
            direction: int(f.direction)? as u8,
            congestion: f.congestion.and_then(Value::as_bool)?,
        }),
        "scats" => SdeBody::Scats(ScatsRecord {
            intersection: int(f.intersection)? as u32,
            approach: int(f.approach)? as u8,
            sensor: int(f.sensor)? as u32,
            density: float(f.density)?,
            flow: float(f.flow)?,
            lon: float(f.lon)?,
            lat: float(f.lat)?,
        }),
        _ => return None,
    };
    Some(Sde { time, arrival, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus_sde() -> Sde {
        Sde {
            time: 100,
            arrival: 120,
            body: SdeBody::Bus(BusRecord {
                bus: 33009,
                line: 10,
                operator: 7,
                delay_s: 400,
                lon: -6.26,
                lat: 53.35,
                direction: 1,
                congestion: true,
            }),
        }
    }

    fn scats_sde() -> Sde {
        Sde {
            time: 360,
            arrival: 360,
            body: SdeBody::Scats(ScatsRecord {
                intersection: 4,
                approach: 1,
                sensor: 12,
                density: 90.5,
                flow: 1100.0,
                lon: -6.27,
                lat: 53.34,
            }),
        }
    }

    #[test]
    fn bus_roundtrip() {
        let item = sde_to_item(&bus_sde());
        assert_eq!(item.get_str(KIND), Some("bus"));
        assert_eq!(item.get_str("region"), Some("central"));
        assert_eq!(item_to_sde(&item).unwrap(), bus_sde());
    }

    #[test]
    fn scats_roundtrip() {
        let item = sde_to_item(&scats_sde());
        assert_eq!(item.get_str(KIND), Some("scats"));
        assert_eq!(item_to_sde(&item).unwrap(), scats_sde());
    }

    #[test]
    fn malformed_items_rejected() {
        assert!(item_to_sde(&DataItem::new()).is_none());
        let mut item = sde_to_item(&bus_sde());
        item.set(KIND, "unknown");
        assert!(item_to_sde(&item).is_none());
        let mut item = sde_to_item(&bus_sde());
        item.remove("lon");
        assert!(item_to_sde(&item).is_none());
    }
}
