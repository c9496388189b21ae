//! SDE record types: the wire format of the two Dublin feeds.
//!
//! A bus record corresponds to one row of the bus probe feed — it carries
//! both the `move(Bus, Line, Operator, Delay)` event and the
//! `gps(Bus, Lon, Lat, Direction, Congestion)` fluent observation of
//! formalisation (1). A SCATS record corresponds to one
//! `traffic(Int, A, S, D, F)` reading. Records carry an occurrence time and
//! an arrival time (mediators delay delivery).

use crate::regions::Region;

/// One bus probe emission.
#[derive(Debug, Clone, PartialEq)]
pub struct BusRecord {
    /// Vehicle id.
    pub bus: u32,
    /// Line the bus is running on.
    pub line: u32,
    /// Operator id.
    pub operator: u32,
    /// Schedule delay in seconds (positive = late).
    pub delay_s: i64,
    /// Longitude.
    pub lon: f64,
    /// Latitude.
    pub lat: f64,
    /// Direction on the line (0 or 1).
    pub direction: u8,
    /// Congestion flag as reported by the vehicle.
    pub congestion: bool,
}

impl BusRecord {
    /// The region the bus currently traverses.
    pub(crate) fn region(&self) -> Region {
        Region::of(self.lon, self.lat)
    }
}

/// One SCATS vehicle-detector reading.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatsRecord {
    /// Intersection id.
    pub intersection: u32,
    /// Approach (lane direction into the intersection).
    pub approach: u8,
    /// Sensor id.
    pub sensor: u32,
    /// Measured density (vehicles/km).
    pub density: f64,
    /// Measured flow (vehicles/hour).
    pub flow: f64,
    /// Sensor longitude.
    pub lon: f64,
    /// Sensor latitude.
    pub lat: f64,
}

impl ScatsRecord {
    /// The region of the sensor.
    pub fn region(&self) -> Region {
        Region::of(self.lon, self.lat)
    }
}

/// The payload of an SDE.
#[derive(Debug, Clone, PartialEq)]
pub enum SdeBody {
    /// A bus probe record.
    Bus(BusRecord),
    /// A SCATS reading.
    Scats(ScatsRecord),
}

/// One time-stamped SDE, with the arrival time assigned by the mediator
/// layer (`arrival >= time`).
#[derive(Debug, Clone, PartialEq)]
pub struct Sde {
    /// Occurrence time (seconds).
    pub time: i64,
    /// Arrival time at the system (seconds).
    pub arrival: i64,
    /// The record.
    pub body: SdeBody,
}

impl Sde {
    /// A punctual SDE (arrival == occurrence).
    pub fn punctual(time: i64, body: SdeBody) -> Sde {
        Sde { time, arrival: time, body }
    }

    /// The region the SDE belongs to (bus position / sensor location).
    pub fn region(&self) -> Region {
        match &self.body {
            SdeBody::Bus(b) => b.region(),
            SdeBody::Scats(s) => s.region(),
        }
    }

    /// Whether this is a bus record.
    pub fn is_bus(&self) -> bool {
        matches!(self.body, SdeBody::Bus(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::CITY_CENTRE;

    #[test]
    fn regions_delegate_to_coordinates() {
        let bus = BusRecord {
            bus: 1,
            line: 10,
            operator: 7,
            delay_s: 120,
            lon: CITY_CENTRE.0,
            lat: CITY_CENTRE.1,
            direction: 0,
            congestion: false,
        };
        assert_eq!(bus.region(), Region::Central);
        let sde = Sde::punctual(100, SdeBody::Bus(bus));
        assert_eq!(sde.region(), Region::Central);
        assert!(sde.is_bus());
        assert_eq!(sde.arrival, 100);
    }

    #[test]
    fn scats_region() {
        let s = ScatsRecord {
            intersection: 1,
            approach: 0,
            sensor: 5,
            density: 80.0,
            flow: 1500.0,
            lon: CITY_CENTRE.0,
            lat: CITY_CENTRE.1 + 0.06,
        };
        assert_eq!(s.region(), Region::North);
        assert!(!Sde::punctual(0, SdeBody::Scats(s)).is_bus());
    }
}
