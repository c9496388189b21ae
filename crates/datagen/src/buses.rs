//! The bus fleet: lines, routes, shifts and probe emissions.
//!
//! 942 buses run on a set of lines whose routes are shortest paths between
//! periphery terminals (passing near the centre, as Dublin's radial lines
//! do). A bus emits one probe record every 20–30 seconds while its shift is
//! active, carrying position, accumulated schedule delay and a congestion
//! flag. Honest buses report the ground-truth congestion at their current
//! location; *faulty* buses report the inverted flag — the persistent
//! mis-reporting the `noisy(Bus)` rule-sets (4)/(5) of the paper exist to
//! detect.

use crate::congestion::CongestionField;
use crate::error::DatagenError;
use crate::network::{distance_m, StreetNetwork};
use crate::stream::BusRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nominal (free-flow) bus speed in metres/second.
pub(crate) const NOMINAL_SPEED_MS: f64 = 9.0;

/// A bus line: a route through the street network.
#[derive(Debug, Clone, PartialEq)]
pub struct BusLine {
    /// Line id.
    pub id: u32,
    /// Junction sequence of the route.
    pub route: Vec<usize>,
    /// Cumulative distance (m) along the route, same length as `route`.
    pub cum_m: Vec<f64>,
}

impl BusLine {
    /// Total route length in metres.
    pub(crate) fn length_m(&self) -> f64 {
        *self.cum_m.last().unwrap_or(&0.0)
    }

    /// Position (lon, lat) and nearest route junction at distance `d` along
    /// the route (clamped to the ends).
    pub(crate) fn position_at(&self, network: &StreetNetwork, d: f64) -> ((f64, f64), usize) {
        let d = d.clamp(0.0, self.length_m());
        // Find the segment containing d.
        let i = match self.cum_m.partition_point(|&c| c <= d) {
            0 => 0,
            p => p - 1,
        };
        if i + 1 >= self.route.len() {
            let v = self.route[self.route.len() - 1];
            return (network.coords(v), v);
        }
        let seg_start = self.cum_m[i];
        let seg_len = self.cum_m[i + 1] - seg_start;
        let frac = if seg_len > 0.0 { (d - seg_start) / seg_len } else { 0.0 };
        let (ax, ay) = network.coords(self.route[i]);
        let (bx, by) = network.coords(self.route[i + 1]);
        let pos = (ax + (bx - ax) * frac, ay + (by - ay) * frac);
        let nearest = if frac < 0.5 { self.route[i] } else { self.route[i + 1] };
        (pos, nearest)
    }
}

/// One vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct Bus {
    /// Vehicle id.
    pub id: u32,
    /// Line the bus serves.
    pub line: u32,
    /// Operator id.
    pub operator: u32,
    /// Whether this bus mis-reports congestion (inverted flag).
    pub faulty: bool,
    /// Emission period in seconds (uniform 20–30 per the paper).
    pub period_s: i64,
    /// Active shift `[start, start + len)`, wrapping around the scenario
    /// end so the number of concurrently active buses is stationary.
    pub shift: (i64, i64),
    /// Starting distance along the route (m).
    pub start_offset_m: f64,
    /// Initial direction: +1 forward, −1 backward.
    pub initial_direction: i8,
}

impl Bus {
    /// The active intervals `[from, to)` of this bus within a scenario of
    /// the given duration, after unwrapping a shift that crosses the end.
    pub(crate) fn active_segments(&self, duration: i64) -> Vec<(i64, i64)> {
        let (start, end) = self.shift;
        if end <= duration {
            vec![(start, end.min(duration))]
        } else {
            let mut v = vec![(start, duration)];
            let tail = (end - duration).min(start);
            if tail > 0 {
                v.push((0, tail));
            }
            v
        }
    }
}

/// The generated fleet.
#[derive(Debug, Clone)]
pub struct BusFleet {
    /// The lines.
    pub lines: Vec<BusLine>,
    /// The vehicles.
    pub buses: Vec<Bus>,
}

/// Fleet generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Total vehicles (the paper's dataset has 942).
    pub n_buses: usize,
    /// Number of lines routes are generated for.
    pub n_lines: usize,
    /// Fraction of buses whose congestion flag is inverted.
    pub faulty_fraction: f64,
    /// Fraction of the scenario each bus is actively emitting (shifts are
    /// placed uniformly; ~0.5 reproduces the paper's aggregate SDE rate).
    pub active_fraction: f64,
    /// Scenario duration in seconds.
    pub duration: i64,
    /// Emission period range (seconds).
    pub period_range: (i64, i64),
}

impl FleetConfig {
    fn validate(&self) -> Result<(), DatagenError> {
        if self.n_buses == 0 || self.n_lines == 0 {
            return Err(DatagenError::InvalidConfig {
                name: "n_buses/n_lines",
                detail: "must be positive".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.faulty_fraction) {
            return Err(DatagenError::InvalidConfig {
                name: "faulty_fraction",
                detail: format!("must be in [0,1], got {}", self.faulty_fraction),
            });
        }
        if !(0.0 < self.active_fraction && self.active_fraction <= 1.0) {
            return Err(DatagenError::InvalidConfig {
                name: "active_fraction",
                detail: format!("must be in (0,1], got {}", self.active_fraction),
            });
        }
        if self.period_range.0 <= 0 || self.period_range.1 < self.period_range.0 {
            return Err(DatagenError::InvalidConfig {
                name: "period_range",
                detail: format!("invalid range {:?}", self.period_range),
            });
        }
        if self.duration <= 0 {
            return Err(DatagenError::InvalidConfig {
                name: "duration",
                detail: "must be positive".into(),
            });
        }
        Ok(())
    }
}

impl BusFleet {
    /// Generates lines and vehicles, deterministically under `seed`.
    pub(crate) fn generate(
        network: &StreetNetwork,
        config: &FleetConfig,
        seed: u64,
    ) -> Result<BusFleet, DatagenError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb005_b005);

        // Routes: shortest paths between far-apart junction pairs.
        let mut lines = Vec::with_capacity(config.n_lines);
        let mut attempts = 0;
        while lines.len() < config.n_lines {
            attempts += 1;
            if attempts > config.n_lines * 50 {
                return Err(DatagenError::DegenerateNetwork {
                    detail: "could not find enough long routes".into(),
                });
            }
            let a = rng.random_range(0..network.len());
            let b = rng.random_range(0..network.len());
            if a == b {
                continue;
            }
            // Terminals should be reasonably far apart (quarter of the bbox
            // diagonal) so routes cross the city.
            let (x0, y0, x1, y1) = network.bbox();
            let diag = distance_m((x0, y0), (x1, y1));
            if distance_m(network.coords(a), network.coords(b)) < diag / 4.0 {
                continue;
            }
            let Some(route) = network.shortest_path(a, b) else { continue };
            if route.len() < 5 {
                continue;
            }
            let mut cum = Vec::with_capacity(route.len());
            let mut acc = 0.0;
            cum.push(0.0);
            for w in route.windows(2) {
                acc += distance_m(network.coords(w[0]), network.coords(w[1]));
                cum.push(acc);
            }
            lines.push(BusLine { id: lines.len() as u32, route, cum_m: cum });
        }

        // Vehicles.
        let shift_len = ((config.duration as f64) * config.active_fraction) as i64;
        let buses = (0..config.n_buses)
            .map(|i| {
                let line = &lines[i % lines.len()];
                // Uniform circular phase: shifts wrap around the scenario
                // end, keeping the active fleet size stationary over time.
                let start = rng.random_range(0..config.duration.max(1));
                Bus {
                    id: 33_000 + i as u32, // id space echoing the paper's example 33009
                    line: line.id,
                    operator: (i % 4) as u32,
                    faulty: rng.random::<f64>() < config.faulty_fraction,
                    period_s: rng.random_range(config.period_range.0..=config.period_range.1),
                    shift: (start, start + shift_len),
                    start_offset_m: rng.random_range(0.0..line.length_m().max(1.0)),
                    initial_direction: if rng.random::<bool>() { 1 } else { -1 },
                }
            })
            .collect();

        Ok(BusFleet { lines, buses })
    }

    /// Simulates every bus and returns all probe records of the scenario,
    /// sorted by time.
    pub(crate) fn emit_all(
        &self,
        network: &StreetNetwork,
        field: &CongestionField,
        duration: i64,
        seed: u64,
    ) -> Vec<(i64, BusRecord)> {
        let mut out = Vec::new();
        self.emit_into(network, field, duration, seed, &mut out);
        out
    }

    /// [`emit_all`](BusFleet::emit_all), appending into a caller-owned
    /// buffer — the batched ingest form. `out`'s new tail (the whole buffer,
    /// when it starts empty) ends up sorted by time.
    pub(crate) fn emit_into(
        &self,
        network: &StreetNetwork,
        field: &CongestionField,
        duration: i64,
        seed: u64,
        out: &mut Vec<(i64, BusRecord)>,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe317_0000);
        let start = out.len();
        for bus in &self.buses {
            let line = &self.lines[bus.line as usize];
            let len = line.length_m().max(1.0);
            for (seg_start, seg_end) in bus.active_segments(duration) {
                let mut pos = bus.start_offset_m.min(len);
                let mut dir = bus.initial_direction as f64;
                let mut delay_s = 0.0f64;
                let mut t = seg_start + rng.random_range(0..bus.period_s.max(1));
                let mut prev_t = t;
                while t < seg_end.min(duration) {
                    let dt = (t - prev_t) as f64;
                    // Advance along the route at congestion-scaled speed.
                    let (_, here) = line.position_at(network, pos);
                    let speed = NOMINAL_SPEED_MS * field.speed_factor(here, t).max(0.1);
                    pos += dir * speed * dt;
                    // Bounce at the terminals (direction flip).
                    if pos >= len {
                        pos = len - (pos - len).min(len);
                        dir = -1.0;
                    } else if pos <= 0.0 {
                        pos = (-pos).min(len);
                        dir = 1.0;
                    }
                    delay_s += dt * (1.0 - speed / NOMINAL_SPEED_MS);

                    let ((lon, lat), junction) = line.position_at(network, pos);
                    let truth = field.is_congested(junction, t);
                    let congestion = if bus.faulty { !truth } else { truth };
                    out.push((
                        t,
                        BusRecord {
                            bus: bus.id,
                            line: bus.line,
                            operator: bus.operator,
                            delay_s: delay_s.round() as i64,
                            lon,
                            lat,
                            direction: if dir > 0.0 { 0 } else { 1 },
                            congestion,
                        },
                    ));
                    prev_t = t;
                    t += bus.period_s;
                }
            }
        }
        out[start..].sort_by_key(|&(t, _)| t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionConfig;
    use crate::network::NetworkConfig;

    fn net() -> StreetNetwork {
        StreetNetwork::generate(
            &NetworkConfig { nx: 12, ny: 10, ..NetworkConfig::dublin_default() },
            4,
        )
        .unwrap()
    }

    fn config(duration: i64) -> FleetConfig {
        FleetConfig {
            n_buses: 30,
            n_lines: 6,
            faulty_fraction: 0.1,
            active_fraction: 0.8,
            duration,
            period_range: (20, 30),
        }
    }

    #[test]
    fn generates_routes_and_vehicles() {
        let n = net();
        let fleet = BusFleet::generate(&n, &config(3600), 1).unwrap();
        assert_eq!(fleet.lines.len(), 6);
        assert_eq!(fleet.buses.len(), 30);
        for line in &fleet.lines {
            assert!(line.route.len() >= 5);
            assert_eq!(line.route.len(), line.cum_m.len());
            assert!(line.length_m() > 0.0);
            // cum is nondecreasing
            assert!(line.cum_m.windows(2).all(|w| w[1] >= w[0]));
        }
        for bus in &fleet.buses {
            assert!((20..=30).contains(&bus.period_s));
            assert!(bus.shift.0 < bus.shift.1);
        }
    }

    #[test]
    fn fleet_is_deterministic() {
        let n = net();
        let a = BusFleet::generate(&n, &config(3600), 2).unwrap();
        let b = BusFleet::generate(&n, &config(3600), 2).unwrap();
        assert_eq!(a.buses, b.buses);
    }

    #[test]
    fn validates_config() {
        let n = net();
        let mut c = config(3600);
        c.n_buses = 0;
        assert!(BusFleet::generate(&n, &c, 1).is_err());
        let mut c = config(3600);
        c.faulty_fraction = 2.0;
        assert!(BusFleet::generate(&n, &c, 1).is_err());
        let mut c = config(3600);
        c.period_range = (30, 20);
        assert!(BusFleet::generate(&n, &c, 1).is_err());
        let mut c = config(0);
        c.duration = 0;
        assert!(BusFleet::generate(&n, &c, 1).is_err());
    }

    #[test]
    fn position_interpolates_along_route() {
        let n = net();
        let fleet = BusFleet::generate(&n, &config(3600), 3).unwrap();
        let line = &fleet.lines[0];
        let (start_pos, _) = line.position_at(&n, 0.0);
        assert_eq!(start_pos, n.coords(line.route[0]));
        let (end_pos, end_j) = line.position_at(&n, line.length_m() + 100.0);
        assert_eq!(end_pos, n.coords(*line.route.last().unwrap()));
        assert_eq!(end_j, *line.route.last().unwrap());
        // Midpoint lies inside the bbox hull of its segment.
        let (mid, _) = line.position_at(&n, line.length_m() / 2.0);
        let (x0, y0, x1, y1) = n.bbox();
        assert!(mid.0 >= x0 - 0.05 && mid.0 <= x1 + 0.05);
        assert!(mid.1 >= y0 - 0.05 && mid.1 <= y1 + 0.05);
    }

    #[test]
    fn emissions_respect_shift_and_period() {
        let n = net();
        let field = CongestionField::generate(&n, CongestionConfig::default_for(3600), 5);
        let fleet = BusFleet::generate(&n, &config(3600), 5).unwrap();
        let records = fleet.emit_all(&n, &field, 3600, 5);
        assert!(!records.is_empty());
        // sorted by time
        assert!(records.windows(2).all(|w| w[0].0 <= w[1].0));
        // per bus: every emission falls into an active segment, and within
        // a segment consecutive emissions are exactly one period apart
        for bus in &fleet.buses {
            let segments = bus.active_segments(3600);
            let times: Vec<i64> =
                records.iter().filter(|(_, r)| r.bus == bus.id).map(|&(t, _)| t).collect();
            for &t in &times {
                assert!(
                    segments.iter().any(|&(a, b)| t >= a && t < b),
                    "t={t} outside segments {segments:?}"
                );
            }
            for w in times.windows(2) {
                let same_segment = segments.iter().any(|&(a, b)| w[0] >= a && w[1] < b);
                if same_segment {
                    assert_eq!(w[1] - w[0], bus.period_s);
                }
            }
        }
    }

    #[test]
    fn faulty_buses_invert_reports() {
        let n = net();
        let field = CongestionField::generate(&n, CongestionConfig::default_for(7200), 6);
        let mut c = config(7200);
        c.faulty_fraction = 0.5;
        let fleet = BusFleet::generate(&n, &c, 6).unwrap();
        let records = fleet.emit_all(&n, &field, 7200, 6);
        let faulty_ids: Vec<u32> = fleet.buses.iter().filter(|b| b.faulty).map(|b| b.id).collect();
        assert!(!faulty_ids.is_empty());
        // For a faulty bus, the reported flag must differ from the ground
        // truth at its reported location; for an honest one it must match.
        for (t, r) in &records {
            let j = n.nearest_junction(r.lon, r.lat).unwrap();
            let truth = field.is_congested(j, *t);
            if faulty_ids.contains(&r.bus) {
                assert_eq!(r.congestion, !truth, "faulty bus inverts");
            }
        }
    }

    #[test]
    fn delays_accumulate_under_congestion() {
        let n = net();
        // A heavily congested world: base level near jam everywhere.
        let cfg = CongestionConfig {
            base: 0.9,
            rush_amplitude: 0.0,
            n_incidents: 0,
            ..CongestionConfig::default_for(3600)
        };
        let field = CongestionField::generate(&n, cfg, 7);
        let fleet = BusFleet::generate(&n, &config(3600), 7).unwrap();
        let records = fleet.emit_all(&n, &field, 3600, 7);
        let max_delay = records.iter().map(|(_, r)| r.delay_s).max().unwrap();
        assert!(max_delay > 300, "delays build up in jammed traffic, got {max_delay}");
    }
}
