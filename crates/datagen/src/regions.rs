//! The four SCATS regions of Dublin.
//!
//! "In Dublin SCATS sensors are placed into the intersections of four
//! geographical areas: central city, north city, west city and south city"
//! (§7.1). Complex event recognition is distributed along these regions —
//! one engine per region — so the assignment function lives here, shared by
//! the data generator and the recognisers.

use std::fmt;

/// Dublin city-centre reference point (O'Connell Bridge, roughly).
pub(crate) const CITY_CENTRE: (f64, f64) = (-6.2603, 53.3478);

/// One of the four SCATS regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Central city (within the inner radius).
    Central,
    /// North city.
    North,
    /// West city.
    West,
    /// South city.
    South,
}

impl Region {
    /// All regions in a fixed order.
    pub const ALL: [Region; 4] = [Region::Central, Region::North, Region::West, Region::South];

    /// Region index (stable, 0..4).
    pub fn index(&self) -> usize {
        match self {
            Region::Central => 0,
            Region::North => 1,
            Region::West => 2,
            Region::South => 3,
        }
    }

    /// Assigns a coordinate to its region: inside `central_radius_deg` of
    /// the centre ⇒ Central; otherwise by bearing — north of the centre ⇒
    /// North, south-west ⇒ West, south-east ⇒ South.
    pub fn of(lon: f64, lat: f64) -> Region {
        Region::of_with_centre(lon, lat, CITY_CENTRE, 0.018)
    }

    /// Region assignment with an explicit centre and central radius
    /// (degrees, approximate).
    pub(crate) fn of_with_centre(
        lon: f64,
        lat: f64,
        centre: (f64, f64),
        central_radius_deg: f64,
    ) -> Region {
        let dx = (lon - centre.0) * centre.1.to_radians().cos();
        let dy = lat - centre.1;
        if (dx * dx + dy * dy).sqrt() <= central_radius_deg {
            return Region::Central;
        }
        if dy > 0.0 {
            Region::North
        } else if dx < 0.0 {
            Region::West
        } else {
            Region::South
        }
    }
}

impl Region {
    /// The region's stable lowercase name, as used for stream routing keys.
    pub fn name(self) -> &'static str {
        match self {
            Region::Central => "central",
            Region::North => "north",
            Region::West => "west",
            Region::South => "south",
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centre_is_central() {
        assert_eq!(Region::of(CITY_CENTRE.0, CITY_CENTRE.1), Region::Central);
        assert_eq!(Region::of(CITY_CENTRE.0 + 0.005, CITY_CENTRE.1 - 0.005), Region::Central);
    }

    #[test]
    fn bearings_assign_outer_regions() {
        assert_eq!(Region::of(CITY_CENTRE.0, CITY_CENTRE.1 + 0.05), Region::North);
        assert_eq!(Region::of(CITY_CENTRE.0 - 0.08, CITY_CENTRE.1 - 0.03), Region::West);
        assert_eq!(Region::of(CITY_CENTRE.0 + 0.06, CITY_CENTRE.1 - 0.03), Region::South);
    }

    #[test]
    fn indices_are_stable_and_distinct() {
        let idxs: Vec<usize> = Region::ALL.iter().map(|r| r.index()).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Region::Central.to_string(), "central");
        assert_eq!(Region::West.to_string(), "west");
    }
}
