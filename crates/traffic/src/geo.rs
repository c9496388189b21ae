//! The atemporal `close/4` predicate.
//!
//! "`close` is an atemporal predicate computing the distance between two
//! points and comparing them against a threshold" (§4.3). Registered with
//! the engine as a builtin over `(LonB, LatB, Lon, Lat)`.

use insight_datagen::network::{distance_m, METRES_PER_DEG_LAT};
use insight_rtec::term::Term;

/// Returns the `close/4` implementation for a threshold in metres.
pub fn close_builtin(threshold_m: f64) -> impl Fn(&[Term]) -> bool + Send + Sync + 'static {
    move |args: &[Term]| {
        let [lon_b, lat_b, lon, lat] = args else { return false };
        match (lon_b.as_f64(), lat_b.as_f64(), lon.as_f64(), lat.as_f64()) {
            (Some(lon_b), Some(lat_b), Some(lon), Some(lat)) => {
                distance_m((lon_b, lat_b), (lon, lat)) <= threshold_m
            }
            _ => false,
        }
    }
}

/// The bounding box `close` implies: `(δlon, δlat)` in degrees such that
/// `close(LonB, LatB, Lon, Lat)` at `threshold_m` entails
/// `abs(Lon − LonB) ≤ δlon` and `abs(Lat − LatB) ≤ δlat` for every `(Lon,
/// Lat)` whose latitude is one of `lats`. The rule library states the two
/// inequalities as ordinary guards, which the RTEC planner turns into a band
/// lookup on the location relation; they are *implied* by `close`, so they
/// cannot change a recognition, only how many candidates reach the builtin.
///
/// A degree of longitude shrinks with `cos(latitude)`, so δlon is sized for
/// the latitude farthest from the equator that `close` can pair with the
/// relation (plus a hair for rounding); past the poles it is unbounded.
pub(crate) fn close_box(threshold_m: f64, lats: impl IntoIterator<Item = f64>) -> (f64, f64) {
    const ROUNDING: f64 = 1.0 + 1e-9;
    let d_lat = threshold_m / METRES_PER_DEG_LAT * ROUNDING;
    let extreme = lats.into_iter().fold(0.0f64, |m, lat| m.max(lat.abs())) + d_lat;
    let d_lon = if extreme < 90.0 {
        threshold_m / (METRES_PER_DEG_LAT * extreme.to_radians().cos()) * ROUNDING
    } else {
        f64::INFINITY
    };
    (d_lon, d_lat)
}

/// The one tuple of the `close_box(DLon, DLat)` relation
/// ([`crate::rules::rel::CLOSE_BOX`]) for location relations at `lats`.
pub fn close_box_tuples(threshold_m: f64, lats: impl IntoIterator<Item = f64>) -> Vec<Vec<Term>> {
    let (d_lon, d_lat) = close_box(threshold_m, lats);
    vec![vec![Term::float(d_lon), Term::float(d_lat)]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_points_within_threshold() {
        let close = close_builtin(300.0);
        // ~110 m apart in latitude.
        assert!(close(&[
            Term::float(-6.26),
            Term::float(53.3500),
            Term::float(-6.26),
            Term::float(53.3510),
        ]));
        // ~1.1 km apart.
        assert!(!close(&[
            Term::float(-6.26),
            Term::float(53.35),
            Term::float(-6.26),
            Term::float(53.36),
        ]));
    }

    #[test]
    fn identical_points_are_close() {
        let close = close_builtin(1.0);
        assert!(close(&[
            Term::float(-6.26),
            Term::float(53.35),
            Term::float(-6.26),
            Term::float(53.35),
        ]));
    }

    #[test]
    fn the_box_contains_everything_close_accepts() {
        let threshold = 250.0;
        let close = close_builtin(threshold);
        let lats = [53.25, 53.35, 53.45];
        let (d_lon, d_lat) = close_box(threshold, lats);
        // Tight: the box is the circle's bounding square, not a city block.
        assert!(d_lat < 0.00225 && d_lon < 0.0038, "({d_lon}, {d_lat})");
        for &lat in &lats {
            for step in 0..720 {
                let a = f64::from(step).to_radians() / 2.0;
                for r in [0.5, 0.99, 0.999_999, 1.0, 1.000_001, 1.01] {
                    let (lon_b, lat_b) = (-6.26 + r * d_lon * a.cos(), lat + r * d_lat * a.sin());
                    let args = [lon_b, lat_b, -6.26, lat].map(Term::float);
                    if close(&args) {
                        assert!((lon_b + 6.26).abs() <= d_lon && (lat_b - lat).abs() <= d_lat);
                    }
                }
            }
        }
        // Towards the poles a degree of longitude vanishes: no bound.
        assert_eq!(close_box(threshold, [89.9999]).0, f64::INFINITY);
        // An empty relation has nothing to be close to; any box will do.
        assert!(close_box(threshold, []).0.is_finite());
    }

    #[test]
    fn rejects_malformed_arguments() {
        let close = close_builtin(100.0);
        assert!(!close(&[Term::float(1.0)]), "wrong arity");
        assert!(!close(&[Term::sym("x"), Term::float(1.0), Term::float(1.0), Term::float(1.0)]));
    }
}
