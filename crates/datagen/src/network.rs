//! Procedural street-network generation (the OSM substitute of Fig. 7–8).
//!
//! The generator lays a jittered grid of junctions over the Dublin bounding
//! box and connects them 4-neighbourly, then sparsifies: a random spanning
//! tree is always kept (so the network stays connected, as a real street
//! network is) and each remaining edge survives with probability
//! `1 − edge_drop`. The result has the properties the downstream components
//! actually consume — a connected planar-ish graph with low average degree
//! and planar coordinates — which is what makes it a valid stand-in for the
//! OSM extract (DESIGN.md §3).

use crate::error::DatagenError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Approximate metres per degree of latitude.
pub const METRES_PER_DEG_LAT: f64 = 111_320.0;

/// Equirectangular distance in metres between two lon/lat points — accurate
/// to well under a percent at city scale.
pub fn distance_m(a: (f64, f64), b: (f64, f64)) -> f64 {
    let mean_lat = ((a.1 + b.1) / 2.0).to_radians();
    let dx = (a.0 - b.0) * mean_lat.cos() * METRES_PER_DEG_LAT;
    let dy = (a.1 - b.1) * METRES_PER_DEG_LAT;
    (dx * dx + dy * dy).sqrt()
}

/// Configuration of the network generator.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Bounding box `(lon_min, lat_min, lon_max, lat_max)`.
    pub bbox: (f64, f64, f64, f64),
    /// Grid junctions along longitude.
    pub nx: usize,
    /// Grid junctions along latitude.
    pub ny: usize,
    /// Coordinate jitter as a fraction of the cell size (0 = regular grid).
    pub jitter: f64,
    /// Fraction of non-spanning-tree edges removed.
    pub edge_drop: f64,
}

impl NetworkConfig {
    /// The Dublin-like default: ~1000 junctions inside the city bounding box.
    pub fn dublin_default() -> NetworkConfig {
        NetworkConfig {
            bbox: (-6.40, 53.28, -6.10, 53.42),
            nx: 36,
            ny: 28,
            jitter: 0.35,
            edge_drop: 0.18,
        }
    }

    fn validate(&self) -> Result<(), DatagenError> {
        if self.nx < 2 || self.ny < 2 {
            return Err(DatagenError::InvalidConfig {
                name: "nx/ny",
                detail: format!("grid must be at least 2×2, got {}×{}", self.nx, self.ny),
            });
        }
        if !(0.0..=0.49).contains(&self.jitter) {
            return Err(DatagenError::InvalidConfig {
                name: "jitter",
                detail: format!("must be in [0, 0.49], got {}", self.jitter),
            });
        }
        if !(0.0..=1.0).contains(&self.edge_drop) {
            return Err(DatagenError::InvalidConfig {
                name: "edge_drop",
                detail: format!("must be in [0, 1], got {}", self.edge_drop),
            });
        }
        let (x0, y0, x1, y1) = self.bbox;
        if x1 <= x0 || y1 <= y0 {
            return Err(DatagenError::InvalidConfig {
                name: "bbox",
                detail: "empty bounding box".into(),
            });
        }
        Ok(())
    }
}

/// A generated street network: junctions with lon/lat coordinates, street
/// segments as undirected edges.
#[derive(Debug, Clone)]
pub struct StreetNetwork {
    junctions: Vec<(f64, f64)>,
    segments: Vec<(usize, usize)>,
    adjacency: Vec<Vec<usize>>,
    bbox: (f64, f64, f64, f64),
}

impl StreetNetwork {
    /// Generates a network from the configuration, deterministically under
    /// `seed`.
    pub fn generate(config: &NetworkConfig, seed: u64) -> Result<StreetNetwork, DatagenError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed);
        let (x0, y0, x1, y1) = config.bbox;
        let cell_x = (x1 - x0) / (config.nx - 1) as f64;
        let cell_y = (y1 - y0) / (config.ny - 1) as f64;

        let n = config.nx * config.ny;
        let mut junctions = Vec::with_capacity(n);
        for gy in 0..config.ny {
            for gx in 0..config.nx {
                let jx = rng.random_range(-config.jitter..=config.jitter) * cell_x;
                let jy = rng.random_range(-config.jitter..=config.jitter) * cell_y;
                junctions.push((x0 + gx as f64 * cell_x + jx, y0 + gy as f64 * cell_y + jy));
            }
        }

        // Full grid edges.
        let idx = |gx: usize, gy: usize| gy * config.nx + gx;
        let mut all_edges = Vec::new();
        for gy in 0..config.ny {
            for gx in 0..config.nx {
                if gx + 1 < config.nx {
                    all_edges.push((idx(gx, gy), idx(gx + 1, gy)));
                }
                if gy + 1 < config.ny {
                    all_edges.push((idx(gx, gy), idx(gx, gy + 1)));
                }
            }
        }

        // Random spanning tree (randomised BFS) — kept unconditionally.
        let mut adjacency_full: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &all_edges {
            adjacency_full[a].push(b);
            adjacency_full[b].push(a);
        }
        let mut in_tree = vec![false; n];
        let mut tree_edges: Vec<(usize, usize)> = Vec::with_capacity(n - 1);
        let start = rng.random_range(0..n);
        in_tree[start] = true;
        let mut frontier = vec![start];
        while let Some(&v) = frontier.last() {
            let mut nbrs: Vec<usize> =
                adjacency_full[v].iter().copied().filter(|&w| !in_tree[w]).collect();
            if nbrs.is_empty() {
                frontier.pop();
                continue;
            }
            nbrs.shuffle(&mut rng);
            let w = nbrs[0];
            in_tree[w] = true;
            tree_edges.push((v.min(w), v.max(w)));
            frontier.push(w);
        }

        let tree_set: std::collections::HashSet<(usize, usize)> =
            tree_edges.iter().copied().collect();
        let mut segments = tree_edges;
        for &(a, b) in &all_edges {
            let key = (a.min(b), a.max(b));
            if tree_set.contains(&key) {
                continue;
            }
            if rng.random::<f64>() >= config.edge_drop {
                segments.push(key);
            }
        }
        segments.sort_unstable();
        segments.dedup();

        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &segments {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }

        let net = StreetNetwork { junctions, segments, adjacency, bbox: config.bbox };
        if !net.is_connected() {
            return Err(DatagenError::DegenerateNetwork {
                detail: "generated network is not connected (internal invariant)".into(),
            });
        }
        Ok(net)
    }

    /// Number of junctions.
    pub fn len(&self) -> usize {
        self.junctions.len()
    }

    /// Whether the network has no junctions.
    pub fn is_empty(&self) -> bool {
        self.junctions.is_empty()
    }

    /// The street segments as undirected `(min, max)` index pairs.
    pub fn segments(&self) -> &[(usize, usize)] {
        &self.segments
    }

    /// Junction coordinates `(lon, lat)`.
    pub fn coords(&self, v: usize) -> (f64, f64) {
        self.junctions[v]
    }

    /// All junction coordinates.
    pub fn junctions(&self) -> &[(f64, f64)] {
        &self.junctions
    }

    /// Neighbours of a junction.
    pub(crate) fn neighbours(&self, v: usize) -> &[usize] {
        &self.adjacency[v]
    }

    /// The generator's bounding box.
    pub fn bbox(&self) -> (f64, f64, f64, f64) {
        self.bbox
    }

    /// Whether the network is connected.
    pub fn is_connected(&self) -> bool {
        if self.junctions.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &w in &self.adjacency[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    queue.push_back(w);
                }
            }
        }
        count == self.len()
    }

    /// Junction nearest to a coordinate.
    pub fn nearest_junction(&self, lon: f64, lat: f64) -> Option<usize> {
        (0..self.len()).min_by(|&a, &b| {
            distance_m(self.junctions[a], (lon, lat))
                .total_cmp(&distance_m(self.junctions[b], (lon, lat)))
        })
    }

    /// Unweighted shortest path (BFS) between two junctions, inclusive of
    /// both endpoints. `None` if unreachable.
    pub(crate) fn shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from >= self.len() || to >= self.len() {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let mut prev = vec![usize::MAX; self.len()];
        let mut queue = VecDeque::from([from]);
        prev[from] = from;
        while let Some(v) = queue.pop_front() {
            for &w in &self.adjacency[v] {
                if prev[w] == usize::MAX {
                    prev[w] = v;
                    if w == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while cur != from {
                            cur = prev[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// Average junction degree.
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        2.0 * self.segments.len() as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> NetworkConfig {
        NetworkConfig {
            bbox: (-6.30, 53.33, -6.22, 53.37),
            nx: 8,
            ny: 6,
            jitter: 0.3,
            edge_drop: 0.3,
        }
    }

    #[test]
    fn generates_connected_network() {
        let net = StreetNetwork::generate(&small_config(), 1).unwrap();
        assert_eq!(net.len(), 48);
        assert!(net.is_connected());
        assert!(net.segments().len() >= net.len() - 1, "at least a spanning tree");
        // degree stays street-like (< 4 on average after sparsification)
        assert!(net.average_degree() <= 4.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = StreetNetwork::generate(&small_config(), 7).unwrap();
        let b = StreetNetwork::generate(&small_config(), 7).unwrap();
        assert_eq!(a.junctions(), b.junctions());
        assert_eq!(a.segments(), b.segments());
        let c = StreetNetwork::generate(&small_config(), 8).unwrap();
        assert_ne!(a.junctions(), c.junctions());
    }

    #[test]
    fn junctions_stay_near_bbox() {
        let cfg = small_config();
        let net = StreetNetwork::generate(&cfg, 3).unwrap();
        let (x0, y0, x1, y1) = cfg.bbox;
        let cell_x = (x1 - x0) / (cfg.nx - 1) as f64;
        let cell_y = (y1 - y0) / (cfg.ny - 1) as f64;
        for &(lon, lat) in net.junctions() {
            assert!(lon >= x0 - cell_x && lon <= x1 + cell_x);
            assert!(lat >= y0 - cell_y && lat <= y1 + cell_y);
        }
    }

    #[test]
    fn dublin_default_scale() {
        let net = StreetNetwork::generate(&NetworkConfig::dublin_default(), 42).unwrap();
        assert!(net.len() >= 900, "Dublin-scale junction count, got {}", net.len());
        assert!(net.is_connected());
    }

    #[test]
    fn config_validation() {
        let mut cfg = small_config();
        cfg.nx = 1;
        assert!(StreetNetwork::generate(&cfg, 1).is_err());
        let mut cfg = small_config();
        cfg.jitter = 0.8;
        assert!(StreetNetwork::generate(&cfg, 1).is_err());
        let mut cfg = small_config();
        cfg.edge_drop = 1.5;
        assert!(StreetNetwork::generate(&cfg, 1).is_err());
        let mut cfg = small_config();
        cfg.bbox = (0.0, 0.0, -1.0, 1.0);
        assert!(StreetNetwork::generate(&cfg, 1).is_err());
    }

    #[test]
    fn shortest_paths_are_paths() {
        let net = StreetNetwork::generate(&small_config(), 5).unwrap();
        let path = net.shortest_path(0, net.len() - 1).unwrap();
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), net.len() - 1);
        for w in path.windows(2) {
            assert!(net.neighbours(w[0]).contains(&w[1]), "consecutive junctions adjacent");
        }
        assert_eq!(net.shortest_path(0, 0), Some(vec![0]));
        assert_eq!(net.shortest_path(0, 10_000), None);
    }

    #[test]
    fn nearest_junction_finds_closest() {
        let net = StreetNetwork::generate(&small_config(), 5).unwrap();
        let (lon, lat) = net.coords(17);
        assert_eq!(net.nearest_junction(lon, lat), Some(17));
    }

    #[test]
    fn distance_m_sanity() {
        // One degree of latitude ≈ 111 km.
        let d = distance_m((-6.26, 53.0), (-6.26, 54.0));
        assert!((d - 111_320.0).abs() < 100.0);
        // Longitude shrinks with cos(lat).
        let dlon = distance_m((-6.0, 53.35), (-5.0, 53.35));
        assert!(dlon < d && dlon > d * 0.5);
        assert_eq!(distance_m((1.0, 2.0), (1.0, 2.0)), 0.0);
    }
}
