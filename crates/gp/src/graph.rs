//! The traffic graph: junctions as vertices, street segments as edges.
//!
//! "In the traffic graph G each junction corresponds to one vertex" (§6).
//! Vertices optionally carry planar coordinates (used by the RBF baseline
//! kernel and the renderer); the GP kernel itself only consumes the graph
//! structure through the combinatorial Laplacian `L = D − A`.

use crate::error::GpError;
use crate::linalg::Matrix;
use std::collections::VecDeque;

/// An undirected graph with optional vertex coordinates.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    n: usize,
    adjacency: Vec<Vec<usize>>,
    coords: Vec<(f64, f64)>,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Builds a graph from explicit coordinates and undirected edges.
    pub fn new(coords: Vec<(f64, f64)>, edges: &[(usize, usize)]) -> Result<Graph, GpError> {
        let n = coords.len();
        let mut g = Graph { n, adjacency: vec![Vec::new(); n], coords, edges: Vec::new() };
        for &(a, b) in edges {
            g.add_edge(a, b)?;
        }
        Ok(g)
    }

    /// Adds an undirected edge; self-loops and duplicates are rejected
    /// silently (idempotent).
    pub(crate) fn add_edge(&mut self, a: usize, b: usize) -> Result<(), GpError> {
        if a >= self.n {
            return Err(GpError::VertexOutOfRange { index: a, n: self.n });
        }
        if b >= self.n {
            return Err(GpError::VertexOutOfRange { index: b, n: self.n });
        }
        if a == b || self.adjacency[a].contains(&b) {
            return Ok(());
        }
        self.adjacency[a].push(b);
        self.adjacency[b].push(a);
        self.edges.push((a.min(b), a.max(b)));
        Ok(())
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Vertex degree.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Coordinates of a vertex.
    pub fn coords(&self, v: usize) -> (f64, f64) {
        self.coords[v]
    }

    /// All coordinates.
    pub(crate) fn all_coords(&self) -> &[(f64, f64)] {
        &self.coords
    }

    /// The combinatorial Laplacian `L = D − A`.
    pub(crate) fn laplacian(&self) -> Matrix {
        let mut l = Matrix::zeros(self.n, self.n);
        for v in 0..self.n {
            l.set(v, v, self.degree(v) as f64);
        }
        for &(i, j) in &self.edges {
            l.set(i, j, -1.0);
            l.set(j, i, -1.0);
        }
        l
    }

    /// Whether the graph is connected (trivially true for `n ≤ 1`).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
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
        count == self.n
    }

    /// Index of the vertex nearest (Euclidean) to `(x, y)` — the paper maps
    /// SCATS locations "to their nearest neighbours within this street
    /// network".
    pub fn nearest_vertex(&self, x: f64, y: f64) -> Option<usize> {
        (0..self.n).min_by(|&a, &b| {
            let da = dist2(self.coords[a], (x, y));
            let db = dist2(self.coords[b], (x, y));
            da.total_cmp(&db)
        })
    }

    /// Breadth-first hop distances from `start` (`usize::MAX` = unreachable).
    pub fn bfs_distances(&self, start: usize) -> Result<Vec<usize>, GpError> {
        if start >= self.n {
            return Err(GpError::VertexOutOfRange { index: start, n: self.n });
        }
        let mut dist = vec![usize::MAX; self.n];
        dist[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for &w in &self.adjacency[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        Ok(dist)
    }
}

fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let g = Graph::new(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.adjacency[0], [1]);
        assert!(g.is_connected());
    }

    #[test]
    fn rejects_out_of_range_edges() {
        let mut g = Graph::new(vec![(0.0, 0.0); 2], &[]).unwrap();
        assert!(g.add_edge(0, 5).is_err());
        assert!(g.add_edge(7, 0).is_err());
    }

    #[test]
    fn duplicate_edges_and_self_loops_ignored() {
        let mut g = Graph::new(vec![(0.0, 0.0); 2], &[]).unwrap();
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 0).unwrap();
        g.add_edge(0, 0).unwrap();
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn laplacian_is_degree_minus_adjacency() {
        let g = Graph::new(vec![(0.0, 0.0); 3], &[(0, 1), (1, 2)]).unwrap();
        let l = g.laplacian();
        assert_eq!(l.get(0, 0), 1.0);
        assert_eq!(l.get(1, 1), 2.0);
        assert_eq!(l.get(0, 1), -1.0);
        assert_eq!(l.get(0, 2), 0.0);
        // Row sums of a Laplacian are zero.
        for i in 0..3 {
            let s: f64 = (0..3).map(|j| l.get(i, j)).sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn connectivity_detection() {
        let g = Graph::new(vec![(0.0, 0.0); 4], &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert!(Graph::new(vec![(0.0, 0.0); 0], &[]).unwrap().is_connected());
        assert!(Graph::new(vec![(0.0, 0.0); 1], &[]).unwrap().is_connected());
    }

    #[test]
    fn nearest_vertex_matches_euclidean() {
        let g = Graph::new(vec![(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)], &[]).unwrap();
        assert_eq!(g.nearest_vertex(9.0, 1.0), Some(1));
        assert_eq!(g.nearest_vertex(4.9, 4.9), Some(2));
        assert_eq!(Graph::new(vec![(0.0, 0.0); 0], &[]).unwrap().nearest_vertex(0.0, 0.0), None);
    }

    #[test]
    fn grid_structure() {
        let g = Graph::grid(3, 2);
        assert_eq!(g.len(), 6);
        assert_eq!(g.edges.len(), 7); // 2*2 horizontal + 3 vertical
        assert!(g.is_connected());
        assert_eq!(g.coords(4), (1.0, 1.0));
        // corner has degree 2, middle of top edge degree 3
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn bfs_distances() {
        let g = Graph::grid(3, 3);
        let d = g.bfs_distances(0).unwrap();
        assert_eq!(d[0], 0);
        assert_eq!(d[8], 4); // manhattan distance on grid
        assert!(g.bfs_distances(99).is_err());
        let g2 = Graph::new(vec![(0.0, 0.0); 2], &[]).unwrap();
        assert_eq!(g2.bfs_distances(0).unwrap()[1], usize::MAX);
    }
}
