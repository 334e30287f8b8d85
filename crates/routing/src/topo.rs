//! Network topology: nodes, directed links with capacities, and the NSFNet
//! 14-node topology of the RouteNet dataset (the paper's Figure 8).

use serde::{Deserialize, Serialize};

/// A directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    pub src: usize,
    pub dst: usize,
    pub capacity: f64,
}

/// A directed graph with per-link capacities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    n_nodes: usize,
    links: Vec<Link>,
    /// adjacency[u] = list of (neighbor, link index)
    adjacency: Vec<Vec<(usize, usize)>>,
}

impl Topology {
    /// Build from undirected edges; each becomes two directed links of the
    /// given capacity.
    pub fn from_undirected(n_nodes: usize, edges: &[(usize, usize)], capacity: f64) -> Self {
        let mut links = Vec::with_capacity(edges.len() * 2);
        let mut adjacency = vec![Vec::new(); n_nodes];
        for &(u, v) in edges {
            assert!(u < n_nodes && v < n_nodes && u != v, "bad edge ({u},{v})");
            adjacency[u].push((v, links.len()));
            links.push(Link {
                src: u,
                dst: v,
                capacity,
            });
            adjacency[v].push((u, links.len()));
            links.push(Link {
                src: v,
                dst: u,
                capacity,
            });
        }
        Topology {
            n_nodes,
            links,
            adjacency,
        }
    }

    /// The 14-node NSFNet topology (21 undirected edges) used by RouteNet
    /// and by the paper's Figure 8, with unit-free capacity 10 per link.
    pub fn nsfnet() -> Self {
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 7),
            (2, 5),
            (3, 4),
            (3, 8),
            (4, 5),
            (4, 6),
            (5, 12),
            (5, 13),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (9, 10),
            (9, 12),
            (10, 11),
            (10, 13),
            (11, 12),
        ];
        Topology::from_undirected(14, &edges, 10.0)
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    pub fn link(&self, idx: usize) -> Link {
        self.links[idx]
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbors of `u` as (node, link index).
    pub fn neighbors(&self, u: usize) -> &[(usize, usize)] {
        &self.adjacency[u]
    }

    /// Index of the directed link `u -> v`, if it exists.
    pub fn link_index(&self, u: usize, v: usize) -> Option<usize> {
        self.adjacency[u]
            .iter()
            .find(|(n, _)| *n == v)
            .map(|(_, l)| *l)
    }

    /// Convert a node path into the directed link indices along it.
    ///
    /// # Panics
    /// Panics if consecutive nodes are not adjacent.
    pub fn path_links(&self, node_path: &[usize]) -> Vec<usize> {
        self.links_along(node_path).collect()
    }

    /// [`Topology::path_links`] without the allocation.
    ///
    /// # Panics
    /// The iterator panics on reaching two nodes that are not adjacent.
    pub(crate) fn links_along<'a>(
        &'a self,
        node_path: &'a [usize],
    ) -> impl Iterator<Item = usize> + 'a {
        node_path.windows(2).map(|w| {
            self.link_index(w[0], w[1])
                .unwrap_or_else(|| panic!("no link {} -> {}", w[0], w[1]))
        })
    }

    /// Human-readable link name like `"6->7"`.
    pub fn link_name(&self, idx: usize) -> String {
        format!("{}->{}", self.links[idx].src, self.links[idx].dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nsfnet_shape() {
        let t = Topology::nsfnet();
        assert_eq!(t.n_nodes(), 14);
        assert_eq!(t.n_links(), 42); // 21 undirected edges
    }

    #[test]
    fn nsfnet_contains_figure8_paths() {
        let t = Topology::nsfnet();
        // The concrete paths quoted in Table 3 must be walkable.
        for path in [
            vec![6, 7, 10, 9],
            vec![1, 7, 10, 9],
            vec![7, 10, 9, 12],
            vec![8, 3, 0, 2],
            vec![6, 4, 3, 0],
        ] {
            let links = t.path_links(&path);
            assert_eq!(links.len(), path.len() - 1);
        }
    }

    #[test]
    fn directed_links_are_paired() {
        let t = Topology::nsfnet();
        for idx in 0..t.n_links() {
            let l = t.link(idx);
            let back = t.link_index(l.dst, l.src).expect("reverse link exists");
            assert_ne!(back, idx);
        }
    }

    #[test]
    fn link_index_lookup() {
        let t = Topology::nsfnet();
        assert!(t.link_index(6, 7).is_some());
        assert!(t.link_index(6, 9).is_none());
        let idx = t.link_index(0, 1).unwrap();
        assert_eq!(t.link_name(idx), "0->1");
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn path_links_rejects_teleport() {
        let t = Topology::nsfnet();
        let _ = t.path_links(&[0, 13]);
    }
}
