//! The maximally fully adaptive 2D-mesh algorithm with double y
//! channels — the paper's companion result (Glass & Ni, *"Maximally
//! Fully Adaptive Routing in 2D Meshes"*, reference \[18\]).

use crate::routing::VcRoutingAlgorithm;
use crate::table::VcTable;
use crate::vdir::{VDirSet, VirtualDirection};
use turnroute_topology::{Direction, NodeId, Topology};

/// Mad-y: fully adaptive, deadlock-free minimal routing for 2D meshes
/// using one extra virtual channel in the y dimension only.
///
/// Provisioning: one lane on x channels, two lanes (`y1` = class 0,
/// `y2` = class 1) on y channels. The turn-model discipline:
///
/// * while a **westward offset remains**, y hops use `y1`; the packet
///   may interleave west and `y1` hops freely;
/// * once no westward offset remains, y hops use `y2`, interleaving
///   freely with east hops.
///
/// Every physical shortest path is realizable (classes are an
/// implementation detail of the lanes, not of the path), so
/// `S = S_f`: the algorithm is *fully* adaptive — which Theorem 1 shows
/// is impossible without the extra channels. Deadlock freedom follows
/// from the acyclic virtual-channel dependency graph: `{W, y1}` has no
/// eastward channel to close a cycle, `{E, y2}` no westward one, and
/// the only cross edges (`W -> y2`, never back) are one-way.
///
/// # Example
///
/// ```
/// use turnroute_vc::{MadY, VcRoutingAlgorithm, VcTable};
/// use turnroute_topology::{Mesh, Topology};
///
/// let mesh = Mesh::new_2d(8, 8);
/// let mady = MadY::new();
/// let table = VcTable::new(&mesh, &mady.provisioning(&mesh));
/// let s = mesh.node_at(&[4, 4].into());
/// let d = mesh.node_at(&[2, 6].into());
/// // West and north both on offer — fully adaptive even on the mixed
/// // quadrants where every single-channel turn-model algorithm is
/// // forced into a single path.
/// assert_eq!(mady.route_vc(&mesh, &table, s, d, None).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MadY {
    _private: (),
}

impl MadY {
    /// Creates the mad-y router.
    pub fn new() -> Self {
        MadY { _private: () }
    }

    /// The y-lane class to use: `y1` while a westward offset remains.
    fn y_class(topo: &dyn Topology, current: NodeId, dest: NodeId) -> u8 {
        let west_remains = topo.coord_of(dest).get(0) < topo.coord_of(current).get(0);
        if west_remains {
            0
        } else {
            1
        }
    }
}

impl VcRoutingAlgorithm for MadY {
    fn name(&self) -> String {
        "mad-y".to_owned()
    }

    fn check_topology(&self, topo: &dyn Topology) -> Result<(), String> {
        if topo.num_dims() == 2 && !topo.wraps(0) && !topo.wraps(1) {
            Ok(())
        } else {
            Err(format!(
                "'mad-y' requires a 2D mesh topology, not {}",
                topo.label()
            ))
        }
    }

    fn provisioning(&self, topo: &dyn Topology) -> Vec<u8> {
        if let Err(e) = self.check_topology(topo) {
            panic!("{e}");
        }
        vec![1, 2]
    }

    fn route_vc(
        &self,
        topo: &dyn Topology,
        _table: &VcTable,
        current: NodeId,
        dest: NodeId,
        _arrived: Option<VirtualDirection>,
    ) -> VDirSet {
        let mut set = VDirSet::new();
        for dir in topo.minimal_directions(current, dest) {
            let class = if dir.dim() == 0 {
                0
            } else {
                Self::y_class(topo, current, dest)
            };
            set.insert(VirtualDirection::new(dir, class));
        }
        set
    }

    fn is_minimal(&self) -> bool {
        true
    }
}

/// The virtual-turn relation of mad-y, for dependency-graph
/// verification: which lane-to-lane transitions the discipline ever
/// produces.
pub fn mady_may_follow(from: VirtualDirection, to: VirtualDirection) -> bool {
    use Direction as D;
    let (f, t) = (from.dir(), to.dir());
    // No 180-degree reversals.
    if f.dim() == t.dim() && f.sign() != t.sign() {
        return false;
    }
    let y1 = |v: VirtualDirection| v.dir().dim() == 1 && v.class() == 0;
    let y2 = |v: VirtualDirection| v.dir().dim() == 1 && v.class() == 1;
    let west = |v: VirtualDirection| v.dir() == D::WEST;
    let east = |v: VirtualDirection| v.dir() == D::EAST;

    if west(to) {
        // Into west: from west (straight) or y1 (west still remained).
        west(from) || y1(from)
    } else if east(to) {
        // Into east: from east or y2 (west exhausted).
        east(from) || y2(from)
    } else if y1(to) {
        // Into y1: from west or straight y1.
        west(from) || (y1(from) && f == t)
    } else {
        // Into y2: from west (last west hop just done), east, or
        // straight y2.
        debug_assert!(y2(to));
        west(from) || east(from) || (y2(from) && f == t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{check_vc_routing_contract, walk_vc};
    use turnroute_topology::Mesh;

    #[test]
    fn contract_holds() {
        let mesh = Mesh::new_2d(5, 5);
        let mady = MadY::new();
        let table = VcTable::new(&mesh, &mady.provisioning(&mesh));
        check_vc_routing_contract(&mady, &mesh, &table);
    }

    #[test]
    fn offers_every_productive_direction() {
        // Full adaptivity at the router level: every productive
        // physical direction has a permitted lane at every state.
        let mesh = Mesh::new_2d(6, 6);
        let mady = MadY::new();
        let table = VcTable::new(&mesh, &mady.provisioning(&mesh));
        for s in mesh.nodes() {
            for d in mesh.nodes() {
                let offered = mady.route_vc(&mesh, &table, s, d, None).physical();
                assert_eq!(offered, mesh.minimal_directions(s, d));
            }
        }
    }

    #[test]
    fn y_class_tracks_west_offset() {
        let mesh = Mesh::new_2d(8, 8);
        let mady = MadY::new();
        let table = VcTable::new(&mesh, &mady.provisioning(&mesh));
        let s = mesh.node_at(&[4, 4].into());
        // Destination northwest: y hops use y1.
        let d = mesh.node_at(&[1, 6].into());
        let set = mady.route_vc(&mesh, &table, s, d, None);
        assert!(set.contains(VirtualDirection::new(Direction::NORTH, 0)));
        assert!(!set.contains(VirtualDirection::new(Direction::NORTH, 1)));
        // Destination northeast: y hops use y2.
        let d = mesh.node_at(&[6, 6].into());
        let set = mady.route_vc(&mesh, &table, s, d, None);
        assert!(set.contains(VirtualDirection::new(Direction::NORTH, 1)));
        assert!(!set.contains(VirtualDirection::new(Direction::NORTH, 0)));
    }

    #[test]
    fn walks_are_minimal() {
        let mesh = Mesh::new_2d(7, 7);
        let mady = MadY::new();
        let table = VcTable::new(&mesh, &mady.provisioning(&mesh));
        for (a, b) in [(0usize, 48usize), (6, 42), (24, 3), (45, 10)] {
            let (s, d) = (a.into(), b.into());
            let path = walk_vc(&mady, &mesh, &table, s, d);
            assert_eq!(path.len() - 1, mesh.distance(s, d));
        }
    }

    #[test]
    fn relation_reflects_the_discipline() {
        use Direction as D;
        let w = VirtualDirection::new(D::WEST, 0);
        let e = VirtualDirection::new(D::EAST, 0);
        let n1 = VirtualDirection::new(D::NORTH, 0);
        let n2 = VirtualDirection::new(D::NORTH, 1);
        let s1 = VirtualDirection::new(D::SOUTH, 0);
        assert!(mady_may_follow(w, n1));
        assert!(mady_may_follow(w, n2));
        assert!(mady_may_follow(n1, w));
        assert!(!mady_may_follow(n2, w), "y2 never turns west");
        assert!(!mady_may_follow(n1, e), "y1 never turns east");
        assert!(mady_may_follow(n2, e));
        assert!(mady_may_follow(e, n2));
        assert!(!mady_may_follow(e, n1), "east never feeds y1");
        assert!(!mady_may_follow(n1, s1), "no reversals");
        assert!(!mady_may_follow(n1, n2), "no y1 -> y2 class switch");
    }
}
