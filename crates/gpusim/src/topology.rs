//! The explicit link model: typed link classes, per-link bandwidth and
//! latency, and a shortest-path route table built at construction.
//!
//! The seed cost model charges every device-to-device transfer as one hop
//! over a uniform link ([`crate::CostModel::d2d_secs`]). Real many-body
//! correlation machines are hierarchical: GPUs sit in NVLink *islands*
//! (full-mesh, high bandwidth, sub-microsecond latency), islands within a
//! *node* talk over PCIe switches, and nodes talk over InfiniBand. A
//! [`LinkTopology`] makes that hierarchy first-class: machines that carry
//! one route each transfer over the table and charge per-hop link time,
//! schedulers can penalize cross-island placements, and the analysis layer
//! can flag reducible cross-island traffic (`MICCO-W204`).
//!
//! Machines built **without** a topology behave exactly as before the
//! topology layer existed — the flat, uniform-link cost model is the
//! pinned default, and a single-island topology whose NVLink class copies
//! the flat `d2d` parameters charges bit-identical transfer times (each
//! hop uses the same `latency·1e-6 + bytes/(bw·GiB)` expression).
//!
//! Like [`crate::FaultPlan`], the topology round-trips through a compact
//! text spec so CLI runs can be reproduced from one line:
//!
//! ```text
//! nvlink{gpus:8, island:4, node:8, nv:200@1, pcie:16@3, ib:23@30}
//! ```
//!
//! where `BW@LAT` is GiB/s at microseconds of per-transfer latency.

use crate::cost::GIB;

/// The class of a physical link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkClass {
    /// Intra-island peer link (NVLink / xGMI): full mesh within an island.
    NvLink,
    /// Inter-island link within one node (PCIe switch hop).
    Pcie,
    /// Inter-node network link (InfiniBand).
    Ib,
}

impl LinkClass {
    /// Stable lower-case name (used in traces, lints, and specs).
    pub fn as_str(self) -> &'static str {
        match self {
            LinkClass::NvLink => "nv",
            LinkClass::Pcie => "pcie",
            LinkClass::Ib => "ib",
        }
    }
}

impl std::fmt::Display for LinkClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bandwidth/latency parameters of one link class. `Copy`, so it can live
/// inside `Copy` configuration structs (the cluster layer builds its
/// inter-node link from one of these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Link bandwidth in GiB/s.
    pub gib_s: f64,
    /// Per-transfer latency in microseconds.
    pub latency_us: f64,
}

impl LinkSpec {
    /// A link with `gib_s` GiB/s of bandwidth and `latency_us` µs latency.
    pub const fn new(gib_s: f64, latency_us: f64) -> Self {
        LinkSpec { gib_s, latency_us }
    }

    /// NVLink-class default: 200 GiB/s at 1 µs.
    pub const fn nvlink_default() -> Self {
        LinkSpec::new(200.0, 1.0)
    }

    /// PCIe-class default: 16 GiB/s at 3 µs.
    pub const fn pcie_default() -> Self {
        LinkSpec::new(16.0, 3.0)
    }

    /// InfiniBand-class default: 23 GiB/s at 30 µs (HDR-like — the same
    /// numbers the cluster layer has always used).
    pub const fn ib_default() -> Self {
        LinkSpec::new(23.0, 30.0)
    }

    /// Seconds one transfer of `bytes` spends on this link. The exact
    /// expression [`crate::CostModel::d2d_secs`] uses, so a single-hop
    /// route with matching parameters charges bit-identical time.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        self.latency_us * 1e-6 + bytes as f64 / (self.gib_s * GIB)
    }
}

/// One physical link of the topology graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Link class.
    pub class: LinkClass,
    /// Lower endpoint (gpu index).
    pub a: usize,
    /// Upper endpoint (gpu index).
    pub b: usize,
    /// Bandwidth/latency of this link.
    pub spec: LinkSpec,
}

/// A hierarchical GPU interconnect with a precomputed route table.
///
/// GPUs `0..num_gpus` are grouped into islands of `island_size`
/// consecutive ids (full NVLink mesh within an island), islands into
/// nodes of `node_size` consecutive ids (island leaders joined by PCIe
/// within a node), and node leaders joined pairwise by IB. Routes are
/// shortest-time paths, fixed at construction; [`LinkTopology::route`]
/// and [`LinkTopology::transfer_secs`] are pure table lookups, so the
/// planning and execution passes charge identical link time by
/// construction.
///
/// # Examples
///
/// ```
/// use micco_gpusim::LinkTopology;
///
/// let topo = LinkTopology::nvlink(8, 4);
/// assert!(topo.same_island(0, 3));
/// assert!(topo.crosses_island(3, 4));
/// // intra-island is one NVLink hop, inter-island routes over PCIe
/// assert_eq!(topo.route(0, 3).len(), 1);
/// assert!(topo.transfer_secs(0, 4, 1 << 30) > topo.transfer_secs(0, 3, 1 << 30));
/// // the spec round-trips
/// let again = LinkTopology::parse(&topo.to_spec()).unwrap();
/// assert_eq!(again, topo);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTopology {
    num_gpus: usize,
    island_size: usize,
    node_size: usize,
    nv: LinkSpec,
    pcie: LinkSpec,
    ib: LinkSpec,
    links: Vec<Link>,
    /// `routes[src * num_gpus + dst]`: link ids along the chosen path.
    routes: Vec<Vec<u32>>,
}

impl LinkTopology {
    /// An island topology: `num_gpus` devices in islands of `island_size`
    /// consecutive ids, all within one node, with default link classes.
    ///
    /// # Panics
    ///
    /// Panics when `num_gpus == 0`, `island_size == 0`, or `island_size >
    /// num_gpus`.
    pub fn nvlink(num_gpus: usize, island_size: usize) -> Self {
        assert!(num_gpus > 0, "need at least one gpu");
        assert!(island_size > 0, "need a positive island size");
        assert!(island_size <= num_gpus, "island larger than the machine");
        let mut t = LinkTopology {
            num_gpus,
            island_size,
            node_size: num_gpus,
            nv: LinkSpec::nvlink_default(),
            pcie: LinkSpec::pcie_default(),
            ib: LinkSpec::ib_default(),
            links: Vec::new(),
            routes: Vec::new(),
        };
        t.rebuild();
        t
    }

    /// Number of devices the topology covers.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Devices per island.
    pub fn island_size(&self) -> usize {
        self.island_size
    }

    /// Devices per node.
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// The island device `g` belongs to.
    pub fn island_of(&self, g: usize) -> usize {
        g / self.island_size
    }

    /// The node device `g` belongs to.
    pub fn node_of(&self, g: usize) -> usize {
        g / self.node_size
    }

    /// Number of islands.
    pub fn num_islands(&self) -> usize {
        self.num_gpus.div_ceil(self.island_size)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_gpus.div_ceil(self.node_size)
    }

    /// Whether the whole machine is one island (no cross-island route
    /// exists — `MICCO-W204` can never fire here).
    pub fn is_single_island(&self) -> bool {
        self.num_islands() == 1
    }

    /// Whether `a` and `b` share an island.
    pub fn same_island(&self, a: usize, b: usize) -> bool {
        self.island_of(a) == self.island_of(b)
    }

    /// Whether `a` and `b` share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Whether a transfer `a → b` crosses an island boundary.
    pub fn crosses_island(&self, a: usize, b: usize) -> bool {
        !self.same_island(a, b)
    }

    /// Whether a transfer `a → b` crosses a node boundary.
    pub fn crosses_node(&self, a: usize, b: usize) -> bool {
        !self.same_node(a, b)
    }

    /// The NVLink class parameters.
    pub fn nvlink_spec(&self) -> LinkSpec {
        self.nv
    }

    /// The PCIe class parameters.
    pub fn pcie_spec(&self) -> LinkSpec {
        self.pcie
    }

    /// All physical links, in a stable order (link id = index).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with id `id`.
    pub fn link(&self, id: u32) -> &Link {
        &self.links[id as usize]
    }

    /// The route from `src` to `dst` as link ids (empty when `src == dst`).
    ///
    /// Routes are symmetric: `route(b, a)` walks the same links reversed.
    pub fn route(&self, src: usize, dst: usize) -> &[u32] {
        &self.routes[src * self.num_gpus + dst]
    }

    /// Seconds a transfer of `bytes` from `src` to `dst` spends on links:
    /// the sum of per-hop link times along the route. Zero when
    /// `src == dst`. Summed in the canonical (low → high) direction so the
    /// charge is exactly symmetric despite float non-associativity.
    pub fn transfer_secs(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        let (a, b) = if src <= dst { (src, dst) } else { (dst, src) };
        let mut secs = 0.0;
        for &id in self.route(a, b) {
            secs += self.links[id as usize].spec.transfer_secs(bytes);
        }
        secs
    }

    /// The per-hop charge breakdown of a transfer: `(link id, seconds)`
    /// in route order.
    pub fn route_charges(&self, src: usize, dst: usize, bytes: u64) -> Vec<(u32, f64)> {
        self.route(src, dst)
            .iter()
            .map(|&id| (id, self.links[id as usize].spec.transfer_secs(bytes)))
            .collect()
    }

    /// The canonical text spec, parseable by [`LinkTopology::parse`].
    pub fn to_spec(&self) -> String {
        format!(
            "nvlink{{gpus:{}, island:{}, node:{}, nv:{}@{}, pcie:{}@{}, ib:{}@{}}}",
            self.num_gpus,
            self.island_size,
            self.node_size,
            self.nv.gib_s,
            self.nv.latency_us,
            self.pcie.gib_s,
            self.pcie.latency_us,
            self.ib.gib_s,
            self.ib.latency_us,
        )
    }

    /// Parse a topology spec (the grammar mirrors [`crate::FaultPlan`]'s
    /// comma-separated `key:value` style):
    ///
    /// ```text
    /// nvlink{gpus:N [, island:K] [, node:M] [, nv:BW@LAT] [, pcie:BW@LAT] [, ib:BW@LAT]}
    /// ```
    ///
    /// * `gpus:N` — device count (required);
    /// * `island:K` — devices per NVLink island (default: all of them);
    /// * `node:M` — devices per node, a multiple of `island` (default:
    ///   all of them — a single node);
    /// * `nv`/`pcie`/`ib` — link class parameters as `BW@LAT`, bandwidth
    ///   in GiB/s at latency in µs (defaults 200@1, 16@3, 23@30).
    ///
    /// Building the link list and the all-pairs route table costs
    /// O(gpus³) time and O(gpus²) memory; [`LinkTopology::check_spec`]
    /// validates a spec without paying it.
    pub fn parse(spec: &str) -> Result<LinkTopology, String> {
        let mut topo = LinkTopology::parse_unbuilt(spec)?;
        topo.rebuild();
        Ok(topo)
    }

    /// Check a spec's grammar and geometry as [`LinkTopology::parse`] does,
    /// without building its link tables, and return the device count it
    /// covers — so a request can be validated against a machine before
    /// anything sized by its device count is built.
    pub fn check_spec(spec: &str) -> Result<usize, String> {
        LinkTopology::parse_unbuilt(spec).map(|t| t.num_gpus)
    }

    /// A checked spec with empty link tables; [`Self::rebuild`] fills them.
    fn parse_unbuilt(spec: &str) -> Result<LinkTopology, String> {
        let spec = spec.trim();
        let body = spec
            .strip_prefix("nvlink{")
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| "expected nvlink{...}".to_owned())?;
        let mut gpus: Option<usize> = None;
        let mut island: Option<usize> = None;
        let mut node: Option<usize> = None;
        let mut nv = LinkSpec::nvlink_default();
        let mut pcie = LinkSpec::pcie_default();
        let mut ib = LinkSpec::ib_default();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("'{part}': expected key:value"))?;
            let value = value.trim();
            let count = |what: &str| {
                value
                    .parse::<usize>()
                    .map_err(|_| format!("'{value}': bad {what}"))
            };
            match key.trim() {
                "gpus" => gpus = Some(count("gpu count")?),
                "island" => island = Some(count("island size")?),
                "node" => node = Some(count("node size")?),
                "nv" => nv = parse_link_spec(value)?,
                "pcie" => pcie = parse_link_spec(value)?,
                "ib" => ib = parse_link_spec(value)?,
                other => return Err(format!("'{other}': unknown topology key")),
            }
        }
        let gpus = gpus.ok_or_else(|| "missing gpus:N".to_owned())?;
        if gpus == 0 {
            return Err("gpus must be positive".to_owned());
        }
        let island = island.unwrap_or(gpus);
        if island == 0 || island > gpus {
            return Err(format!("island size {island} out of range for {gpus} gpus"));
        }
        let node = node.unwrap_or(gpus);
        if node < island || !node.is_multiple_of(island) {
            return Err(format!(
                "node size {node} must be a positive multiple of island size {island}"
            ));
        }
        if !(nv.gib_s > 0.0 && pcie.gib_s > 0.0 && ib.gib_s > 0.0) {
            return Err("link bandwidth must be positive".to_owned());
        }
        Ok(LinkTopology {
            num_gpus: gpus,
            island_size: island,
            node_size: node,
            nv,
            pcie,
            ib,
            links: Vec::new(),
            routes: Vec::new(),
        })
    }

    /// Rebuild the link list and route table from the current geometry.
    fn rebuild(&mut self) {
        let n = self.num_gpus;
        let mut links: Vec<Link> = Vec::new();
        // NVLink: full mesh within each island.
        for a in 0..n {
            for b in (a + 1)..n {
                if self.island_of(a) == self.island_of(b) {
                    links.push(Link {
                        class: LinkClass::NvLink,
                        a,
                        b,
                        spec: self.nv,
                    });
                }
            }
        }
        // PCIe: island leaders (lowest id of each island) pairwise within
        // a node.
        let leaders: Vec<usize> = (0..self.num_islands())
            .map(|i| i * self.island_size)
            .collect();
        for (i, &a) in leaders.iter().enumerate() {
            for &b in &leaders[i + 1..] {
                if self.node_of(a) == self.node_of(b) {
                    links.push(Link {
                        class: LinkClass::Pcie,
                        a,
                        b,
                        spec: self.pcie,
                    });
                }
            }
        }
        // IB: node leaders pairwise.
        let node_leaders: Vec<usize> = (0..self.num_nodes()).map(|i| i * self.node_size).collect();
        for (i, &a) in node_leaders.iter().enumerate() {
            for &b in &node_leaders[i + 1..] {
                links.push(Link {
                    class: LinkClass::Ib,
                    a,
                    b,
                    spec: self.ib,
                });
            }
        }
        self.links = links;
        self.routes = self.build_routes();
    }

    /// Shortest-time routes between every pair, by Dijkstra over the link
    /// graph (weights at a 1 GiB reference size, deterministic tie-break
    /// on device id). Routes for `src > dst` mirror the `src < dst` path
    /// reversed, so symmetry holds exactly.
    fn build_routes(&self) -> Vec<Vec<u32>> {
        let n = self.num_gpus;
        const REF_BYTES: u64 = 1 << 30;
        // Adjacency: gpu -> [(neighbor, link id, weight)].
        let mut adj: Vec<Vec<(usize, u32, f64)>> = vec![Vec::new(); n];
        for (id, l) in self.links.iter().enumerate() {
            let w = l.spec.transfer_secs(REF_BYTES);
            adj[l.a].push((l.b, id as u32, w));
            adj[l.b].push((l.a, id as u32, w));
        }
        let mut routes = vec![Vec::new(); n * n];
        for src in 0..n {
            let mut dist = vec![f64::INFINITY; n];
            let mut pred: Vec<Option<(usize, u32)>> = vec![None; n];
            let mut done = vec![false; n];
            dist[src] = 0.0;
            for _ in 0..n {
                let mut u = usize::MAX;
                let mut best = f64::INFINITY;
                for v in 0..n {
                    if !done[v] && dist[v] < best {
                        best = dist[v];
                        u = v;
                    }
                }
                if u == usize::MAX {
                    break;
                }
                done[u] = true;
                for &(v, id, w) in &adj[u] {
                    let cand = dist[u] + w;
                    if cand < dist[v] {
                        dist[v] = cand;
                        pred[v] = Some((u, id));
                    }
                }
            }
            for dst in (src + 1)..n {
                let mut hops: Vec<u32> = Vec::new();
                let mut at = dst;
                while at != src {
                    let (prev, id) = pred[at].unwrap_or_else(|| {
                        // The hierarchical graph is connected by
                        // construction (leaders bridge every level).
                        unreachable!("topology graph is connected")
                    });
                    hops.push(id);
                    at = prev;
                }
                hops.reverse();
                let mut back = hops.clone();
                back.reverse();
                routes[src * n + dst] = hops;
                routes[dst * n + src] = back;
            }
        }
        routes
    }
}

impl std::fmt::Display for LinkTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_spec())
    }
}

/// Parse a `BW@LAT` link class value.
fn parse_link_spec(value: &str) -> Result<LinkSpec, String> {
    let (bw, lat) = value
        .split_once('@')
        .ok_or_else(|| format!("'{value}': expected BW@LAT"))?;
    let gib_s = bw
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("'{bw}': bad bandwidth"))?;
    let latency_us = lat
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("'{lat}': bad latency"))?;
    if !(gib_s.is_finite() && gib_s > 0.0 && latency_us.is_finite() && latency_us >= 0.0) {
        return Err(format!("'{value}': bandwidth/latency out of range"));
    }
    Ok(LinkSpec::new(gib_s, latency_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_single_island_matches_d2d_cost_bit_for_bit() {
        let cost = crate::CostModel::mi100_like();
        let (bw, lat) = (cost.d2d_gib_s, cost.transfer_latency_us);
        let topo = LinkTopology::parse(&format!("nvlink{{gpus:4, island:4, nv:{bw}@{lat}}}"))
            .expect("valid spec");
        for bytes in [0u64, 1, 1 << 10, 1 << 20, (1 << 30) + 7] {
            for (a, b) in [(0usize, 1usize), (2, 3), (3, 0)] {
                assert_eq!(
                    topo.transfer_secs(a, b, bytes).to_bits(),
                    cost.d2d_secs(bytes).to_bits(),
                    "single NVLink hop must reproduce the flat charge exactly"
                );
            }
        }
    }

    #[test]
    fn hierarchy_routes_through_leaders() {
        let topo = LinkTopology::parse("nvlink{gpus:8, island:2, node:4}").expect("valid spec");
        // same island: one NVLink hop
        assert_eq!(topo.route(0, 1).len(), 1);
        assert_eq!(topo.link(topo.route(0, 1)[0]).class, LinkClass::NvLink);
        // same node, different island: member → leader is not needed for
        // leaders themselves; 2→0 crosses its island leader
        let hops: Vec<LinkClass> = topo
            .route(1, 3)
            .iter()
            .map(|&id| topo.link(id).class)
            .collect();
        assert!(hops.contains(&LinkClass::Pcie), "{hops:?}");
        assert!(!hops.contains(&LinkClass::Ib), "{hops:?}");
        // different node: exactly one IB hop on the route
        let hops: Vec<LinkClass> = topo
            .route(1, 7)
            .iter()
            .map(|&id| topo.link(id).class)
            .collect();
        assert_eq!(
            hops.iter().filter(|&&c| c == LinkClass::Ib).count(),
            1,
            "{hops:?}"
        );
    }

    #[test]
    fn routes_are_symmetric_and_triangle_holds() {
        let topo = LinkTopology::parse("nvlink{gpus:8, island:2, node:4}").expect("valid spec");
        let bytes = (1u64 << 26) + 3;
        for a in 0..8 {
            for b in 0..8 {
                let ab = topo.transfer_secs(a, b, bytes);
                let ba = topo.transfer_secs(b, a, bytes);
                assert_eq!(ab.to_bits(), ba.to_bits(), "{a}->{b}");
                for c in 0..8 {
                    let via = topo.transfer_secs(a, c, bytes) + topo.transfer_secs(c, b, bytes);
                    assert!(ab <= via + 1e-12, "{a}->{b} via {c}: {ab} > {via}");
                }
            }
        }
    }

    #[test]
    fn island_and_node_accounting() {
        let topo = LinkTopology::parse("nvlink{gpus:8, island:2, node:4}").expect("valid spec");
        assert_eq!(topo.num_islands(), 4);
        assert_eq!(topo.num_nodes(), 2);
        assert!(topo.same_island(0, 1) && !topo.same_island(1, 2));
        assert!(topo.same_node(0, 3) && !topo.same_node(3, 4));
        assert!(topo.crosses_node(0, 7) && !topo.crosses_node(0, 2));
        assert!(!topo.is_single_island());
        assert!(LinkTopology::nvlink(4, 4).is_single_island());
    }

    #[test]
    fn spec_round_trips() {
        let topo = LinkTopology::parse(
            "nvlink{gpus:8, island:2, node:4, nv:150@1.5, pcie:12@4, ib:23@30}",
        )
        .expect("valid spec");
        assert_eq!(topo.nvlink_spec(), LinkSpec::new(150.0, 1.5));
        let spec = topo.to_spec();
        let again = LinkTopology::parse(&spec).expect("own spec parses");
        assert_eq!(again, topo);
        assert_eq!(again.to_spec(), spec, "format is a fixed point");
        // defaults apply for omitted keys
        let short = LinkTopology::parse("nvlink{gpus:4, island:2}").unwrap();
        assert_eq!(short.nvlink_spec(), LinkSpec::nvlink_default());
        assert_eq!(short.node_size(), 4);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(LinkTopology::parse("mesh{gpus:4}").is_err());
        assert!(
            LinkTopology::parse("nvlink{island:2}").is_err(),
            "gpus required"
        );
        assert!(LinkTopology::parse("nvlink{gpus:0}").is_err());
        assert!(LinkTopology::parse("nvlink{gpus:4, island:8}").is_err());
        assert!(LinkTopology::parse("nvlink{gpus:8, island:3, node:4}").is_err());
        assert!(LinkTopology::parse("nvlink{gpus:4, nv:fast}").is_err());
        assert!(LinkTopology::parse("nvlink{gpus:4, nv:0@1}").is_err());
        assert!(LinkTopology::parse("nvlink{gpus:4, warp:9}").is_err());
    }

    #[test]
    fn route_charges_break_down_the_total() {
        let topo = LinkTopology::nvlink(8, 4);
        let bytes = 1u64 << 24;
        let charges = topo.route_charges(1, 6, bytes);
        let total: f64 = charges.iter().map(|(_, s)| s).sum();
        assert_eq!(total.to_bits(), topo.transfer_secs(1, 6, bytes).to_bits());
        assert!(charges.len() >= 2, "cross-island route has multiple hops");
    }
}
