//! Projected-temperature load balancing within a set of servers.

use vmt_dcsim::{ClusterIndex, ServerFarm};

/// Children per tournament-tree node.
///
/// Eight `u64` keys are exactly one 64-byte cache line, so picking a
/// node's winner is a single-line linear scan. The wider fan-out also
/// flattens the tree: 1000 servers need 4 scan levels instead of the 10
/// pointer-hops of a binary tree, and the internal levels together hold
/// ~1/7th of the leaf count, keeping the whole structure cache-resident.
const FANOUT: usize = 8;

/// Default leaves per zone slab when `VMT_BALANCER_LAYOUT=zoned` names
/// no span: `8^4`, so a zone is exactly four full tournament levels
/// with zero padding waste (`4096 + 512 + 64 + 8 = 4680` slots
/// ≈ 36.6 KB of keys — two zones fit in a 256 KB L2 with room to
/// spare).
const ZONE_SPAN: usize = 4096;

/// Memory layout of a [`ThermalBalancer`]'s tournament tree.
///
/// The layout is a pure performance choice: every layout computes the
/// exact same `(key, idx)` argmin (pinned by the zoned-vs-flat tests
/// below and the differential suites), so it can be switched freely —
/// per balancer via [`ThermalBalancer::set_layout`] or process-wide via
/// the `VMT_BALANCER_LAYOUT` environment variable (`flat`, `zoned`, or
/// `zoned:<span>` with a power-of-8 span) — without ever perturbing
/// placement streams, digests, or snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BalancerLayout {
    /// The flat tree, unless `VMT_BALANCER_LAYOUT` overrides it.
    ///
    /// Flat measured fastest at every scale tried (10k–1M leaves,
    /// single-threaded): a global argmin's path refreshes hop zones
    /// freely, so the zoned layout gets no slab locality, while its
    /// per-zone mid levels are replicated copies that stay colder than
    /// the flat tree's shared upper levels (~4% slower placement at
    /// 100k, ~14% slower argmin at 1M). The zoned layout is kept as a
    /// correctness-pinned, selectable representation, not as the
    /// default. Parallel placement does not use it: the VMT policies
    /// place their hot and cold groups at the same time on two flat
    /// balancers, one per group (`crate::streams`).
    #[default]
    Auto,
    /// One flat tournament tree over all leaves (the pre-zoning
    /// layout).
    Flat,
    /// Zone-sharded: per-zone trees over `span`-leaf slabs plus a
    /// top-level leader tournament. `span` must be a power of 8.
    Zoned {
        /// Leaves per zone; a power of 8 (8, 64, 512, 4096, …).
        span: usize,
    },
}

impl BalancerLayout {
    /// The process-wide override from `VMT_BALANCER_LAYOUT`, or `Auto`
    /// when unset or unparseable. Read (deliberately uncached) at every
    /// tree resize: the layout never affects results, so a mid-run
    /// change is benign.
    fn from_env() -> Self {
        match std::env::var("VMT_BALANCER_LAYOUT") {
            Ok(v) if v == "flat" => Self::Flat,
            Ok(v) if v == "zoned" => Self::Zoned { span: ZONE_SPAN },
            Ok(v) => match v
                .strip_prefix("zoned:")
                .and_then(|s| s.parse::<usize>().ok())
            {
                Some(span) if is_power_of_eight(span) => Self::Zoned { span },
                _ => Self::Auto,
            },
            Err(_) => Self::Auto,
        }
    }
}

/// True for 8, 64, 512, 4096, … — the valid zone spans (each zone must
/// be a whole number of full [`FANOUT`]-ary levels).
fn is_power_of_eight(n: usize) -> bool {
    n >= FANOUT && n.is_power_of_two() && n.trailing_zeros().is_multiple_of(3)
}

/// Balances placements across a set of servers by *projected
/// steady-state temperature*.
///
/// Each member's key starts at the steady-state temperature its current
/// power draw is heading toward (`inlet + P/(ṁ·c_p)`); every placement
/// bumps the chosen member's key by the temperature rise one more core
/// of that power will eventually produce. Placing on the minimum key
/// therefore equalizes *temperatures*, not job counts — which is what
/// "distribute jobs evenly" has to mean once server inlet temperatures
/// vary (a server fed 2 °C warmer air gets proportionally less load).
///
/// Used by [`crate::CoolestFirst`] over the whole cluster and by the VMT
/// policies within each group.
///
/// Internally a [`FANOUT`]-ary tournament tree over the server ids:
/// leaf `i` holds member `i`'s current key as a raw `f64`
/// (`f64::INFINITY` for non-members and members out of cores), and each
/// internal node the `min (key, idx)` winner of its `FANOUT` children.
/// A placement reads the root winner and refreshes one leaf-to-root
/// path — each level a left-to-right scan of one contiguous child
/// group, so "first strict minimum wins" is exactly the `(key, idx)`
/// tie-break. The path refresh stops early at the first node whose
/// `(key, winner)` comes out unchanged, since every ancestor above it
/// is then already consistent. The winner is a pure function of the
/// current key set, so placement order is identical to a full argmin
/// scan's (see the naive references and `tests/differential.rs`).
///
/// Two memory layouts compute that tree ([`BalancerLayout`]):
///
/// * **Flat** (the default) — every level is one contiguous padded
///   array, leaves first, root last. The leaf and first internal
///   levels fall out of L2 at 100k+ leaves, but the upper levels are
///   shared by every path and stay hot, and the placement loop's
///   [`ThermalBalancer::prefetch_member`] hints cover the cold lines.
/// * **Zone-sharded** — leaves are split into contiguous `span`-leaf
///   zones (ascending server ids, so zone winners inherit the global
///   leftmost-on-tie rule), each zone's full tree packed into one
///   contiguous slab; a small leader tournament over the zone roots is
///   appended *last*, so `key.last()`/`win.last()` remain the global
///   root in both layouts, and the `win[]` column stores *global* leaf
///   ids everywhere so the winner needs no per-layout translation.
///   Measured *slower* than flat for the engine's placement streams
///   (see [`BalancerLayout::Auto`]) and therefore opt-in; the
///   layout-differential tests pin it decision-for-decision to the
///   flat tree so it stays a pure memory-layout choice.
#[derive(Debug, Clone, Default)]
pub struct ThermalBalancer {
    /// Node keys for every conceptual level. Keys are finite projected
    /// temperatures stored as raw `f64` — `<` orders them exactly and
    /// `f64::INFINITY` is the retired/padding sentinel, so no
    /// total-order bit encoding is needed on the hot path. Slots past a
    /// level's real node count pad it to a multiple of [`FANOUT`] and
    /// stay `f64::INFINITY` forever. Empty until the first rebuild.
    ///
    /// A live leaf *is* its member's projected temperature — key and
    /// projection were historically separate arrays whose live entries
    /// were always bit-equal, so merging them dropped one random
    /// 800 KB-array touch from every placement at 100k servers. A
    /// member whose leaf is retired (out of cores) has no projection on
    /// record, which is sound: every reader either just placed on the
    /// member (leaf live) or has checked it still has free cores —
    /// within a tick free cores only shrink, so a retired leaf can
    /// never pass that check.
    key: Vec<f64>,
    /// Winning *global* leaf index per node, same storage layout as
    /// `key`; leaf-level entries are unused (a leaf's winner is
    /// itself), the last entry is the overall winner.
    win: Vec<u32>,
    /// Conceptual (padded) node count per level, leaves first, root
    /// (always 1) last. Shared by both layouts; `level_nodes[l - 1] /
    /// FANOUT` is the number of *real* parents at level `l`. Empty
    /// until the first rebuild — the "needs resize" sentinel.
    level_nodes: Vec<usize>,
    /// Number of levels stored inside the per-zone slabs (0 in the flat
    /// layout, `log8(span)` when zoned — the zone-root level itself
    /// lives in the leader area as the leader's leaf level, so a zone
    /// root has exactly one storage slot).
    zone_levels: usize,
    /// Leaves per zone (0 in the flat layout).
    span: usize,
    /// Total slots per zone slab (0 in the flat layout).
    slab: usize,
    /// Start offset of each in-slab level *within* a zone slab.
    zslab_off: Vec<usize>,
    /// Zone count (1 in the flat layout).
    zones: usize,
    /// Absolute start offset of each leader-area level inside
    /// `key`/`win`. In the flat layout this is the whole tree (the
    /// "leader" tree over all leaves); when zoned it sits after the
    /// zone slabs, its leaf level holding the zone roots.
    leader_off: Vec<usize>,
    /// Leaf count the tree was laid out for (the farm size).
    leaves: usize,
    /// Layout request; resolved against the farm size (and the
    /// `VMT_BALANCER_LAYOUT` override) at resize time.
    layout: BalancerLayout,
    /// Memoized [`static_bias`] per server id, so per-tick rebuilds pay
    /// one table read instead of a hash mix per member.
    bias: Vec<f64>,
    /// Inverse of the air stream's capacity rate (K/W).
    kelvin_per_watt: f64,
}

/// Occupancy penalty added to the balancing key per used core (kelvin).
///
/// Pure temperature keys have a failure mode at high utilization: a
/// low-power (cold) job barely moves the projection, so the momentarily
/// coolest server swallows an entire batch of cold jobs until its cores
/// run out — after which hot jobs have nowhere to go but the remaining
/// (hot) servers, and the cluster bifurcates. A small per-core penalty
/// makes the key "temperature plus a whiff of occupancy", spreading
/// same-temperature placements across members while leaving real
/// temperature differences (≥ a few tenths of a kelvin) decisive.
const CORE_PENALTY_K: f64 = 0.05;

/// Amplitude of the static per-server key bias (kelvin).
///
/// Perfect balancing has a second failure mode: every member of a group
/// melts its wax at exactly the same time, so the whole group saturates
/// in one tick and the cluster's absorption collapses as a step. Real
/// servers are never bit-identical — component tolerances and airflow
/// give each a slightly different thermal operating point — which
/// staggers saturation. A deterministic ±0.4 K bias derived from the
/// server id reproduces that spread.
const STATIC_BIAS_K: f64 = 0.4;

/// Deterministic per-server bias in `[-STATIC_BIAS_K, +STATIC_BIAS_K]`.
pub(crate) fn static_bias(idx: usize) -> f64 {
    // splitmix64 of the index → uniform in [0,1).
    let mut z = (idx as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z % 10_000) as f64 / 10_000.0 - 0.5) * 2.0 * STATIC_BIAS_K
}

/// Orders f64 values as u64 keys (standard sign-flip trick; total order
/// for all non-NaN values). The tree stores raw `f64` keys; this stays
/// as the naive reference scan's key encoding (`crate::reference`).
pub(crate) fn order_bits(value: f64) -> u64 {
    let bits = value.to_bits();
    if value >= 0.0 {
        bits | 0x8000_0000_0000_0000
    } else {
        !bits
    }
}

/// Inverse of the air stream's capacity rate (K/W) — uniform across the
/// farm, as the fleet is homogeneous in the paper's configuration.
pub(crate) fn kelvin_per_watt(farm: &ServerFarm) -> f64 {
    if farm.is_empty() {
        1.0
    } else {
        1.0 / farm.air().capacity_rate().get()
    }
}

/// The balancing key a member starts the tick with: projected
/// steady-state temperature plus occupancy penalty, anti-synchronization
/// bias, and any caller-supplied extra bias.
///
/// Shared between [`ThermalBalancer`] and the naive-scan reference
/// schedulers (`crate::reference`) so both compute byte-identical keys —
/// the differential tests compare full `SimulationResult`s, so even a
/// one-ULP divergence from reassociated arithmetic would show up.
pub(crate) fn fresh_key(idx: usize, extra: f64, kpw: f64, farm: &ServerFarm) -> f64 {
    fresh_key_biased(idx, extra, kpw, farm, static_bias(idx))
}

/// [`fresh_key`] with the static bias supplied by the caller (the
/// balancer's memoized table). The summation order matches [`fresh_key`]
/// term for term, so both paths produce byte-identical keys.
#[inline]
fn fresh_key_biased(idx: usize, extra: f64, kpw: f64, farm: &ServerFarm, bias: f64) -> f64 {
    farm.inlet(idx).get()
        + farm.power(idx).get() * kpw
        + f64::from(farm.used_cores(idx)) * CORE_PENALTY_K
        + bias
        + extra
}

/// Key increase from placing one job drawing `core_power_w` — shared with
/// the naive references for the same reason as [`fresh_key`].
pub(crate) fn bump(core_power_w: f64, kpw: f64) -> f64 {
    core_power_w * kpw + CORE_PENALTY_K
}

impl ThermalBalancer {
    /// Creates an empty balancer with the [`BalancerLayout::Auto`]
    /// layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a tree layout; applied at the next rebuild. Purely a
    /// memory-layout choice — the argmin sequence is identical under
    /// every layout — so this exists for benchmarks and the
    /// layout-differential tests, not for tuning results.
    pub fn set_layout(&mut self, layout: BalancerLayout) {
        self.layout = layout;
        // Force a resize on the next rebuild.
        self.level_nodes = Vec::new();
    }

    /// Zone count of the current tree (1 under the flat layout).
    /// Diagnostic only.
    pub fn zone_count(&self) -> usize {
        self.zones.max(1)
    }

    /// The zone span the requested layout resolves to, or `None` for
    /// the flat layout.
    fn resolved_span(&self) -> Option<usize> {
        let requested = match self.layout {
            BalancerLayout::Auto => BalancerLayout::from_env(),
            other => other,
        };
        match requested {
            BalancerLayout::Flat | BalancerLayout::Auto => None,
            BalancerLayout::Zoned { span } => Some(span),
        }
    }

    /// Total conceptual level count, leaves through root.
    #[inline]
    fn levels(&self) -> usize {
        self.zone_levels + self.leader_off.len()
    }

    /// Storage slot of the node at conceptual position `pos` of
    /// conceptual level `lvl`.
    ///
    /// Conceptual positions are layout-independent: the level-`lvl`
    /// ancestor of leaf `i` sits at position `i / FANOUT^lvl`, exactly
    /// the flat tree's numbering. In-slab levels map a position to
    /// `(zone, within-zone)` by shifting (a zone holds `span >>
    /// (3·lvl)` nodes at level `lvl`, always a power of 8), leader
    /// levels are stored contiguously. A [`FANOUT`]-aligned group is
    /// contiguous in storage at every level — in-slab per-zone node
    /// counts are powers of 8 ≥ [`FANOUT`], so a group never straddles
    /// a zone boundary.
    #[inline]
    fn node_slot(&self, lvl: usize, pos: usize) -> usize {
        if lvl >= self.zone_levels {
            return self.leader_off[lvl - self.zone_levels] + pos;
        }
        let bits = 3 * (self.zone_levels - lvl);
        let zone = pos >> bits;
        let within = pos & ((1usize << bits) - 1);
        zone * self.slab + self.zslab_off[lvl] + within
    }

    /// Storage slot of member `idx`'s leaf. Specialized from
    /// [`ThermalBalancer::node_slot`]: the flat tree stores leaves at
    /// the very front (`leader_off[0] == 0`) and a zone slab stores its
    /// leaves first (`zslab_off[0] == 0`), so neither offset table is
    /// consulted on this per-placement path.
    #[inline]
    fn leaf_slot(&self, idx: usize) -> usize {
        if self.zone_levels == 0 {
            idx
        } else {
            (idx / self.span) * self.slab + (idx & (self.span - 1))
        }
    }

    /// Re-sizes the tree for a farm of `n` servers: resolves the
    /// layout, computes the padded level structure, and memoizes the
    /// static-bias table.
    fn resize(&mut self, n: usize) {
        self.leaves = n;
        self.bias = (0..n).map(static_bias).collect();
        // Pad every level to a multiple of FANOUT so each node's child
        // scan is one full, aligned group; the final level is the root.
        let flat_sizes = |leaves: usize| {
            let mut sizes = vec![leaves.max(1).next_multiple_of(FANOUT)];
            while *sizes.last().expect("non-empty") > FANOUT {
                sizes.push((sizes.last().expect("non-empty") / FANOUT).next_multiple_of(FANOUT));
            }
            sizes.push(1);
            sizes
        };
        match self.resolved_span() {
            None => {
                // Flat: the "leader" tree spans all leaves directly.
                self.zone_levels = 0;
                self.span = 0;
                self.slab = 0;
                self.zslab_off = Vec::new();
                self.zones = 1;
                let sizes = flat_sizes(n);
                let mut off = 0;
                self.leader_off = sizes
                    .iter()
                    .map(|&s| {
                        let o = off;
                        off += s;
                        o
                    })
                    .collect();
                self.level_nodes = sizes;
                self.key = vec![f64::INFINITY; off];
                self.win = vec![0; off];
            }
            Some(span) => {
                debug_assert!(is_power_of_eight(span), "zone span must be a power of 8");
                let zones = n.div_ceil(span).max(1);
                let zone_levels = (span.trailing_zeros() / 3) as usize;
                self.zone_levels = zone_levels;
                self.span = span;
                self.zones = zones;
                // In-slab levels: span, span/8, …, FANOUT — each zone's
                // root is *not* stored in the slab, it is the leader
                // tree's leaf for that zone.
                let mut off = 0;
                self.zslab_off = (0..zone_levels)
                    .map(|l| {
                        let o = off;
                        off += span >> (3 * l);
                        o
                    })
                    .collect();
                self.slab = off;
                let leader_sizes = flat_sizes(zones);
                let mut abs = zones * self.slab;
                self.leader_off = leader_sizes
                    .iter()
                    .map(|&s| {
                        let o = abs;
                        abs += s;
                        o
                    })
                    .collect();
                self.level_nodes = (0..zone_levels)
                    .map(|l| zones * (span >> (3 * l)))
                    .chain(leader_sizes)
                    .collect();
                // Padding slots hold f64::INFINITY from day one and are
                // never rewritten (rebuilds only touch real leaves and
                // real parents), so they can never win a scan.
                self.key = vec![f64::INFINITY; abs];
                self.win = vec![0; abs];
            }
        }
    }

    /// Rebuilds the balancer over `members` (server ids) for the current
    /// tick.
    pub fn rebuild(&mut self, members: impl IntoIterator<Item = usize>, farm: &ServerFarm) {
        self.rebuild_biased(members.into_iter().map(|idx| (idx, 0.0)), farm);
    }

    /// Rebuilds over `(member, extra_bias_kelvin)` pairs. A positive bias
    /// makes a member systematically less attractive, shifting its
    /// equilibrium share of the load down without ever removing it —
    /// VMT-WA uses this to bleed load off saturated servers gradually.
    pub fn rebuild_biased(
        &mut self,
        members: impl IntoIterator<Item = (usize, f64)>,
        farm: &ServerFarm,
    ) {
        let n = farm.len();
        if self.leaves != n || self.level_nodes.is_empty() {
            self.resize(n);
        }
        self.kelvin_per_watt = kelvin_per_watt(farm);
        if self.zone_levels == 0 {
            self.key[..self.level_nodes[0]].fill(f64::INFINITY);
        } else {
            for z in 0..self.zones {
                let start = z * self.slab;
                self.key[start..start + self.span].fill(f64::INFINITY);
            }
        }
        for (idx, extra) in members {
            if farm.free_cores(idx) > 0 {
                let slot = self.leaf_slot(idx);
                self.key[slot] =
                    fresh_key_biased(idx, extra, self.kelvin_per_watt, farm, self.bias[idx]);
            }
        }
        self.rebuild_internal();
    }

    /// Bottom-up rebuild of every internal node, O(leaves / 7).
    fn rebuild_internal(&mut self) {
        for lvl in 1..self.levels() {
            // Real parents only: padded slots at `lvl` (e.g. leader
            // leaves past the last zone) keep their INFINITY sentinel.
            let parents = self.level_nodes[lvl - 1] / FANOUT;
            for pos in 0..parents {
                let (bk, bw) = self.scan_group(lvl - 1, pos * FANOUT);
                let slot = self.node_slot(lvl, pos);
                self.key[slot] = bk;
                self.win[slot] = bw;
            }
        }
    }

    /// Winner of the [`FANOUT`]-aligned group of conceptual level `lvl`
    /// starting at conceptual position `base`.
    #[inline]
    fn scan_group(&self, lvl: usize, base: usize) -> (f64, u32) {
        let slot = self.node_slot(lvl, base);
        if lvl == 0 {
            self.scan_leaves(slot, base as u32)
        } else {
            self.scan_nodes(slot)
        }
    }

    /// Winner of the leaf group stored at `slot_base`, whose first
    /// member is global leaf `leaf_base`: a leaf's winner is its own
    /// index, so the `win` column is not consulted.
    #[inline]
    fn scan_leaves(&self, slot_base: usize, leaf_base: u32) -> (f64, u32) {
        let g: [f64; FANOUT] = self.key[slot_base..slot_base + FANOUT]
            .try_into()
            .expect("full group");
        // Pairwise tree reduction: three select levels instead of a
        // seven-deep compare chain, and branchless (winner position is
        // data-dependent, so a branch would mispredict constantly).
        // Strict `<` keeps the leftmost winner on ties at every level,
        // which composes to the global leftmost — the `(key, idx)`
        // tie-break.
        let sel = |a: (f64, u32), b: (f64, u32)| if b.0 < a.0 { b } else { a };
        let q0 = sel((g[0], 0), (g[1], 1));
        let q1 = sel((g[2], 2), (g[3], 3));
        let q2 = sel((g[4], 4), (g[5], 5));
        let q3 = sel((g[6], 6), (g[7], 7));
        let (bk, t) = sel(sel(q0, q1), sel(q2, q3));
        (bk, leaf_base + t)
    }

    /// Winner of the internal-node group stored at `slot_base`. The
    /// `win` column holds global leaf ids at every internal level (zone
    /// and leader alike), so the winner propagates without translation.
    #[inline]
    fn scan_nodes(&self, slot_base: usize) -> (f64, u32) {
        let g: [f64; FANOUT] = self.key[slot_base..slot_base + FANOUT]
            .try_into()
            .expect("full group");
        let sel = |a: (f64, u32), b: (f64, u32)| if b.0 < a.0 { b } else { a };
        let q0 = sel((g[0], 0), (g[1], 1));
        let q1 = sel((g[2], 2), (g[3], 3));
        let q2 = sel((g[4], 4), (g[5], 5));
        let q3 = sel((g[6], 6), (g[7], 7));
        let (bk, t) = sel(sel(q0, q1), sel(q2, q3));
        (bk, self.win[slot_base + t as usize])
    }

    /// Adds a member mid-tick (VMT-WA's hot-group growth).
    pub fn add_member(&mut self, idx: usize, farm: &ServerFarm) {
        if farm.free_cores(idx) > 0 {
            let slot = self.leaf_slot(idx);
            self.key[slot] = fresh_key_biased(idx, 0.0, self.kelvin_per_watt, farm, self.bias[idx]);
            self.refresh_path(idx);
        }
    }

    /// Re-evaluates the winners on the path from leaf `idx` to the
    /// root, stopping at the first node whose `(key, winner)` comes out
    /// unchanged — everything above is then already consistent. Under
    /// the zoned layout the first `zone_levels` steps stay inside one
    /// zone slab and the rest walk the (cache-resident) leader levels;
    /// an unchanged zone root short-circuits the leader walk entirely.
    #[inline]
    fn refresh_path(&mut self, idx: usize) {
        // Dispatch once per refresh instead of mapping slots through
        // [`ThermalBalancer::node_slot`] at every level: the generic
        // mapping's layout branch and offset-table loads, twice per
        // level on this path, measurably slowed 100k-scale placement
        // (~18% on the placement phase) versus the specialized walks.
        if self.zone_levels == 0 {
            self.refresh_path_flat(idx);
        } else {
            self.refresh_path_zoned(idx);
        }
    }

    /// [`ThermalBalancer::refresh_path`] for the flat layout: every
    /// level is one contiguous array at `leader_off[lvl]`, so a parent
    /// slot is a single add.
    fn refresh_path_flat(&mut self, idx: usize) {
        let levels = self.leader_off.len();
        let mut group = idx / FANOUT;
        let (mut bk, mut bw) = self.scan_leaves(group * FANOUT, (group * FANOUT) as u32);
        for lvl in 1..levels {
            let parent = self.leader_off[lvl] + group;
            if self.key[parent] == bk && self.win[parent] == bw {
                return;
            }
            self.key[parent] = bk;
            self.win[parent] = bw;
            if lvl + 1 == levels {
                return;
            }
            group /= FANOUT;
            let base = self.leader_off[lvl] + group * FANOUT;
            (bk, bw) = self.scan_nodes(base);
        }
    }

    /// [`ThermalBalancer::refresh_path`] for the zoned layout: the
    /// zone's slab base is computed once and the in-slab walk indexes
    /// off it; the zone root and everything above is a flat walk over
    /// the leader tree with the zone index playing the leaf index.
    fn refresh_path_zoned(&mut self, idx: usize) {
        let zone_base = (idx / self.span) * self.slab;
        let mut within = idx & (self.span - 1);
        let (mut bk, mut bw) = self.scan_leaves(
            zone_base + (within & !(FANOUT - 1)),
            (idx & !(FANOUT - 1)) as u32,
        );
        for lvl in 1..self.zone_levels {
            within /= FANOUT;
            let parent = zone_base + self.zslab_off[lvl] + within;
            if self.key[parent] == bk && self.win[parent] == bw {
                return;
            }
            self.key[parent] = bk;
            self.win[parent] = bw;
            // A zone root always exists above the slab, so the group
            // scan feeding the next level is never skipped here.
            (bk, bw) = self.scan_nodes(parent - (within & (FANOUT - 1)));
        }
        let levels = self.leader_off.len();
        let mut group = idx / self.span;
        for lvl in 0..levels {
            let parent = self.leader_off[lvl] + group;
            if self.key[parent] == bk && self.win[parent] == bw {
                return;
            }
            self.key[parent] = bk;
            self.win[parent] = bw;
            if lvl + 1 == levels {
                return;
            }
            group /= FANOUT;
            let base = self.leader_off[lvl] + group * FANOUT;
            (bk, bw) = self.scan_nodes(base);
        }
    }

    /// Places one job drawing `core_power_w` on the coolest-projected
    /// member with a free core, or returns `None` when every member is
    /// full. `free` reports a member's currently free cores; the winner
    /// is the member minimizing `(key, idx)` among those with a live
    /// leaf, which is exactly the members still holding a free core —
    /// a leaf is retired (set to `f64::INFINITY`) the moment its last core is
    /// consumed, and the `free` re-check below catches cores taken by
    /// fallback paths that bypass the balancer.
    pub(crate) fn place_by(
        &mut self,
        free: impl Fn(usize) -> u32,
        core_power_w: f64,
    ) -> Option<usize> {
        loop {
            let &root_key = self.key.last()?;
            if root_key == f64::INFINITY {
                return None;
            }
            let idx = *self.win.last().expect("win matches key") as usize;
            let slot = self.leaf_slot(idx);
            if free(idx) == 0 {
                // A fallback path consumed this member's cores behind the
                // balancer's back; retire the leaf and look again.
                self.key[slot] = f64::INFINITY;
                self.refresh_path(idx);
                continue;
            }
            let bumped = self.key[slot] + bump(core_power_w, self.kelvin_per_watt);
            // One core is consumed by this placement; stay in the tree
            // only if capacity remains afterwards.
            self.key[slot] = if free(idx) > 1 { bumped } else { f64::INFINITY };
            self.refresh_path(idx);
            return Some(idx);
        }
    }

    /// [`ThermalBalancer::place_by`] reading free cores from the farm.
    pub fn place(&mut self, farm: &ServerFarm, core_power_w: f64) -> Option<usize> {
        self.place_by(|idx| farm.free_cores(idx), core_power_w)
    }

    /// [`ThermalBalancer::place_by`] reading free cores from the engine's
    /// [`ClusterIndex`] — a flat array probe instead of chasing through
    /// `Server`'s substructures, for the indexed scheduler fast path.
    pub fn place_indexed(&mut self, index: &ClusterIndex, core_power_w: f64) -> Option<usize> {
        let free = index.free_cores();
        self.place_by(|idx| free[idx], core_power_w)
    }

    /// Accounts for a placement made *outside* the balancer (e.g.
    /// VMT-WA's keep-warm priority path), so the member's projection
    /// stays truthful for subsequent balanced placements. Free cores
    /// are read from the engine's [`ClusterIndex`].
    pub fn account_external_indexed(
        &mut self,
        idx: usize,
        core_power_w: f64,
        index: &ClusterIndex,
    ) {
        self.account_external_by(idx, core_power_w, index.free_cores()[idx]);
    }

    /// [`ThermalBalancer::account_external_indexed`] given the member's
    /// free cores before the placement.
    pub(crate) fn account_external_by(&mut self, idx: usize, core_power_w: f64, free: u32) {
        if idx >= self.leaves {
            return;
        }
        let slot = self.leaf_slot(idx);
        // The caller verified `free > 0`, so the leaf is live and its
        // key is the member's current projection.
        let bumped = self.key[slot] + bump(core_power_w, self.kelvin_per_watt);
        // The pending external placement consumes one core; the member
        // stays placeable only if capacity remains afterwards.
        self.key[slot] = if free > 1 { bumped } else { f64::INFINITY };
        self.refresh_path(idx);
    }

    /// True when no member can take another job this tick.
    pub fn is_exhausted(&self) -> bool {
        self.key.last().is_none_or(|&k| k == f64::INFINITY)
    }

    /// The member the next [`ThermalBalancer::place`] will pick, if any
    /// — the tree's current root winner. Purely observational: the next
    /// placement re-reads the root itself, so a caller using this as a
    /// prefetch target never perturbs the decision sequence. The
    /// prediction can be wrong when an out-of-band path (keep-warm,
    /// fallback retirement) runs first; a wrong hint costs one wasted
    /// cache fill and nothing else.
    pub fn peek(&self) -> Option<usize> {
        let &root = self.key.last()?;
        if root == f64::INFINITY {
            return None;
        }
        Some(*self.win.last().expect("win matches key") as usize)
    }

    /// The `k` members with the lowest current keys, best first —
    /// the tournament the next placement would run, made visible for
    /// decision tracing.
    ///
    /// Purely observational (no tree mutation) and cheap: a best-first
    /// descent from the root expands only nodes that can still beat the
    /// `k`-th emitted leaf — O(k · FANOUT · depth) node reads instead
    /// of an O(leaves) scan, which matters when a traced run asks for
    /// candidates on every sampled job of a 10k-server tick. Ties are
    /// broken toward the leftmost descendant leaf, matching the tree's
    /// own leftmost-winner rule, so the first entry is exactly
    /// [`ThermalBalancer::peek`]'s prediction.
    pub fn top_candidates(&self, k: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.top_candidates_into(k, &mut out);
        out
    }

    /// [`ThermalBalancer::top_candidates`] into a caller-owned buffer,
    /// so a traced placement loop can reuse one scratch allocation
    /// across every sampled job of a batch.
    pub fn top_candidates_into(&self, k: usize, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let Some(&root_key) = self.key.last() else {
            return;
        };
        if k == 0 || root_key == f64::INFINITY {
            return;
        }
        let top = self.levels() - 1;
        // Lazy tournament extraction, leaning on the `win` cache: a
        // pool entry is a *concrete leaf* — some subtree's cached
        // winner — plus the level its subtree hung off an emitted
        // winner's path, which is all that's needed to expand the
        // rest of that subtree later. Emitting the pool minimum and
        // expanding only the 7 per-level losers along the emitted
        // leaf's path visits ~`k · (FANOUT-1) · depth` node keys with
        // *address-independent* group reads (every group on a path is
        // computable from the leaf index alone, so the walk is hinted
        // up front) — against a best-first descent whose every level
        // is a dependent cache miss. This runs per sampled job on
        // traced runs, where that latency chain once dominated the
        // whole tracing overhead.
        //
        // The walk is over *conceptual* levels, so it is layout-blind:
        // under the zoned layout a path's low levels resolve into one
        // zone slab and the high levels into the leader area, and the
        // leader-level siblings of an emitted leaf are whole other
        // zones — still disjoint subtrees with cached winners, so the
        // pool-capping argument below is unchanged.
        //
        // Pool order is the packed `(order_bits(key), leaf)` in one
        // `u128`, so a single integer compare decides both the key
        // order and the leftmost (lowest-id) tie-break — identical to
        // the tree's own `(key, idx)` winner rule. Capping the pool at
        // `k` is sound because pool subtrees are disjoint and an entry
        // is its subtree's *best* leaf: each of `k` better-or-equal
        // entries guarantees one leaf that beats every leaf of the
        // dropped entry's subtree.
        let root_leaf = *self.win.last().expect("win matches key") as usize;
        let mut pool: Vec<(u128, f64, u8)> = Vec::with_capacity(k.min(64) + 1);
        pool.push((
            (order_bits(root_key) as u128) << 64 | root_leaf as u128,
            root_key,
            top as u8,
        ));
        while out.len() < k && !pool.is_empty() {
            let (sort, key, lvl) = pool.remove(0);
            let leaf = (sort & u64::MAX as u128) as usize;
            out.push((leaf, key));
            if out.len() >= k {
                break;
            }
            // The rest of the emitted entry's subtree, exactly: at
            // each level below where it hung off, the emitted leaf's
            // path crosses one node; that node's `FANOUT - 1` losing
            // siblings partition the remaining leaves into disjoint
            // subtrees, and each sibling's own winner is cached.
            // Scan top-down: a high-level sibling's key is a whole
            // subtree's minimum — the strongest competitors live
            // there — so visiting those first tightens the pre-reject
            // threshold for the (far more numerous) low-level visits,
            // and leaves the rest of the walk as prefetch distance
            // for the hints issued when such a sibling is inserted.
            // The final pool is order-independent (a running top-k),
            // so this changes cost, never results.
            let mut path = [0usize; 21];
            let mut pos = leaf;
            for slot in path.iter_mut().take(lvl as usize) {
                *slot = pos;
                pos /= FANOUT;
            }
            for l in (0..lvl as usize).rev() {
                let pos = path[l];
                let group = (pos / FANOUT) * FANOUT;
                let group_slot = self.node_slot(l, group);
                for node in group..group + FANOUT {
                    if node == pos {
                        continue;
                    }
                    let node_key = self.key[group_slot + (node - group)];
                    if node_key == f64::INFINITY {
                        continue;
                    }
                    let bits = order_bits(node_key);
                    // Cheap pre-reject on the key bits alone before
                    // touching `win`; ties fall through to the full
                    // packed compare.
                    if pool.len() >= k {
                        let (worst, _, _) = *pool.last().expect("nonempty");
                        if (bits as u128) << 64 > worst {
                            continue;
                        }
                    }
                    let node_leaf = if l == 0 {
                        node
                    } else {
                        self.win[group_slot + (node - group)] as usize
                    };
                    let sort = (bits as u128) << 64 | node_leaf as u128;
                    let at = pool.partition_point(|&(e, _, _)| e < sort);
                    if at < k {
                        if pool.len() == k {
                            pool.pop();
                        }
                        // Hint the inserted entry's own winner path now
                        // — the rest of this walk runs before it can be
                        // popped, which is exactly the distance a
                        // prefetch needs. (The first emission's path is
                        // the tree's winner path, already hot from the
                        // placement loop's `prefetch_member` hints.)
                        #[cfg(target_arch = "x86_64")]
                        if l > 0 {
                            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                            let mut group = node_leaf / FANOUT;
                            for pl in 0..l {
                                let base = self.node_slot(pl, group * FANOUT);
                                // SAFETY: `base` addresses a full padded
                                // group inside `key`/`win` (layout
                                // invariant above); prefetch never
                                // faults architecturally.
                                unsafe {
                                    _mm_prefetch::<_MM_HINT_T0>(self.key.as_ptr().add(base).cast());
                                    _mm_prefetch::<_MM_HINT_T0>(self.win.as_ptr().add(base).cast());
                                }
                                group /= FANOUT;
                            }
                        }
                        pool.insert(at, (sort, node_key, l as u8));
                    }
                }
            }
        }
    }

    /// Hints the CPU to pull member `idx`'s leaf-to-root tree path
    /// toward L1. At 100k servers the leaf and first internal levels
    /// are far out of L2, and `place` otherwise eats their miss latency
    /// on the critical path; every group address on the path is
    /// computable from `idx` alone, so the whole walk can be hinted
    /// ahead of time. Architecturally a no-op, so hinting a *predicted*
    /// winner is always sound. Under the zoned layout the path spans
    /// one zone slab plus the leader levels — fewer distinct lines, so
    /// the hint is cheaper *and* more likely to stick.
    #[inline]
    pub fn prefetch_member(&self, idx: usize) {
        #[cfg(target_arch = "x86_64")]
        if idx < self.leaves {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // `refresh_path` scans the FANOUT-aligned group holding the
            // current node at every level; all indices are in bounds
            // because each level is padded to a FANOUT multiple. The
            // flat layout skips the generic slot mapping — this runs
            // once per placement, so its address arithmetic is on the
            // issuing loop's critical path even though the fills are
            // not.
            if self.zone_levels == 0 {
                let mut group = idx / FANOUT;
                for lvl in 0..self.leader_off.len() - 1 {
                    let base = self.leader_off[lvl] + group * FANOUT;
                    // SAFETY: `base` addresses a full padded group
                    // inside `key` (layout invariant above); prefetch
                    // never faults architecturally.
                    unsafe {
                        _mm_prefetch::<_MM_HINT_T0>(self.key.as_ptr().add(base).cast());
                    }
                    group /= FANOUT;
                }
            } else {
                let mut group = idx / FANOUT;
                for lvl in 0..self.levels().saturating_sub(1) {
                    let base = self.node_slot(lvl, group * FANOUT);
                    // SAFETY: as above.
                    unsafe {
                        _mm_prefetch::<_MM_HINT_T0>(self.key.as_ptr().add(base).cast());
                    }
                    group /= FANOUT;
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmt_dcsim::ClusterConfig;
    use vmt_thermal::InletModel;
    use vmt_units::{Celsius, DegC, Seconds};
    use vmt_workload::{Job, JobId, WorkloadKind};

    fn farm(n: usize, inlet: InletModel) -> ServerFarm {
        let mut config = ClusterConfig::paper_default(n);
        config.inlet = inlet;
        ServerFarm::from_config(&config)
    }

    #[test]
    fn order_bits_is_monotone() {
        let values = [-5.0, -0.5, 0.0, 0.5, 22.0, 35.7, 50.0];
        for pair in values.windows(2) {
            assert!(order_bits(pair[0]) < order_bits(pair[1]), "{pair:?}");
        }
    }

    #[test]
    fn equal_servers_get_equal_shares() {
        let farm = farm(4, InletModel::uniform(Celsius::new(22.0)));
        let mut b = ThermalBalancer::new();
        b.rebuild(0..4, &farm);
        let mut counts = [0usize; 4];
        for _ in 0..40 {
            counts[b.place(&farm, 7.6).unwrap()] += 1;
        }
        // The static anti-synchronization bias allows a ±1 skew.
        assert_eq!(counts.iter().sum::<usize>(), 40);
        assert!(counts.iter().all(|&c| (9..=11).contains(&c)), "{counts:?}");
    }

    #[test]
    fn warmer_inlet_gets_less_load() {
        // Server 0 breathes hotter air; the balancer compensates with
        // fewer jobs.
        let farm = farm(2, InletModel::normal(Celsius::new(22.0), DegC::new(2.0), 3));
        let hot_idx = if farm.inlet(0) > farm.inlet(1) { 0 } else { 1 };
        let mut b = ThermalBalancer::new();
        b.rebuild(0..2, &farm);
        let mut counts = [0usize; 2];
        for _ in 0..30 {
            counts[b.place(&farm, 6.0).unwrap()] += 1;
        }
        assert!(
            counts[hot_idx] < counts[1 - hot_idx],
            "hot server got {counts:?}"
        );
    }

    #[test]
    fn top_candidates_matches_a_sorted_leaf_scan() {
        // 67 servers: more than one tree level, with padding.
        let farm = farm(
            67,
            InletModel::normal(Celsius::new(22.0), DegC::new(2.0), 9),
        );
        for layout in [BalancerLayout::Flat, BalancerLayout::Zoned { span: 8 }] {
            let mut b = ThermalBalancer::new();
            b.set_layout(layout);
            b.rebuild(0..67, &farm);
            let kpw = kelvin_per_watt(&farm);
            let mut expect: Vec<(usize, f64)> = (0..67)
                .map(|i| (i, fresh_key(i, 0.0, kpw, &farm)))
                .collect();
            expect.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            for k in [0, 1, 4, 67, 80] {
                let got = b.top_candidates(k);
                assert_eq!(got, expect[..k.min(67)], "{layout:?} k={k}");
            }
            // The best candidate is exactly the peeked next winner.
            assert_eq!(b.top_candidates(1)[0].0, b.peek().unwrap());
        }
    }

    // Warm-cache microbench for the top-k tournament — the hot path of
    // the tracer's per-sampled-job candidate snapshot. Not a correctness
    // test; run explicitly with
    // `cargo test --release -p vmt-core prof_top -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn prof_top_candidates() {
        let farm = farm(
            10_000,
            InletModel::normal(Celsius::new(22.0), DegC::new(2.0), 9),
        );
        let mut b = ThermalBalancer::new();
        b.rebuild(0..10_000, &farm);
        let mut out = Vec::new();
        let mut sink = 0.0f64;
        let t0 = std::time::Instant::now();
        for _ in 0..1_000_000 {
            b.top_candidates_into(4, &mut out);
            sink += out[0].1;
        }
        let dt = t0.elapsed();
        println!(
            "warm top_candidates(4): {:.0} ns/call (sink {sink})",
            dt.as_nanos() as f64 / 1e6
        );
    }

    #[test]
    fn top_candidates_skips_retired_members() {
        let mut f = farm(3, InletModel::uniform(Celsius::new(22.0)));
        for i in 0..32 {
            f.start_job(
                1,
                &Job::new(JobId(i), WorkloadKind::VirusScan, Seconds::new(60.0)),
            );
        }
        let mut b = ThermalBalancer::new();
        // A full member's leaf stays `INFINITY` through the rebuild, so
        // candidates never name it and the list stays sorted best-first.
        b.rebuild(0..3, &f);
        let got = b.top_candidates(4);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|&(idx, key)| idx != 1 && key.is_finite()));
        assert!(got[0].1 <= got[1].1, "{got:?}");
    }

    #[test]
    fn respects_membership() {
        let farm = farm(4, InletModel::uniform(Celsius::new(22.0)));
        let mut b = ThermalBalancer::new();
        b.rebuild([1, 3], &farm);
        for _ in 0..20 {
            let idx = b.place(&farm, 5.0).unwrap();
            assert!(idx == 1 || idx == 3);
        }
    }

    #[test]
    fn full_members_are_skipped_until_exhausted() {
        let mut farm = farm(1, InletModel::uniform(Celsius::new(22.0)));
        for i in 0..31 {
            farm.start_job(
                0,
                &Job::new(JobId(i), WorkloadKind::VirusScan, Seconds::new(60.0)),
            );
        }
        let mut b = ThermalBalancer::new();
        b.rebuild(0..1, &farm);
        assert_eq!(b.place(&farm, 5.0), Some(0));
        // The single core was consumed; the balancer reports exhaustion.
        assert_eq!(b.place(&farm, 5.0), None);
        assert!(b.is_exhausted());
    }

    #[test]
    fn add_member_mid_tick() {
        let farm = farm(2, InletModel::uniform(Celsius::new(22.0)));
        let mut b = ThermalBalancer::new();
        b.rebuild(0..1, &farm);
        b.add_member(1, &farm);
        let mut seen = [false; 2];
        for _ in 0..4 {
            seen[b.place(&farm, 6.0).unwrap()] = true;
        }
        assert_eq!(seen, [true, true]);
    }

    /// The tree's winner must equal a naive argmin over the member keys
    /// at every step of a long placement burst, across sizes that
    /// exercise every padding shape (n ≤ FANOUT, exact multiples, one
    /// past a level boundary) — under the flat layout and under zoned
    /// layouts whose spans put those sizes at every shard edge
    /// (partial last zones, single-zone degenerate trees).
    #[test]
    fn matches_naive_argmin_across_sizes() {
        let layouts = [
            BalancerLayout::Flat,
            BalancerLayout::Zoned { span: 8 },
            BalancerLayout::Zoned { span: 64 },
            BalancerLayout::Zoned { span: 512 },
        ];
        for n in [1, 7, 8, 9, 63, 64, 65, 300, 511, 513] {
            let farm = farm(n, InletModel::normal(Celsius::new(22.0), DegC::new(1.5), 7));
            for layout in layouts {
                let mut b = ThermalBalancer::new();
                b.set_layout(layout);
                b.rebuild(0..n, &farm);
                let kpw = kelvin_per_watt(&farm);
                let mut naive: Vec<f64> = (0..n).map(|i| fresh_key(i, 0.0, kpw, &farm)).collect();
                let mut naive_free: Vec<u32> = (0..n).map(|i| farm.free_cores(i)).collect();
                for step in 0..(n * 8) {
                    let expect = naive
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| naive_free[i] > 0)
                        .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN keys"))
                        .map(|(i, _)| i);
                    // The balancer reads free cores through the same mutable
                    // view the naive model updates.
                    let free = naive_free.clone();
                    let got = b.place_by(|i| free[i], 6.0);
                    assert_eq!(got, expect, "{layout:?} n={n} step={step}");
                    if let Some(i) = got {
                        naive[i] += bump(6.0, kpw);
                        naive_free[i] -= 1;
                    }
                }
            }
        }
    }

    /// Zone-sharded and flat trees must agree decision-for-decision
    /// through a full exhaustion burst at the exact zone counts the
    /// issue pins (1, 2, 7, 64) with farm sizes not divisible by the
    /// zone count, plus mid-burst membership growth.
    #[test]
    fn zoned_layouts_match_flat_at_shard_edges() {
        // (target zones, span, n): n = zones*span - 3 gives a partial
        // last zone and n not divisible by the zone count.
        let cases = [
            (1, 8, 5),
            (2, 8, 13),
            (7, 8, 53),
            (64, 8, 509),
            (7, 64, 445),
        ];
        for (zones, span, n) in cases {
            let farm = farm(n, InletModel::normal(Celsius::new(22.0), DegC::new(2.0), 5));
            let mut flat = ThermalBalancer::new();
            flat.set_layout(BalancerLayout::Flat);
            let mut zoned = ThermalBalancer::new();
            zoned.set_layout(BalancerLayout::Zoned { span });
            // Leave one member out so add_member exercises the zoned
            // mid-tick path too.
            flat.rebuild(0..n - 1, &farm);
            zoned.rebuild(0..n - 1, &farm);
            assert_eq!(zoned.zone_count(), zones, "span {span} n {n}");
            let mut free: Vec<u32> = (0..n).map(|i| farm.free_cores(i)).collect();
            let mut grew = false;
            loop {
                assert_eq!(flat.peek(), zoned.peek(), "zones {zones} n {n}");
                let f = free.clone();
                let a = flat.place_by(|i| f[i], 6.0);
                let b = zoned.place_by(|i| f[i], 6.0);
                assert_eq!(a, b, "zones {zones} n {n}");
                match a {
                    Some(i) => free[i] -= 1,
                    None if !grew => {
                        grew = true;
                        flat.add_member(n - 1, &farm);
                        zoned.add_member(n - 1, &farm);
                    }
                    None => break,
                }
            }
            assert!(flat.is_exhausted() && zoned.is_exhausted());
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Zone-sharded argmin ≡ flat tournament ≡ sorted-leaf
            /// reference, over random farm sizes (hitting partial and
            /// exact zone boundaries for every span), random inlet
            /// seeds, and every valid small span. The sorted-leaf
            /// reference re-sorts after every placement, so the whole
            /// `(key, idx)` tie-break order is pinned, not just the
            /// first winner.
            #[test]
            fn zoned_equals_flat_equals_sorted_leaves(
                n in 1usize..600,
                span_pick in 0usize..3,
                inlet_seed in 0u64..1_000,
                burst in 1usize..48,
            ) {
                let span = [8usize, 64, 512][span_pick];
                let farm = farm(
                    n,
                    InletModel::normal(Celsius::new(22.0), DegC::new(2.0), inlet_seed),
                );
                let kpw = kelvin_per_watt(&farm);
                let mut flat = ThermalBalancer::new();
                flat.set_layout(BalancerLayout::Flat);
                flat.rebuild(0..n, &farm);
                let mut zoned = ThermalBalancer::new();
                zoned.set_layout(BalancerLayout::Zoned { span });
                zoned.rebuild(0..n, &farm);
                prop_assert_eq!(zoned.zone_count(), n.div_ceil(span).max(1));
                let mut keys: Vec<f64> =
                    (0..n).map(|i| fresh_key(i, 0.0, kpw, &farm)).collect();
                let mut free: Vec<u32> = (0..n).map(|i| farm.free_cores(i)).collect();
                for _ in 0..burst.min(n * 4) {
                    // Sorted-leaf reference: strict (key, idx) minimum
                    // over members with a free core.
                    let expect = keys
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| free[i] > 0)
                        .min_by(|a, b| {
                            order_bits(*a.1)
                                .cmp(&order_bits(*b.1))
                                .then(a.0.cmp(&b.0))
                        })
                        .map(|(i, _)| i);
                    let f = free.clone();
                    let a = flat.place_by(|i| f[i], 6.0);
                    let b = zoned.place_by(|i| f[i], 6.0);
                    prop_assert_eq!(a, expect);
                    prop_assert_eq!(b, expect);
                    // Top-k agreement between the layouts as well.
                    prop_assert_eq!(flat.top_candidates(4), zoned.top_candidates(4));
                    match expect {
                        Some(i) => {
                            keys[i] += bump(6.0, kpw);
                            free[i] -= 1;
                        }
                        None => break,
                    }
                }
            }
        }
    }
}
