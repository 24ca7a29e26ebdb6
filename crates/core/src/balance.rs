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
/// Every level is one contiguous padded array, leaves first, root
/// last: member `i`'s leaf is slot `i`, and level `l` starts at
/// `level_off[l]`, so a node's parent is one add away. The leaf and
/// first internal levels fall out of L2 at 100k+ leaves, but the upper
/// levels are shared by every path and stay hot, and the placement
/// loop's [`ThermalBalancer::prefetch_member`] hints cover the cold
/// lines.
#[derive(Debug, Clone, Default)]
pub struct ThermalBalancer {
    /// Node keys for every level. Keys are finite projected
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
    /// Winning leaf index per node, same layout as `key`; leaf-level
    /// entries are unused (a leaf's winner is itself), the last entry
    /// is the overall winner.
    win: Vec<u32>,
    /// Padded node count per level, leaves first, root (always 1)
    /// last; `level_nodes[l - 1] / FANOUT` is the number of *real*
    /// parents at level `l`. Empty until the first rebuild — the
    /// "needs resize" sentinel.
    level_nodes: Vec<usize>,
    /// Start offset of each level inside `key`/`win` (0 for the
    /// leaves).
    level_off: Vec<usize>,
    /// Leaf count the tree was laid out for (the farm size).
    leaves: usize,
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
    /// Creates an empty balancer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-sizes the tree for a farm of `n` servers: computes the padded
    /// level structure and memoizes the static-bias table.
    fn resize(&mut self, n: usize) {
        self.leaves = n;
        self.bias = (0..n).map(static_bias).collect();
        // Pad every level to a multiple of FANOUT so each node's child
        // scan is one full, aligned group; the final level is the root.
        let mut sizes = vec![n.max(1).next_multiple_of(FANOUT)];
        while *sizes.last().expect("non-empty") > FANOUT {
            sizes.push((sizes.last().expect("non-empty") / FANOUT).next_multiple_of(FANOUT));
        }
        sizes.push(1);
        let mut off = 0;
        self.level_off = sizes
            .iter()
            .map(|&s| {
                let o = off;
                off += s;
                o
            })
            .collect();
        self.level_nodes = sizes;
        // Padding slots hold f64::INFINITY from day one and are never
        // rewritten (rebuilds only touch real leaves and real parents),
        // so they can never win a scan.
        self.key = vec![f64::INFINITY; off];
        self.win = vec![0; off];
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
        self.key[..self.level_nodes[0]].fill(f64::INFINITY);
        for (idx, extra) in members {
            if farm.free_cores(idx) > 0 {
                self.key[idx] =
                    fresh_key_biased(idx, extra, self.kelvin_per_watt, farm, self.bias[idx]);
            }
        }
        self.rebuild_internal();
    }

    /// Bottom-up rebuild of every internal node, O(leaves / 7).
    fn rebuild_internal(&mut self) {
        for lvl in 1..self.level_off.len() {
            // Real parents only: padded slots at `lvl` keep their
            // INFINITY sentinel.
            let parents = self.level_nodes[lvl - 1] / FANOUT;
            let (below, at) = (self.level_off[lvl - 1], self.level_off[lvl]);
            for pos in 0..parents {
                let base = below + pos * FANOUT;
                let (bk, bw) = if lvl == 1 {
                    self.scan_leaves(base)
                } else {
                    self.scan_nodes(base)
                };
                self.key[at + pos] = bk;
                self.win[at + pos] = bw;
            }
        }
    }

    /// Minimum key of the [`FANOUT`]-aligned group stored at `base`,
    /// and its offset within the group.
    #[inline]
    fn group_min(&self, base: usize) -> (f64, usize) {
        let g: [f64; FANOUT] = self.key[base..base + FANOUT]
            .try_into()
            .expect("full group");
        // Pairwise tree reduction: three select levels instead of a
        // seven-deep compare chain, and branchless (winner position is
        // data-dependent, so a branch would mispredict constantly).
        // Strict `<` keeps the leftmost winner on ties at every level,
        // which composes to the global leftmost — the `(key, idx)`
        // tie-break.
        let sel = |a: (f64, usize), b: (f64, usize)| if b.0 < a.0 { b } else { a };
        let q0 = sel((g[0], 0), (g[1], 1));
        let q1 = sel((g[2], 2), (g[3], 3));
        let q2 = sel((g[4], 4), (g[5], 5));
        let q3 = sel((g[6], 6), (g[7], 7));
        sel(sel(q0, q1), sel(q2, q3))
    }

    /// Winner of the leaf group starting at leaf `base`: a leaf's slot
    /// is its index and its winner is itself, so the `win` column is not
    /// consulted.
    #[inline]
    fn scan_leaves(&self, base: usize) -> (f64, u32) {
        let (bk, t) = self.group_min(base);
        (bk, (base + t) as u32)
    }

    /// Winner of the internal-node group stored at `base`; the `win`
    /// column holds leaf ids at every internal level, so the winner
    /// propagates without translation.
    #[inline]
    fn scan_nodes(&self, base: usize) -> (f64, u32) {
        let (bk, t) = self.group_min(base);
        (bk, self.win[base + t])
    }

    /// Adds a member mid-tick (VMT-WA's hot-group growth).
    pub fn add_member(&mut self, idx: usize, farm: &ServerFarm) {
        if farm.free_cores(idx) > 0 {
            self.key[idx] = fresh_key_biased(idx, 0.0, self.kelvin_per_watt, farm, self.bias[idx]);
            self.refresh_path(idx);
        }
    }

    /// Re-evaluates the winners on the path from leaf `idx` to the
    /// root, stopping at the first node whose `(key, winner)` comes out
    /// unchanged — everything above is then already consistent.
    ///
    /// Each parent slot is one add (`level_off[lvl] + group`): a
    /// generalized per-level slot mapping on this path once cost ~18%
    /// of 100k-scale placement (DESIGN.md §16).
    fn refresh_path(&mut self, idx: usize) {
        let levels = self.level_off.len();
        let mut group = idx / FANOUT;
        let (mut bk, mut bw) = self.scan_leaves(group * FANOUT);
        for lvl in 1..levels {
            let parent = self.level_off[lvl] + group;
            if self.key[parent] == bk && self.win[parent] == bw {
                return;
            }
            self.key[parent] = bk;
            self.win[parent] = bw;
            if lvl + 1 == levels {
                return;
            }
            group /= FANOUT;
            let base = self.level_off[lvl] + group * FANOUT;
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
            if free(idx) == 0 {
                // A fallback path consumed this member's cores behind the
                // balancer's back; retire the leaf and look again.
                self.key[idx] = f64::INFINITY;
                self.refresh_path(idx);
                continue;
            }
            let bumped = self.key[idx] + bump(core_power_w, self.kelvin_per_watt);
            // One core is consumed by this placement; stay in the tree
            // only if capacity remains afterwards.
            self.key[idx] = if free(idx) > 1 { bumped } else { f64::INFINITY };
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
        // The caller verified `free > 0`, so the leaf is live and its
        // key is the member's current projection.
        let bumped = self.key[idx] + bump(core_power_w, self.kelvin_per_watt);
        // The pending external placement consumes one core; the member
        // stays placeable only if capacity remains afterwards.
        self.key[idx] = if free > 1 { bumped } else { f64::INFINITY };
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
        let top = self.level_off.len() - 1;
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
                let group_slot = self.level_off[l] + group;
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
                                let base = self.level_off[pl] + group * FANOUT;
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
    /// winner is always sound.
    #[inline]
    pub fn prefetch_member(&self, idx: usize) {
        #[cfg(target_arch = "x86_64")]
        if idx < self.leaves {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // `refresh_path` scans the FANOUT-aligned group holding the
            // current node at every level; all indices are in bounds
            // because each level is padded to a FANOUT multiple. This
            // runs once per placement, so its address arithmetic is on
            // the issuing loop's critical path even though the fills
            // are not.
            let mut group = idx / FANOUT;
            for lvl in 0..self.level_off.len() - 1 {
                let base = self.level_off[lvl] + group * FANOUT;
                // SAFETY: `base` addresses a full padded group inside
                // `key` (layout invariant above); prefetch never faults
                // architecturally.
                unsafe {
                    _mm_prefetch::<_MM_HINT_T0>(self.key.as_ptr().add(base).cast());
                }
                group /= FANOUT;
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
        let mut b = ThermalBalancer::new();
        b.rebuild(0..67, &farm);
        let kpw = kelvin_per_watt(&farm);
        let mut expect: Vec<(usize, f64)> = (0..67)
            .map(|i| (i, fresh_key(i, 0.0, kpw, &farm)))
            .collect();
        expect.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        for k in [0, 1, 4, 67, 80] {
            let got = b.top_candidates(k);
            assert_eq!(got, expect[..k.min(67)], "k={k}");
        }
        // The best candidate is exactly the peeked next winner.
        assert_eq!(b.top_candidates(1)[0].0, b.peek().unwrap());
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
    /// past a level boundary).
    #[test]
    fn matches_naive_argmin_across_sizes() {
        for n in [1, 7, 8, 9, 63, 64, 65, 300, 511, 513] {
            let farm = farm(n, InletModel::normal(Celsius::new(22.0), DegC::new(1.5), 7));
            let mut b = ThermalBalancer::new();
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
                assert_eq!(got, expect, "n={n} step={step}");
                if let Some(i) = got {
                    naive[i] += bump(6.0, kpw);
                    naive_free[i] -= 1;
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Tournament ≡ sorted-leaf reference, over random farm
            /// sizes (every padding shape up to three internal levels),
            /// random inlet seeds and burst lengths. The reference
            /// re-sorts after every placement, so the whole `(key, idx)`
            /// tie-break order is pinned: each placement must pick the
            /// reference's first member, and the top four candidates
            /// must be the reference's first four.
            #[test]
            fn tournament_equals_sorted_leaves(
                n in 1usize..600,
                inlet_seed in 0u64..1_000,
                burst in 1usize..48,
            ) {
                let farm = farm(
                    n,
                    InletModel::normal(Celsius::new(22.0), DegC::new(2.0), inlet_seed),
                );
                let kpw = kelvin_per_watt(&farm);
                let mut b = ThermalBalancer::new();
                b.rebuild(0..n, &farm);
                let mut keys: Vec<f64> =
                    (0..n).map(|i| fresh_key(i, 0.0, kpw, &farm)).collect();
                let mut free: Vec<u32> = (0..n).map(|i| farm.free_cores(i)).collect();
                for _ in 0..burst.min(n * 4) {
                    // Sorted-leaf reference: members with a free core in
                    // strict (key, idx) order.
                    let mut sorted: Vec<(usize, f64)> = keys
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| free[i] > 0)
                        .map(|(i, &key)| (i, key))
                        .collect();
                    sorted.sort_by_key(|&(i, key)| (order_bits(key), i));
                    prop_assert_eq!(b.top_candidates(4), &sorted[..sorted.len().min(4)]);
                    let expect = sorted.first().map(|&(i, _)| i);
                    let f = free.clone();
                    prop_assert_eq!(b.place_by(|i| f[i], 6.0), expect);
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
