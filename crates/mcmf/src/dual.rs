//! Incremental solver for a *family* of dual programs sharing one
//! constraint set.
//!
//! LAC-retiming solves a series of weighted min-area retimings whose
//! constraints never change — only the objective coefficients (node
//! imbalances of the dual transshipment) move a little each round.
//! [`DualSolver`] keeps the residual network and Johnson potentials
//! between solves: because arc costs are fixed, the previous optimal flow
//! remains reduced-cost optimal, and each new solve only has to route the
//! *difference* between the old and new imbalances. After the first round
//! this is typically a tiny fraction of a from-scratch solve.
//!
//! The residual network is stored in compressed sparse row (CSR) form:
//! each node's arcs sit contiguously in one array, so the Dijkstra and
//! blocking-flow sweeps read memory in order and a solve allocates
//! nothing beyond its result vector.

use crate::difference::DifferenceConstraints;
use crate::{Constraint, DualError};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One residual arc. Node indices are `u32` to keep the arc at 24 bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Arc {
    to: u32,
    /// Position of the paired reverse arc.
    rev: u32,
    cap: i64,
    cost: i64,
}

/// An incremental primal–dual min-cost-flow solver for
/// `min Σ cost[v]·r[v]  s.t.  r[u] − r[v] ≤ bound` with a fixed constraint
/// set and varying costs.
///
/// The residual network lives in CSR form. Node `v`'s slice holds its
/// interior (constraint) arcs in merged-constraint order, forward and
/// reverse arcs interleaved, followed by one reserved slot for the
/// per-solve arc to the super source or sink. The super source's and
/// sink's slices hold their per-solve arcs in variable order. Only the
/// slice ends move between solves. Each solve routes the imbalance delta
/// with blocking-flow sweeps of the zero-reduced-cost subgraph and
/// Dijkstra searches over reduced costs, and (in debug builds) certifies
/// its own optimality by complementary slackness. The Dijkstra before a
/// sweep is skipped while the last one found `d_t = 0`, until a sweep
/// finds no path. Both steps this changes are no-ops: a Dijkstra with
/// `d_t = 0` moves no potential, and a sweep that finds no path moves no
/// flow. So the returned dual is the one a Dijkstra before every sweep
/// gives.
///
/// # Examples
///
/// ```
/// use lacr_mcmf::{Constraint, DualSolver};
///
/// let cons = [Constraint::new(0, 1, 3), Constraint::new(1, 0, 0)];
/// let mut solver = DualSolver::new(2, &cons)?;
/// let (r1, obj1) = solver.solve(&[1, -1])?;
/// assert_eq!(obj1, 0);
/// assert!(r1[0] - r1[1] <= 3 && r1[1] - r1[0] <= 0);
/// // Re-solve with flipped costs: warm-started, same constraints.
/// let (r2, obj2) = solver.solve(&[-1, 1])?;
/// assert_eq!(obj2, -3);
/// assert_eq!(r2[0] - r2[1], 3);
/// # Ok::<(), lacr_mcmf::DualError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DualSolver {
    n: usize,
    /// Residual arcs, grouped by tail node: node `v` owns positions
    /// `start[v]..start[v + 1]`, of which `start[v]..end[v]` are live.
    arcs: Vec<Arc>,
    start: Vec<u32>,
    end: Vec<u32>,
    pi: Vec<i64>,
    /// Imbalance satisfied by the current interior flow.
    routed: Vec<i64>,
    /// Pristine copies for rebuilding after a failed solve (a partial
    /// routing leaves the flow inconsistent with `routed`).
    arcs0: Vec<Arc>,
    pi0: Vec<i64>,
    /// Scratch of [`DualSolver::route`], kept between solves.
    dist: Vec<i64>,
    cursor: Vec<u32>,
    mark: Vec<Mark>,
    /// The DFS path as `(arc position, tail)` pairs.
    path: Vec<(u32, u32)>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    level: Vec<u32>,
    adm: Admissible,
}

const INF_CAP: i64 = i64::MAX / 4;

impl DualSolver {
    /// Builds the solver: verifies feasibility of the constraint system
    /// once, merges parallel constraints and prepares the flow network.
    ///
    /// # Errors
    ///
    /// [`DualError::Infeasible`] when the constraints have no solution;
    /// [`DualError::VariableOutOfRange`] for a bad index.
    ///
    /// # Panics
    ///
    /// Panics if the network has more than `u32::MAX` arcs.
    pub fn new(num_vars: usize, constraints: &[Constraint]) -> Result<Self, DualError> {
        for c in constraints {
            if c.u >= num_vars {
                return Err(DualError::VariableOutOfRange(c.u));
            }
            if c.v >= num_vars {
                return Err(DualError::VariableOutOfRange(c.v));
            }
        }
        let feas = DifferenceConstraints::new(num_vars, constraints.iter().copied());
        let potentials = feas.solve().ok_or(DualError::Infeasible)?;

        // BTreeMap, not HashMap: each node's arcs are laid out in map
        // iteration order, and tie-breaks during path search follow
        // that order — a hash-seeded layout would leak into which of
        // several optimal duals is returned, run to run.
        let mut merged: BTreeMap<(usize, usize), i64> = BTreeMap::new();
        for c in constraints {
            if c.u == c.v {
                continue; // non-negative self-bound, vacuous
            }
            merged
                .entry((c.u, c.v))
                .and_modify(|b| *b = (*b).min(c.bound))
                .or_insert(c.bound);
        }

        // Nodes 0..n are variables; n = super source, n+1 = super sink.
        // Slice sizes: one arc per incident constraint plus the reserved
        // s/t slot for a variable; up to one arc per variable for s and t.
        let nn = num_vars + 2;
        let mut degree = vec![1usize; num_vars];
        for &(u, v) in merged.keys() {
            degree[u] += 1;
            degree[v] += 1;
        }
        degree.extend([num_vars, num_vars]);
        let mut start = Vec::with_capacity(nn + 1);
        let mut total = 0usize;
        for d in &degree {
            start.push(pos(total));
            total += d;
        }
        start.push(pos(total));
        // Fill in map order; `end` doubles as the per-node fill cursor.
        let mut arcs = vec![Arc::default(); total];
        let mut end: Vec<u32> = start[..nn].to_vec();
        for (&(u, v), &b) in &merged {
            let (fwd, bwd) = (end[u], end[v]);
            arcs[fwd as usize] = Arc {
                to: pos(v),
                rev: bwd,
                cap: INF_CAP,
                cost: b,
            };
            arcs[bwd as usize] = Arc {
                to: pos(u),
                rev: fwd,
                cap: 0,
                cost: -b,
            };
            end[u] += 1;
            end[v] += 1;
        }
        // Initial potentials: the Bellman–Ford solution of the constraint
        // system gives distances `r` with `r_u − r_v ≤ b` for every arc,
        // i.e. `b + (−r_u) − (−r_v) ≥ 0`: π = −r is dual-feasible.
        let mut pi: Vec<i64> = potentials.iter().map(|&r| -r).collect();
        pi.push(0); // s, fixed up per solve
        pi.push(0); // t, fixed up per solve
        Ok(Self {
            n: num_vars,
            arcs0: arcs.clone(),
            pi0: pi.clone(),
            arcs,
            start,
            end,
            pi,
            routed: vec![0; num_vars],
            dist: vec![0; nn],
            cursor: vec![0; nn],
            mark: vec![Mark::Free; nn],
            path: Vec::new(),
            heap: BinaryHeap::new(),
            level: Vec::new(),
            adm: Admissible::new(total, nn),
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Solves for the given cost vector, warm-starting from the previous
    /// solution.
    ///
    /// Returns the optimal assignment (anchored at `min r = 0`) and its
    /// objective value.
    ///
    /// # Errors
    ///
    /// [`DualError::Unbounded`] when the objective has no finite minimum
    /// (costs not summing to zero, or an imbalance the constraint arcs
    /// cannot route).
    ///
    /// # Panics
    ///
    /// Panics if `cost.len() != num_vars()`.
    pub fn solve(&mut self, cost: &[i64]) -> Result<(Vec<i64>, i64), DualError> {
        assert_eq!(cost.len(), self.n);
        if cost.iter().sum::<i64>() != 0 {
            return Err(DualError::Unbounded);
        }
        let s = self.n;
        let t = self.n + 1;

        // Deltas to route on top of the existing interior flow, each on
        // the variable's reserved slot paired with the next s or t slot.
        let mut remaining = 0i64;
        let mut pi_s = i64::MIN;
        let mut pi_t = i64::MAX;
        for (v, (&c, &routed)) in cost.iter().zip(&self.routed).enumerate() {
            let d = c - routed;
            if d == 0 {
                continue;
            }
            let slot = self.end[v];
            // v must shed inflow (d < 0): s → v supplies the delta.
            // Otherwise v → t drains it.
            let (hub, slot_cap, hub_cap) = if d < 0 {
                pi_s = pi_s.max(self.pi[v]);
                (s, 0, -d)
            } else {
                pi_t = pi_t.min(self.pi[v]);
                remaining += d;
                (t, d, 0)
            };
            let partner = self.end[hub];
            self.arcs[slot as usize] = Arc {
                to: pos(hub),
                rev: partner,
                cap: slot_cap,
                cost: 0,
            };
            self.arcs[partner as usize] = Arc {
                to: pos(v),
                rev: slot,
                cap: hub_cap,
                cost: 0,
            };
            self.end[v] += 1;
            self.end[hub] += 1;
        }
        // Dual-feasible potentials for the fresh s/t arcs: the zero-cost
        // arc s→v needs π_s ≥ π_v, and v→t needs π_t ≤ π_v.
        if pi_s != i64::MIN {
            self.pi[s] = pi_s;
        }
        if pi_t != i64::MAX {
            self.pi[t] = pi_t;
        }

        let result = self.route(s, t, remaining);
        // Drop the temporary s/t arcs whatever happened.
        for v in 0..self.n {
            self.end[v] = self.start[v + 1] - 1;
        }
        self.end[s] = self.start[s];
        self.end[t] = self.start[t];
        if result.is_err() {
            // A partial routing left flow inconsistent with `routed`;
            // restore the pristine network so later solves stay correct.
            self.arcs.clone_from(&self.arcs0);
            self.pi.clone_from(&self.pi0);
            self.routed.iter_mut().for_each(|c| *c = 0);
        }
        result?;

        self.routed.copy_from_slice(cost);
        let mut r: Vec<i64> = (0..self.n).map(|v| -self.pi[v]).collect();
        if let Some(&m) = r.iter().min() {
            for x in &mut r {
                *x -= m;
            }
        }
        debug_assert_eq!(self.certify(&r), Ok(()));
        let obj = cost.iter().zip(&r).map(|(&c, &x)| c * x).sum();
        Ok((r, obj))
    }

    /// Checks that `r` and the interior flow certify each other's
    /// optimality for the last solved cost vector: `r` satisfies every
    /// merged constraint (primal feasibility), the flow's net outflow at
    /// every variable is `−cost` (flow conservation), and flow runs only
    /// on tight constraints (complementary slackness).
    fn certify(&self, r: &[i64]) -> Result<(), String> {
        let mut net_out = vec![0i64; self.n];
        for u in 0..self.n {
            let lo = self.start[u] as usize;
            let hi = self.end[u] as usize;
            for (a, a0) in self.arcs[lo..hi].iter().zip(&self.arcs0[lo..hi]) {
                if a0.cap != INF_CAP {
                    continue; // reverse arc: its forward twin is checked
                }
                let v = a.to as usize;
                let slack = a.cost - (r[u] - r[v]);
                if slack < 0 {
                    return Err(format!("r[{u}] - r[{v}] exceeds bound {}", a.cost));
                }
                let flow = self.arcs[a.rev as usize].cap;
                if flow < 0 || (flow > 0 && slack > 0) {
                    return Err(format!("flow {flow} on arc {u}->{v} with slack {slack}"));
                }
                net_out[u] += flow;
                net_out[v] -= flow;
            }
        }
        match (0..self.n).find(|&v| net_out[v] != -self.routed[v]) {
            Some(v) => Err(format!(
                "net outflow {} at {v}, cost {}",
                net_out[v], self.routed[v]
            )),
            None => Ok(()),
        }
    }

    /// Primal–dual min-cost routing of `remaining` units from `s` to `t`.
    ///
    /// The loop mixes two steps. A *Dijkstra* over reduced costs makes
    /// the dual update `π += min(d, d_t)`. A *sweep* is a cursor-based
    /// blocking-flow DFS from fresh cursors that augments along as many
    /// zero-reduced-cost paths as it finds before the admissible subgraph
    /// dries up. On the dense W/D constraint networks of LAC retiming this
    /// replaces one full Dijkstra *per augmenting path* with about one per
    /// potential move — bounded by the number of distinct shortest-path
    /// costs, typically orders of magnitude smaller.
    ///
    /// A Dijkstra with `d_t = 0` moves no potential (`min(d, 0) = 0`), and
    /// a sweep that finds no path moves no flow. Both are no-ops, so any
    /// schedule that runs a Dijkstra whenever a sweep fails makes the same
    /// augmentations at the same potentials as a Dijkstra before every
    /// sweep, and returns the same dual. The schedule keeps one bit: set
    /// on entry, cleared by a sweep that finds no path, set again by a
    /// Dijkstra with `d_t = 0`. While it is set the loop sweeps without
    /// searching first. Warm re-solves mostly find more paths at unchanged
    /// potentials, so they skip nearly every Dijkstra; cold solves, where
    /// most potential moves allow a single sweep, seldom pay for a failed
    /// one.
    ///
    /// Between potential moves — an *epoch* — each node's
    /// zero-reduced-cost arcs are fixed. The sweep walks them from a
    /// per-node list in `adm`, filled in CSR order only as far as the
    /// cursor needs, so a raw arc's reduced cost is tested at most once
    /// per epoch, and the DFS itself checks only the head's [`Mark`] and
    /// the capacity: the same accept/reject decisions, in the same order,
    /// as a scan of the raw slice. Lists are invalidated by bumping
    /// `epoch`, never cleared.
    fn route(&mut self, s: usize, t: usize, mut remaining: i64) -> Result<(), DualError> {
        let Self {
            arcs,
            start,
            end,
            pi,
            dist,
            cursor,
            mark,
            path,
            heap,
            level,
            adm,
            ..
        } = self;
        // Statistics, accumulated locally (the loop is hot) and flushed
        // as counters on both exits.
        let mut stats = RouteStats::default();
        // The s/t arcs changed since the last call, and so did the
        // potentials if it failed and restored the pristine network.
        adm.invalidate();
        let mut speculate = true;
        while remaining > 0 {
            if !speculate {
                stats.phases += 1;
                dist.iter_mut().for_each(|d| *d = i64::MAX);
                dist[s] = 0;
                heap.clear();
                heap.push(Reverse((0i64, pos(s))));
                let mut dist_t = i64::MAX;
                // Nodes reached over a zero-reduced-cost arc share the
                // current minimum distance: they are settled from the
                // `level` stack before the heap is consulted again.
                // Extraction stays in distance order, and the potential
                // update below depends only on the distances, not on the
                // order of equal ones.
                level.clear();
                loop {
                    let (d, u) = match level.pop() {
                        Some(u) => (dist[u as usize], u as usize),
                        None => match heap.pop() {
                            Some(Reverse((d, u))) => (d, u as usize),
                            None => break,
                        },
                    };
                    if d > dist[u] {
                        continue;
                    }
                    if u == t {
                        dist_t = d;
                        break;
                    }
                    let pi_u = pi[u];
                    for a in &arcs[start[u] as usize..end[u] as usize] {
                        if a.cap <= 0 {
                            continue;
                        }
                        let to = a.to as usize;
                        let rc = a.cost + pi_u - pi[to];
                        debug_assert!(rc >= 0, "negative reduced cost {rc}");
                        let nd = d + rc;
                        if nd < dist[to] {
                            dist[to] = nd;
                            if rc == 0 {
                                level.push(a.to);
                            } else {
                                heap.push(Reverse((nd, a.to)));
                            }
                        }
                    }
                }
                match dist_t {
                    i64::MAX => {
                        stats.flush();
                        return Err(DualError::Unbounded);
                    }
                    0 => {
                        stats.idle_dijkstras += 1;
                        speculate = true;
                    }
                    _ => {
                        for (p, &d) in pi.iter_mut().zip(dist.iter()) {
                            let delta = d.min(dist_t);
                            if delta != 0 {
                                stats.pot_updates += 1;
                            }
                            *p += delta;
                        }
                        adm.invalidate();
                    }
                }
            }
            // Blocking-flow sweep over the admissible subgraph (arcs with
            // capacity and zero reduced cost under the current
            // potentials). Cursors index `adm` and never rewind, so each
            // list entry is inspected O(1) times per sweep; any
            // admissible path the sweep misses because a node was
            // transiently on the path is picked up by a later sweep's
            // fresh cursors at unchanged potentials. A node whose cursor
            // ran out stays out for the rest of the sweep: it is marked
            // dead and rejected like a node on the path, which is what
            // entering it and retreating at once would amount to.
            stats.sweeps += 1;
            let before = remaining;
            let nn = cursor.len();
            cursor.copy_from_slice(&start[..nn]);
            mark.fill(Mark::Free);
            path.clear();
            mark[s] = Mark::OnPath;
            adm.enter(s, start[s]);
            let mut v = s;
            while remaining > 0 {
                if v == t {
                    let mut bottleneck = remaining;
                    for &(ai, _) in path.iter() {
                        bottleneck = bottleneck.min(arcs[ai as usize].cap);
                    }
                    // Resume at the tail of the first arc the augmentation
                    // saturates: restarting from `s`, the unchanged
                    // cursors would walk the same prefix back to it.
                    let mut keep = path.len();
                    for (k, &(ai, _)) in path.iter().enumerate() {
                        let a = &mut arcs[ai as usize];
                        a.cap -= bottleneck;
                        if a.cap == 0 && keep == path.len() {
                            keep = k;
                        }
                        let (rev, to) = (a.rev as usize, a.to as usize);
                        arcs[rev].cap += bottleneck;
                        if keep <= k {
                            mark[to] = Mark::Free;
                        }
                    }
                    remaining -= bottleneck;
                    stats.augmentations += 1;
                    if let Some(&(_, tail)) = path.get(keep) {
                        v = tail as usize;
                    }
                    path.truncate(keep);
                    continue;
                }
                if let Some((ai, to)) = adm.next(v, &mut cursor[v], arcs, end[v], pi, mark) {
                    let to = to as usize;
                    path.push((ai, pos(v)));
                    mark[to] = Mark::OnPath;
                    adm.enter(to, start[to]);
                    v = to;
                    continue;
                }
                // Dead end: retreat one step, skipping the arc that led
                // here. At the source the sweep is exhausted.
                match path.pop() {
                    Some((_, tail)) => {
                        mark[v] = Mark::Dead;
                        v = tail as usize;
                        cursor[v] += 1;
                    }
                    None => break,
                }
            }
            if remaining == before {
                stats.failed_sweeps += 1;
                speculate = false;
            }
        }
        stats.flush();
        Ok(())
    }
}

/// A node's state during one blocking-flow sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Free,
    OnPath,
    /// Its cursor ran out: no arc can take the sweep through it.
    Dead,
}

/// Per-epoch admissible-arc lists of [`DualSolver::route`]: node `v`'s
/// zero-reduced-cost arcs as `(position, to)` pairs at
/// `list[start[v]..len[v]]`, parallel to its raw arcs, of which
/// `start[v]..fill[v]` have been filtered. A list is valid while
/// `stamp[v] == epoch`, and `epoch` moves whenever the potentials may
/// have.
#[derive(Debug, Clone)]
struct Admissible {
    list: Vec<(u32, u32)>,
    len: Vec<u32>,
    fill: Vec<u32>,
    stamp: Vec<u64>,
    epoch: u64,
}

impl Admissible {
    fn new(arcs: usize, nodes: usize) -> Self {
        Self {
            list: vec![(0, 0); arcs],
            len: vec![0; nodes],
            fill: vec![0; nodes],
            stamp: vec![0; nodes],
            epoch: 0,
        }
    }

    /// Drops every list: the potentials may have moved.
    fn invalidate(&mut self) {
        self.epoch += 1;
    }

    /// Starts `v`'s list (its slice begins at `start`) afresh the first
    /// time a sweep reaches `v` in the current epoch.
    #[inline]
    fn enter(&mut self, v: usize, start: u32) {
        if self.stamp[v] != self.epoch {
            self.stamp[v] = self.epoch;
            self.len[v] = start;
            self.fill[v] = start;
        }
    }

    /// Advances `v`'s cursor to the first list entry the sweep can take
    /// (a free head and spare capacity) and returns it, extending the
    /// list from `v`'s raw arcs up to `end` as far as needed; `None`, with
    /// the cursor at the list's end, when no entry is left.
    #[inline]
    fn next(
        &mut self,
        v: usize,
        cursor: &mut u32,
        arcs: &[Arc],
        end: u32,
        pi: &[i64],
        mark: &[Mark],
    ) -> Option<(u32, u32)> {
        let takes =
            |(ai, to): (u32, u32)| mark[to as usize] == Mark::Free && arcs[ai as usize].cap > 0;
        let mut c = *cursor;
        let mut len = self.len[v];
        while c < len {
            let entry = self.list[c as usize];
            if takes(entry) {
                *cursor = c;
                return Some(entry);
            }
            c += 1;
        }
        let pi_v = pi[v];
        let mut f = self.fill[v];
        let mut found = None;
        while f < end {
            let a = &arcs[f as usize];
            if a.cost + pi_v - pi[a.to as usize] == 0 {
                let entry = (f, a.to);
                self.list[len as usize] = entry;
                len += 1;
                if takes(entry) {
                    found = Some(entry);
                    f += 1;
                    break;
                }
            }
            f += 1;
        }
        self.len[v] = len;
        self.fill[v] = f;
        *cursor = if found.is_some() { len - 1 } else { len };
        found
    }
}

/// Work done by one [`DualSolver::route`] call.
#[derive(Default)]
struct RouteStats {
    augmentations: u64,
    phases: u64,
    idle_dijkstras: u64,
    pot_updates: u64,
    sweeps: u64,
    failed_sweeps: u64,
}

impl RouteStats {
    fn flush(&self) {
        lacr_obs::counter!("mcmf.ssp_iterations", self.augmentations);
        lacr_obs::counter!("mcmf.dijkstra_phases", self.phases);
        lacr_obs::counter!("mcmf.idle_dijkstras", self.idle_dijkstras);
        lacr_obs::counter!("mcmf.potential_updates", self.pot_updates);
        lacr_obs::counter!("mcmf.sweeps", self.sweeps);
        lacr_obs::counter!("mcmf.failed_sweeps", self.failed_sweeps);
    }
}

/// A network position or node index as stored in an [`Arc`].
fn pos(i: usize) -> u32 {
    u32::try_from(i).expect("flow network exceeds u32::MAX arcs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacr_prng::Rng;

    /// Minimum of `Σ cost·x` over the integer points of the box
    /// `lo[i] ..= hi[i]` that satisfy `cons`, or `None` when none does;
    /// `x[0]` stays at `lo[0]`.
    fn brute_force_min(cost: &[i64], cons: &[Constraint], lo: &[i64], hi: &[i64]) -> Option<i64> {
        let mut x = lo.to_vec();
        let mut best = None;
        loop {
            if cons.iter().all(|c| x[c.u] - x[c.v] <= c.bound) {
                let v = cost.iter().zip(&x).map(|(&c, &y)| c * y).sum();
                best = Some(best.map_or(v, |b: i64| b.min(v)));
            }
            // Step the odometer over `x[1..]`, lowest index fastest.
            let Some(i) = (1..x.len()).find(|&i| x[i] < hi[i]) else {
                return best;
            };
            x[i] += 1;
            x[1..i].copy_from_slice(&lo[1..i]);
        }
    }

    /// Each warm solve of a random ring-plus-chords program matches the
    /// brute-force optimum and a cold solver's objective, and certifies.
    #[test]
    fn warm_solves_match_brute_force_and_a_cold_solver() {
        let mut rng = Rng::seed_from_u64(5);
        for case in 0..50 {
            let n = rng.gen_range(2..6usize);
            // A ring of constraints keeps everything bounded: with
            // `r_0 = 0`, `r_i` lies within the ring's path lengths to and
            // from variable 0.
            let ring: Vec<i64> = (0..n).map(|_| rng.gen_range(0..4)).collect();
            let mut cons: Vec<Constraint> = (0..n)
                .map(|i| Constraint::new(i, (i + 1) % n, ring[i]))
                .collect();
            for _ in 0..rng.gen_range(0..4) {
                cons.push(Constraint::new(
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(0..5),
                ));
            }
            let lo: Vec<i64> = (0..n).map(|i| -ring[..i].iter().sum::<i64>()).collect();
            let hi: Vec<i64> = (0..n).map(|i| ring[i..].iter().sum()).collect();
            let mut solver = DualSolver::new(n, &cons).expect("nonnegative bounds are feasible");
            for round in 0..4 {
                let mut cost: Vec<i64> = (0..n).map(|_| rng.gen_range(-5..=5)).collect();
                let sum: i64 = cost.iter().sum();
                cost[0] -= sum;
                let (r, obj) = solver.solve(&cost).expect("a ring is bounded");
                solver
                    .certify(&r)
                    .unwrap_or_else(|e| panic!("case {case} round {round}: {e}"));
                let (_, cold) = DualSolver::new(n, &cons).unwrap().solve(&cost).unwrap();
                assert_eq!(obj, cold, "case {case} round {round}");
                let best = brute_force_min(&cost, &cons, &lo, &hi);
                assert_eq!(Some(obj), best, "case {case} round {round}");
            }
        }
    }

    /// Pins the exact duals of a warm-started sequence on a degenerate
    /// network (small bounds, many ties), so a change to the arc layout or
    /// visit order that picks a different optimal dual fails here. The
    /// constant was recorded with the earlier adjacency-list layout.
    #[test]
    fn warm_duals_are_pinned() {
        let mut rng = Rng::seed_from_u64(12);
        let n = 120;
        let mut cons = Vec::new();
        for i in 0..n {
            cons.push(Constraint::new(i, (i + 1) % n, rng.gen_range(0..3)));
        }
        for _ in 0..600 {
            cons.push(Constraint::new(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..6),
            ));
        }
        let mut solver = DualSolver::new(n, &cons).unwrap();
        let mut cost: Vec<i64> = (0..n).map(|_| rng.gen_range(-20..=20)).collect();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _round in 0..12 {
            let sum: i64 = cost.iter().sum();
            cost[0] -= sum;
            let (r, obj) = solver.solve(&cost).unwrap();
            solver.certify(&r).unwrap();
            for x in r.iter().chain(std::iter::once(&obj)) {
                for b in x.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            for c in cost.iter_mut() {
                if rng.gen_range(0..4) == 0 {
                    *c += rng.gen_range(-3i64..=3);
                }
            }
        }
        assert_eq!(h, 0xb6eb_13fd_5865_9e6a);
    }

    /// A `w`×`h` grid with a random bound in each direction of every
    /// edge: shortest paths over it have many distinct lengths.
    fn grid(rng: &mut Rng, w: usize, h: usize) -> Vec<Constraint> {
        let mut cons = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                for (dx, dy) in [(1, 0), (0, 1)] {
                    if x + dx < w && y + dy < h {
                        let u = (y + dy) * w + x + dx;
                        cons.push(Constraint::new(v, u, rng.gen_range(0..40)));
                        cons.push(Constraint::new(u, v, rng.gen_range(0..40)));
                    }
                }
            }
        }
        cons
    }

    /// Pins the exact duals of one cold solve on a grid, where routing
    /// takes many potential moves and sweeps that miss paths leave work
    /// for a later sweep at the same potentials. The constant was
    /// recorded with one Dijkstra before every sweep; the counters show
    /// that the sweep-first schedule both fails a speculative sweep and
    /// resumes speculating after a Dijkstra with `d_t = 0`.
    #[test]
    fn cold_grid_duals_are_pinned() {
        let mut rng = Rng::seed_from_u64(13);
        let (w, h) = (24, 24);
        let cons = grid(&mut rng, w, h);
        let n = w * h;
        let mut cost: Vec<i64> = (0..n).map(|_| rng.gen_range(-30..=30)).collect();
        let sum: i64 = cost.iter().sum();
        cost[0] -= sum;
        let mut solver = DualSolver::new(n, &cons).unwrap();
        let scope = lacr_obs::scope::Scope::new("cold-grid");
        let (r, obj) = {
            let _g = scope.attach();
            solver.solve(&cost).unwrap()
        };
        solver.certify(&r).unwrap();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for x in r.iter().chain(std::iter::once(&obj)) {
            for b in x.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0x58fa_f10c_f5c4_cba1);
        let report = scope.report();
        let count = |name| report.counter(name).unwrap_or(0);
        assert!(count("mcmf.failed_sweeps") > 0);
        assert!(count("mcmf.idle_dijkstras") > 0);
        assert!(count("mcmf.dijkstra_phases") > count("mcmf.idle_dijkstras"));
    }

    /// A solve that routes part of its flow before finding the rest
    /// unroutable restores the pristine network; the next solve must
    /// match a fresh solver's, whatever lists the failed one built.
    #[test]
    fn solve_after_a_partial_unbounded_one_matches_a_fresh_solver() {
        let mut rng = Rng::seed_from_u64(14);
        let (w, h) = (12, 12);
        let mut cons = grid(&mut rng, w, h);
        // A dead-end variable: reachable from the grid, but with no
        // constraint leaving it, so supply placed on it cannot route.
        let dead = w * h;
        cons.push(Constraint::new(0, dead, 5));
        let n = dead + 1;
        let balanced = |rng: &mut Rng| {
            let mut cost: Vec<i64> = (0..n).map(|_| rng.gen_range(-30..=30)).collect();
            cost[dead] = 0;
            let sum: i64 = cost.iter().sum();
            cost[0] -= sum;
            cost
        };
        let mut solver = DualSolver::new(n, &cons).unwrap();
        solver.solve(&balanced(&mut rng)).unwrap();
        let mut stuck = balanced(&mut rng);
        stuck[dead] = -7;
        stuck[1] += 7;
        let scope = lacr_obs::scope::Scope::new("partial");
        {
            let _g = scope.attach();
            assert_eq!(solver.solve(&stuck), Err(DualError::Unbounded));
        }
        let routed = scope.report().counter("mcmf.ssp_iterations").unwrap_or(0);
        assert!(routed > 0, "the failed solve routed no flow first");
        let next = balanced(&mut rng);
        let fresh = DualSolver::new(n, &cons).unwrap().solve(&next);
        assert_eq!(solver.solve(&next), fresh);
    }

    #[test]
    fn certificate_rejects_a_suboptimal_dual() {
        let cons = [Constraint::new(0, 1, 2), Constraint::new(1, 0, 1)];
        let mut solver = DualSolver::new(2, &cons).unwrap();
        let (r, _) = solver.solve(&[3, -3]).unwrap();
        assert_eq!(solver.certify(&r), Ok(()));
        // Feasible but not tight where the flow runs.
        let mut slack = r.clone();
        slack[1] = slack[0];
        assert!(solver.certify(&slack).is_err());
        // Infeasible outright.
        assert!(solver.certify(&[0, 5]).is_err());
    }

    #[test]
    fn repeated_same_cost_is_stable() {
        let cons = [Constraint::new(0, 1, 2), Constraint::new(1, 0, 1)];
        let mut solver = DualSolver::new(2, &cons).unwrap();
        let (r1, o1) = solver.solve(&[3, -3]).unwrap();
        let (r2, o2) = solver.solve(&[3, -3]).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn infeasible_constraints_rejected_up_front() {
        let cons = [Constraint::new(0, 1, -2), Constraint::new(1, 0, 1)];
        assert_eq!(
            DualSolver::new(2, &cons).unwrap_err(),
            DualError::Infeasible
        );
    }

    #[test]
    fn unbounded_detected_per_solve() {
        // Only one direction constrained: pushing cost along the free
        // direction is unbounded.
        let cons = [Constraint::new(0, 1, 2)];
        let mut solver = DualSolver::new(2, &cons).unwrap();
        assert_eq!(solver.solve(&[1, -1]), Err(DualError::Unbounded));
        // The solver survives the failure and can solve a bounded cost.
        let (r, obj) = solver.solve(&[-1, 1]).unwrap();
        assert_eq!(obj, -2);
        assert_eq!(r[0] - r[1], 2);
        // Costs that do not sum to zero: a uniform shift moves the
        // objective while keeping every constraint.
        assert_eq!(solver.solve(&[1, 0]), Err(DualError::Unbounded));
    }

    /// One cold solve, certified; the returned `r` satisfies `cons`.
    fn solve_once(cost: &[i64], cons: &[Constraint]) -> Result<(Vec<i64>, i64), DualError> {
        let mut solver = DualSolver::new(cost.len(), cons)?;
        let (r, obj) = solver.solve(cost)?;
        solver.certify(&r).unwrap();
        for c in cons {
            assert!(r[c.u] - r[c.v] <= c.bound, "violated {c:?} with r={r:?}");
        }
        Ok((r, obj))
    }

    #[test]
    fn self_loops_are_vacuous_or_infeasible() {
        let cons = [
            Constraint::new(0, 0, 0),
            Constraint::new(0, 1, 1),
            Constraint::new(1, 0, 0),
        ];
        assert_eq!(solve_once(&[-1, 1], &cons).unwrap().1, -1);
        let negative = [Constraint::new(0, 0, -1)];
        assert_eq!(solve_once(&[0], &negative), Err(DualError::Infeasible));
    }

    #[test]
    fn small_programs_reach_their_optimum() {
        // Chain closed by r2 − r0 ≤ 0: minimising r0 − r2 gives 0.
        let chain = [
            Constraint::new(0, 1, 2),
            Constraint::new(1, 2, 2),
            Constraint::new(2, 0, 0),
        ];
        assert_eq!(solve_once(&[1, 0, -1], &chain).unwrap().1, 0);
        // r0 − r1 ≥ 1 encoded as r1 − r0 ≤ −1: minimising r0 − r1 gives 1.
        let forced = [Constraint::new(1, 0, -1), Constraint::new(0, 1, 5)];
        assert_eq!(solve_once(&[1, -1], &forced).unwrap().1, 1);
        // Diamond 0 → {1, 2} → 3 with closures: maximising r0 − r3 gives
        // min(1 + 2, 4 + 2) = 3.
        let diamond = [
            Constraint::new(0, 1, 1),
            Constraint::new(1, 0, 0),
            Constraint::new(0, 2, 4),
            Constraint::new(2, 0, 0),
            Constraint::new(1, 3, 2),
            Constraint::new(3, 1, 0),
            Constraint::new(2, 3, 2),
            Constraint::new(3, 2, 0),
        ];
        assert_eq!(solve_once(&[-1, 0, 0, 1], &diamond).unwrap().1, -3);
        // Parallel constraints: maximising r0 − r1, the tighter (0, 1)
        // bound governs.
        let parallel = [
            Constraint::new(0, 1, 5),
            Constraint::new(0, 1, 1),
            Constraint::new(1, 0, 0),
        ];
        assert_eq!(solve_once(&[-1, 1], &parallel).unwrap().1, -1);
        // A zero objective returns any feasible point.
        let loose = [Constraint::new(0, 1, 1), Constraint::new(1, 0, 2)];
        assert_eq!(solve_once(&[0, 0], &loose).unwrap().1, 0);
    }

    #[test]
    fn bad_index_rejected() {
        let cons = [Constraint::new(0, 5, 1)];
        assert_eq!(
            DualSolver::new(2, &cons).unwrap_err(),
            DualError::VariableOutOfRange(5)
        );
    }
}
