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
/// with Dijkstra phases over reduced costs, each followed by a
/// blocking-flow sweep of the zero-reduced-cost subgraph, and (in debug
/// builds) certifies its own optimality by complementary slackness.
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
    on_path: Vec<bool>,
    path: Vec<u32>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    level: Vec<u32>,
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
            on_path: vec![false; nn],
            path: Vec::new(),
            heap: BinaryHeap::new(),
            level: Vec::new(),
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
    /// Each *phase* runs one Dijkstra over reduced costs, makes the dual
    /// update, and then augments along as many zero-reduced-cost paths as
    /// a cursor-based DFS can find before the admissible subgraph dries
    /// up. On the dense W/D constraint networks of LAC retiming this
    /// replaces one full Dijkstra *per augmenting path* with one per
    /// phase — the number of phases is bounded by the number of distinct
    /// shortest-path costs, typically orders of magnitude smaller.
    fn route(&mut self, s: usize, t: usize, mut remaining: i64) -> Result<(), DualError> {
        let Self {
            arcs,
            start,
            end,
            pi,
            dist,
            cursor,
            on_path,
            path,
            heap,
            level,
            ..
        } = self;
        // Statistics, accumulated locally (the loop is hot) and flushed
        // as counters on both exits.
        let mut augmentations = 0_u64;
        let mut phases = 0_u64;
        let mut pot_updates = 0_u64;
        let flush = |augmentations: u64, phases: u64, pot_updates: u64| {
            lacr_obs::counter!("mcmf.ssp_iterations", augmentations);
            lacr_obs::counter!("mcmf.dijkstra_phases", phases);
            lacr_obs::counter!("mcmf.potential_updates", pot_updates);
        };
        while remaining > 0 {
            phases += 1;
            dist.iter_mut().for_each(|d| *d = i64::MAX);
            dist[s] = 0;
            heap.clear();
            heap.push(Reverse((0i64, pos(s))));
            let mut dist_t = i64::MAX;
            // Nodes reached over a zero-reduced-cost arc share the current
            // minimum distance: they are settled from the `level` stack
            // before the heap is consulted again. Extraction stays in
            // distance order, and the potential update below depends only
            // on the distances, not on the order of equal ones.
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
            if dist_t == i64::MAX {
                flush(augmentations, phases, pot_updates);
                return Err(DualError::Unbounded);
            }
            for (p, &d) in pi.iter_mut().zip(dist.iter()) {
                let delta = d.min(dist_t);
                if delta != 0 {
                    pot_updates += 1;
                }
                *p += delta;
            }
            // Blocking-flow sweep over the admissible subgraph (arcs with
            // capacity and zero reduced cost under the updated
            // potentials). Cursors never rewind, so each arc is inspected
            // O(1) times per phase; any admissible path the sweep misses
            // because a node was transiently on the path is picked up by
            // the next phase's fresh cursors at unchanged potentials.
            let nn = cursor.len();
            cursor.copy_from_slice(&start[..nn]);
            path.clear();
            on_path[s] = true;
            let mut v = s;
            while remaining > 0 {
                if v == t {
                    let mut bottleneck = remaining;
                    for &ai in path.iter() {
                        bottleneck = bottleneck.min(arcs[ai as usize].cap);
                    }
                    // Resume at the tail of the first arc the augmentation
                    // saturates: restarting from `s`, the unchanged
                    // cursors would walk the same prefix back to it.
                    let mut keep = path.len();
                    for (k, &ai) in path.iter().enumerate() {
                        let a = &mut arcs[ai as usize];
                        a.cap -= bottleneck;
                        if a.cap == 0 && keep == path.len() {
                            keep = k;
                        }
                        let (rev, to) = (a.rev as usize, a.to as usize);
                        arcs[rev].cap += bottleneck;
                        if keep <= k {
                            on_path[to] = false;
                        }
                    }
                    remaining -= bottleneck;
                    augmentations += 1;
                    if let Some(&ai) = path.get(keep) {
                        v = arcs[arcs[ai as usize].rev as usize].to as usize;
                    }
                    path.truncate(keep);
                    continue;
                }
                let mut advanced = false;
                let pi_v = pi[v];
                while cursor[v] < end[v] {
                    let ai = cursor[v];
                    let a = &arcs[ai as usize];
                    let to = a.to as usize;
                    if a.cap > 0 && !on_path[to] && a.cost + pi_v - pi[to] == 0 {
                        path.push(ai);
                        on_path[to] = true;
                        v = to;
                        advanced = true;
                        break;
                    }
                    cursor[v] += 1;
                }
                if advanced {
                    continue;
                }
                // Dead end: retreat one step, skipping the arc that led
                // here. At the source the phase is exhausted.
                match path.pop() {
                    Some(ai) => {
                        on_path[v] = false;
                        v = arcs[arcs[ai as usize].rev as usize].to as usize;
                        cursor[v] += 1;
                    }
                    None => break,
                }
            }
            on_path.iter_mut().for_each(|b| *b = false);
        }
        flush(augmentations, phases, pot_updates);
        Ok(())
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

    #[test]
    fn matches_one_shot_solver_on_random_instances() {
        let mut rng = Rng::seed_from_u64(5);
        for case in 0..50 {
            let n = rng.gen_range(2..6usize);
            // A ring of constraints keeps everything bounded.
            let mut cons = Vec::new();
            for i in 0..n {
                cons.push(Constraint::new(i, (i + 1) % n, rng.gen_range(0..4)));
            }
            for _ in 0..rng.gen_range(0..4) {
                cons.push(Constraint::new(
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(0..5),
                ));
            }
            let mut solver = match DualSolver::new(n, &cons) {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Several cost vectors in sequence, comparing against the
            // stateless reference each time.
            for round in 0..4 {
                let mut cost: Vec<i64> = (0..n).map(|_| rng.gen_range(-5..=5)).collect();
                let sum: i64 = cost.iter().sum();
                cost[0] -= sum;
                let warm = solver.solve(&cost);
                let reference = crate::solve_dual_program(n, &cost, &cons);
                match (warm, reference) {
                    (Ok((r, obj)), Ok((_, obj_ref))) => {
                        assert_eq!(obj, obj_ref, "case {case} round {round}");
                        for c in &cons {
                            assert!(r[c.u] - r[c.v] <= c.bound);
                        }
                        solver
                            .certify(&r)
                            .unwrap_or_else(|e| panic!("case {case} round {round}: {e}"));
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("case {case} round {round}: {a:?} vs {b:?}"),
                }
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
    }

    #[test]
    fn nonzero_cost_sum_rejected() {
        let cons = [Constraint::new(0, 1, 1), Constraint::new(1, 0, 0)];
        let mut solver = DualSolver::new(2, &cons).unwrap();
        assert_eq!(solver.solve(&[1, 1]), Err(DualError::Unbounded));
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
