//! Timed calls into the planner's public functions, and the per-layer
//! metrics built from their times, allocation counts and the obs
//! snapshots (`lacr_obs::take_snapshot`) taken around them.

use crate::{allocs, median, Outcome};
use lacr_core::planner::{plan_constraints, try_build_physical_plan, PhysicalPlan, PlannerConfig};
use lacr_core::{lac_retiming, score_outcome, LacResult, TileOccupancy};
use lacr_netlist::Circuit;
use lacr_obs::report::Report;
use lacr_retime::{verify_retiming, weighted_min_area_retiming};
use std::collections::BTreeMap;
use std::time::Instant;

/// Total time and allocation events of one kind of timed call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Call {
    pub secs: f64,
    pub allocs: u64,
}

/// Runs `f`, adding its wall time and allocation events to `slot`.
pub fn timed<T>(slot: &mut Call, f: impl FnOnce() -> T) -> T {
    let a = allocs();
    let t = Instant::now();
    let r = f();
    slot.secs += t.elapsed().as_secs_f64();
    slot.allocs += allocs() - a;
    r
}

/// Span and counter totals summed over obs snapshots.
#[derive(Debug, Default)]
pub struct Agg {
    /// Per span name: (count, inclusive ns, exclusive ns).
    spans: BTreeMap<String, (u64, u64, u64)>,
    counters: BTreeMap<String, i64>,
}

impl Agg {
    fn add(&mut self, r: &Report) {
        for (name, s) in &r.spans {
            let e = self.spans.entry(name.clone()).or_default();
            e.0 += s.count;
            e.1 += s.incl_ns;
            e.2 += s.excl_ns;
        }
        for (name, v) in &r.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
    }

    pub fn incl_s(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |s| s.1 as f64 / 1e9)
    }

    /// Exclusive seconds of every span whose name starts with `prefix`.
    pub fn excl_s_prefix(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, s)| s.2 as f64 / 1e9)
            .sum()
    }

    pub fn count(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |s| s.0 as f64)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// One planned circuit: the physical plan, the scored min-area baseline
/// and the LAC result, both at the plan's `T_clk`.
pub struct Planned {
    pub plan: PhysicalPlan,
    pub base: LacResult,
    pub lac: LacResult,
}

/// Accumulated timed calls and traces of a workload run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Every snapshot.
    pub all: Agg,
    /// Snapshots taken around LAC calls only (warm re-solves).
    pub lac: Agg,
    pub build: Call,
    pub min_period: Call,
    pub constraints: Call,
    pub minarea: Call,
    pub lac_call: Call,
    /// `N_wr` of every LAC call.
    pub lac_rounds: Vec<f64>,
    pub generate_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
}

impl Layers {
    /// Drains the obs aggregates gathered since the last call (nothing
    /// when tracing is off).
    pub fn snap(&mut self, lac_window: bool) {
        if let Some(r) = lacr_obs::take_snapshot() {
            self.all.add(&r);
            if lac_window {
                self.lac.add(&r);
            }
        }
    }

    /// Plans one circuit the way `lacr plan` does (physical plan, period
    /// constraints at `T_clk`, min-area baseline, LAC), timing each call.
    pub fn plan(&mut self, circuit: &Circuit, config: &PlannerConfig) -> Result<Planned, String> {
        self.snap(false);
        let plan = timed(&mut self.build, || {
            try_build_physical_plan(circuit, config, &[])
        })
        .map_err(|e| format!("physical plan: {e}"))?;
        self.snap(false);
        let pc = timed(&mut self.constraints, || plan_constraints(&plan));
        self.snap(false);
        let graph = &plan.expanded.graph;
        let caps = &plan.expanded.caps_ff;
        let areas: Vec<f64> = graph.vertex_ids().map(|v| graph.area(v)).collect();
        let base = timed(&mut self.minarea, || {
            weighted_min_area_retiming(graph, &pc, &areas)
        })
        .map_err(|e| format!("min-area retiming: {e}"))?;
        self.snap(false);
        let lac = timed(&mut self.lac_call, || {
            lac_retiming(graph, &pc, caps, &config.lac)
        })
        .map_err(|e| format!("LAC retiming: {e}"))?;
        self.snap(true);
        self.lac_rounds.push(lac.n_wr as f64);
        let base = score_outcome(graph, base, caps);
        Ok(Planned { plan, base, lac })
    }

    /// Sum of every timed layer call, seconds.
    pub fn timed_secs(&self) -> f64 {
        self.build.secs
            + self.min_period.secs
            + self.constraints.secs
            + self.minarea.secs
            + self.lac_call.secs
    }

    /// Sets the per-layer metrics, each per pass (totals divided by
    /// `passes`).
    pub fn report(&self, out: &mut Outcome, passes: usize) {
        let n = passes.max(1) as f64;
        let a = &self.all;
        out.set("core.build_plan_s", self.build.secs / n);
        out.set(
            "partition.self_s",
            (a.excl_s_prefix("partition.") + a.excl_s_prefix("plan.partition")) / n,
        );
        out.set("floorplan.anneal_s", a.incl_s("floorplan.anneal") / n);
        let tried = a.counter("floorplan.moves_tried");
        if tried > 0.0 {
            out.set(
                "floorplan.accept_ratio",
                a.counter("floorplan.moves_accepted") / tried,
            );
        }
        out.set("route.global_s", a.incl_s("route.global") / n);
        out.set("repeater.plan_s", a.incl_s("repeater.plan") / n);
        out.set("core.expand_s", a.incl_s("plan.expand") / n);
        out.set("retime.min_period_s", a.incl_s("retime.min_period") / n);
        out.set("retime.feas_probes", a.counter("retime.feas_probes") / n);
        out.set("retime.wd_build_s", a.incl_s("retime.wd_build") / n);
        out.set("retime.constraints_s", self.constraints.secs / n);
        let pairs = a.counter("retime.period_pairs");
        let emitted = a.counter("retime.constraints_emitted");
        out.set("retime.period_pairs", pairs / n);
        out.set("retime.constraints", emitted / n);
        if pairs > 0.0 {
            out.set("retime.prune_ratio", emitted / pairs);
        }
        out.set("par.region_s", a.incl_s("par.region") / n);
        out.set("par.tasks", a.counter("par.tasks") / n);
        out.set("retime.minarea_s", self.minarea.secs / n);
        let warm = self.lac.incl_s("retime.minarea_solve");
        out.set("mcmf.warm_solve_s", warm / n);
        out.set("mcmf.solves", a.count("retime.minarea_solve") / n);
        out.set("mcmf.ssp_iterations", a.counter("mcmf.ssp_iterations") / n);
        out.set("core.lac_s", self.lac_call.secs / n);
        out.set("core.lac_self_s", (self.lac_call.secs - warm) / n);
        out.set("core.lac_rounds", self.lac_rounds.iter().sum::<f64>() / n);
        out.set(
            "core.lac_rounds_min",
            self.lac_rounds
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
        );
        out.set("core.lac_allocs", self.lac_call.allocs as f64 / n);
        let calls = [
            ("mem.allocs_build_plan", self.build),
            ("mem.allocs_min_period", self.min_period),
            ("mem.allocs_constraints", self.constraints),
            ("mem.allocs_minarea", self.minarea),
            ("mem.allocs_lac", self.lac_call),
        ];
        let mut total = 0u64;
        for (name, call) in calls {
            out.set(name, call.allocs as f64 / n);
            total += call.allocs;
        }
        out.set("mem.allocs", total as f64 / n);
        out.set("netlist.generate_ms", median(&self.generate_ms));
        out.set("netlist.write_ms", median(&self.write_ms));
    }
}

/// The correctness oracle every planned circuit passes: both retimings
/// verify at `T_clk`, a recount of LAC's tile occupancy equals its
/// reported `N_FOA`, and LAC never ends with more violations than the
/// min-area baseline.
pub fn check_plan(p: &Planned) -> Vec<String> {
    let graph = &p.plan.expanded.graph;
    let caps = &p.plan.expanded.caps_ff;
    let t_clk = p.plan.t_clk;
    let mut errors = Vec::new();
    for (what, r) in [("min-area", &p.base), ("LAC", &p.lac)] {
        if let Err(e) = verify_retiming(graph, &r.outcome, t_clk) {
            errors.push(format!(
                "{what} retiming fails verification at {t_clk} ps: {e}"
            ));
        }
        let recount = TileOccupancy::compute(graph, &r.outcome.weights, caps).total_violations();
        if recount != r.n_foa {
            errors.push(format!(
                "{what} reports N_FOA {} but the occupancy recount gives {recount}",
                r.n_foa
            ));
        }
    }
    if p.lac.n_foa > p.base.n_foa {
        errors.push(format!(
            "LAC N_FOA {} exceeds the min-area baseline's {}",
            p.lac.n_foa, p.base.n_foa
        ));
    }
    errors
}
