//! `scale_wd`: host-free retiming of seeded synthetic netlists
//! (`lacr_prng::synth`) with two worker threads: minimum-period search,
//! pruned W/D constraint generation at the optimum, and one cold
//! min-area solve. Bypasses the front end and LAC entirely. Rings are
//! dominated by FEAS probes and the W/D build, meshes by the W/D build
//! and the cold solve.

use crate::expected::Expected;
use crate::layers::{timed, Layers};
use crate::{median, peak_mb, quantile, run_passes, Args, Outcome};
use lacr_prng::synth::{pipelined_mesh, ring_of_rings, SynthNetlist};
use lacr_retime::{
    feasible_retiming, generate_period_constraints, try_min_period_retiming, verify_retiming,
    weighted_min_area_retiming, RetimeGraph, RetimingOutcome, VertexKind,
};
use std::time::Instant;

/// `(topology, cells, instances)`: each instance is its own seeded
/// netlist. The minimum-period search on a ring costs from one to six
/// times its median depending on the seed (how many of its probes are
/// infeasible), so a run sums many small rings to keep its total steady
/// across seeds; the mesh's cost barely depends on the seed.
const SPECS: &[(&str, usize, u64)] = &[("ring", 512, 256), ("mesh", 16384, 1)];
const TINY: &[(&str, usize, u64)] = &[("ring", 256, 1), ("mesh", 256, 1)];
/// Synth seed of instance 0 at benchmark seed 0 (`bench_scale`'s
/// default). Instance `i` at benchmark seed `s` uses
/// `BASE_SEED + 1000 s + i`.
const BASE_SEED: u64 = 2003;
const THREADS: usize = 2;
const SETUP_REPS: usize = 11;

fn synth(topology: &str, cells: usize, seed: u64) -> SynthNetlist {
    match topology {
        "ring" => ring_of_rings(cells, seed),
        _ => pipelined_mesh(cells, seed),
    }
}

/// Lowers an abstract netlist to a host-free retiming graph.
fn lower(net: &SynthNetlist) -> RetimeGraph {
    let mut g = RetimeGraph::new();
    let ids: Vec<_> = net
        .delays_ps
        .iter()
        .map(|&d| g.add_vertex(VertexKind::Functional, d, 1.0, None))
        .collect();
    for e in &net.edges {
        g.add_edge(ids[e.from as usize], ids[e.to as usize], i64::from(e.flops));
    }
    g
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    lacr_par::set_threads(THREADS);
    let specs = if args.tiny { TINY } else { SPECS };
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    // (key, graph) per instance; the key names the expected.txt row.
    let mut setup = Vec::new();
    let mut inputs: Vec<(String, RetimeGraph)> = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = specs
            .iter()
            .flat_map(|&(topology, cells, count)| {
                (0..count).map(move |i| {
                    let seed = BASE_SEED + 1000 * args.seed + i;
                    let graph = lower(&synth(topology, cells, seed));
                    (format!("scale {topology}:{cells} {seed}"), graph)
                })
            })
            .collect();
        setup.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setup));
    if args.trace {
        lacr_obs::init(Box::new(lacr_obs::NullSink));
    }

    let expected = Expected::load(args.corrupt_expected);
    let mut walls = Vec::new();
    let mut ops = Vec::new();
    let passes = run_passes(args.seconds, || {
        let mut wall = 0.0;
        for (key, graph) in &inputs {
            let t = Instant::now();
            let result = retime(&mut layers, graph);
            let dt = t.elapsed().as_secs_f64();
            wall += dt;
            ops.push(dt * 1e3);
            let errors = match result {
                Ok((period, outcome)) => {
                    let flops = outcome.total_flops;
                    if walls.is_empty() {
                        out.note(format!(
                            "{key}: T_min {period} ps, {} -> {flops} flops, {dt:.3} s",
                            graph.total_flops()
                        ));
                    }
                    let mut errors = Vec::new();
                    if let Err(e) = verify_retiming(graph, &outcome, period) {
                        errors.push(format!("min-area retiming fails verification: {e}"));
                    }
                    if period > 0 && feasible_retiming(graph, period - 1).is_some() {
                        errors.push(format!(
                            "{} ps is feasible, so {period} is not minimal",
                            period - 1
                        ));
                    }
                    errors.extend(expected.check(
                        key,
                        &[("t_clk_ps", period as i64), ("min_area_flops", flops)],
                    ));
                    errors
                }
                Err(e) => vec![e],
            };
            out.op(key, errors);
        }
        walls.push(wall);
        wall
    });
    if args.trace {
        lacr_obs::finish();
    }

    let wall = median(&walls);
    out.set("wall_s", wall);
    out.set("trace.wall_s", wall);
    out.set("peak_mb", peak_mb());
    out.set("op_p50_ms", quantile(&ops, 0.5));
    out.set(
        "trace.timed_share",
        layers.timed_secs() / walls.iter().sum::<f64>(),
    );
    layers.report(&mut out, passes);
    let checked = inputs.iter().filter(|(k, _)| expected.has(k)).count();
    out.note(format!(
        "{passes} pass(es) of {} retimings, {checked} with expected quality",
        inputs.len()
    ));
    Ok(out)
}

/// Minimum period, constraints at it, and one min-area solve, each a
/// timed call. Returns the period and the min-area outcome.
fn retime(layers: &mut Layers, graph: &RetimeGraph) -> Result<(u64, RetimingOutcome), String> {
    let mp = timed(&mut layers.min_period, || try_min_period_retiming(graph, 0))
        .map_err(|e| format!("min-period retiming: {e}"))?;
    layers.snap(false);
    let period = mp.result.period;
    let pc = timed(&mut layers.constraints, || {
        generate_period_constraints(graph, period)
    })
    .map_err(|e| format!("constraint generation: {e}"))?;
    layers.snap(false);
    let areas: Vec<f64> = graph.vertex_ids().map(|v| graph.area(v)).collect();
    let outcome = timed(&mut layers.minarea, || {
        weighted_min_area_retiming(graph, &pc, &areas)
    })
    .map_err(|e| format!("min-area retiming: {e}"))?;
    layers.snap(false);
    Ok((period, outcome))
}
