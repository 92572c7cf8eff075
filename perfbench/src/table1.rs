//! `table1_lac`: s838 and s1423 planned single-threaded through the
//! Table-1 protocol (physical plan, period constraints at `T_clk`,
//! min-area baseline, LAC) at the planner's default master seed.
//!
//! s838 spends most of its time in the LAC legaliser, s1423 in warm
//! min-cost-flow re-solves. The workload is the same for every
//! benchmark seed: the master seed stays at the Table-1 value, so every
//! run checks quality against `RUN_table1.json` exactly (a seeded master
//! seed moves s1423 alone from 5 s to 52 s, which no run length
//! absorbs), and the plans run in Table-1 order (planning s838 first
//! raises the process's peak RSS by 100 MiB over s1423 first).

use crate::expected::Expected;
use crate::layers::{check_plan, Layers};
use crate::{median, ms, peak_mb, quantile, run_passes, Args, Outcome};
use lacr_core::planner::PlannerConfig;
use lacr_netlist::{bench89, bench_format};
use std::time::Instant;

const CIRCUITS: &[&str] = &["s838", "s1423"];
const TINY: &[&str] = &["s344", "s382"];
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 31;
/// Timed `generate`/`write` calls per circuit in a traced run.
const NETLIST_REPS: usize = 5;

pub fn run(args: &Args) -> Result<Outcome, String> {
    lacr_par::set_threads(1);
    let names = if args.tiny { TINY } else { CIRCUITS };
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    let mut setup = Vec::new();
    let mut circuits = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        circuits = names
            .iter()
            .map(|n| bench89::generate(n).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        setup.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setup));

    if args.trace {
        for name in names {
            for _ in 0..NETLIST_REPS {
                let t = Instant::now();
                let c = bench89::generate(name).map_err(|e| e.to_string())?;
                layers.generate_ms.push(ms(t.elapsed()));
                let t = Instant::now();
                std::hint::black_box(bench_format::write(&c));
                layers.write_ms.push(ms(t.elapsed()));
            }
        }
        lacr_obs::init(Box::new(lacr_obs::NullSink));
    }

    let config = PlannerConfig::default();
    let expected = Expected::load(args.corrupt_expected);
    let mut walls = Vec::new();
    let mut ops = Vec::new();
    let passes = run_passes(args.seconds, || {
        let mut wall = 0.0;
        for (name, circuit) in names.iter().zip(&circuits) {
            let t = Instant::now();
            let planned = layers.plan(circuit, &config);
            let dt = t.elapsed().as_secs_f64();
            wall += dt;
            ops.push(dt * 1e3);
            let errors = match planned {
                Ok(p) => {
                    if walls.is_empty() {
                        out.note(format!(
                            "{name}: T_clk {} ps, N_FOA {} -> {}, {} LAC rounds, {dt:.3} s",
                            p.plan.t_clk, p.base.n_foa, p.lac.n_foa, p.lac.n_wr
                        ));
                    }
                    let mut errors = check_plan(&p);
                    errors.extend(expected.check(
                        &format!("table1 {name}"),
                        &[
                            ("t_clk_ps", p.plan.t_clk as i64),
                            ("base_n_foa", p.base.n_foa),
                            ("lac_n_foa", p.lac.n_foa),
                            ("n_wr", p.lac.n_wr as i64),
                        ],
                    ));
                    errors
                }
                Err(e) => vec![e],
            };
            out.op(name, errors);
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
    out.note(format!(
        "{passes} pass(es) of {} plans; LAC rounds per plan {:?}",
        names.len(),
        &layers.lac_rounds[..names.len().min(layers.lac_rounds.len())]
    ));
    Ok(out)
}
