//! Golden outputs of LAC-retiming, recorded before the min-cost-flow
//! engine and the flip-flop legaliser were rewritten for speed.
//!
//! On s382, s526 and s953 the min-area baseline leaves 17, 15 and 30
//! local-area violations that the legaliser clears in LAC's first round.
//! A fourth case squeezes s382's tile capacities so the loop re-weights
//! for several rounds, each a warm re-solve of the same dual program.
//!
//! The constants pin the exact result — not just its quality — so a
//! change that returns a different optimal dual or a different legal
//! placement fails here.

use lacr_core::planner::{
    plan_constraints, try_build_physical_plan, try_plan_retimings, PlannerConfig,
};
use lacr_core::{lac_retiming, LacConfig};
use lacr_netlist::bench89;

/// One circuit's pinned LAC result.
#[derive(Debug, PartialEq)]
struct Golden {
    base_n_foa: i64,
    base_fnv: u64,
    n_foa: i64,
    n_f: i64,
    n_wr: usize,
    history: Vec<i64>,
    retiming_fnv: u64,
}

/// FNV-1a over the little-endian bytes of a retiming vector.
fn fnv(r: &[i64]) -> u64 {
    r.iter()
        .flat_map(|x| x.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Plans `circuit` with the default configuration and returns the
/// pinned fields of its report.
fn planned(circuit: &str) -> Golden {
    let circuit = bench89::generate(circuit).expect("known circuit");
    let config = PlannerConfig::default();
    let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan succeeds");
    let report = try_plan_retimings(&plan, &config).expect("retimings succeed");
    let lac = &report.lac.result;
    Golden {
        base_n_foa: report.min_area.result.n_foa,
        base_fnv: fnv(&report.min_area.result.outcome.retiming),
        n_foa: lac.n_foa,
        n_f: lac.n_f,
        n_wr: lac.n_wr,
        history: lac.history.clone(),
        retiming_fnv: fnv(&lac.outcome.retiming),
    }
}

#[test]
fn s382_lac_result_is_pinned() {
    let want = Golden {
        base_n_foa: 17,
        base_fnv: 0xd927_902b_db54_c147,
        n_foa: 0,
        n_f: 82,
        n_wr: 1,
        history: vec![0],
        retiming_fnv: 0x2ecf_ed31_f7b1_a947,
    };
    assert_eq!(planned("s382"), want);
}

#[test]
fn s526_lac_result_is_pinned() {
    let want = Golden {
        base_n_foa: 15,
        base_fnv: 0x10ad_7eae_26ed_2d45,
        n_foa: 0,
        n_f: 95,
        n_wr: 1,
        history: vec![0],
        retiming_fnv: 0xfcbc_fdb1_591b_1bc4,
    };
    assert_eq!(planned("s526"), want);
}

#[test]
fn s953_lac_result_is_pinned() {
    let want = Golden {
        base_n_foa: 30,
        base_fnv: 0xb9de_3dc0_4b66_8cc6,
        n_foa: 0,
        n_f: 190,
        n_wr: 1,
        history: vec![0],
        retiming_fnv: 0xb63e_0432_95e8_a125,
    };
    assert_eq!(planned("s953"), want);
}

/// s382 with every tile's capacity cut to 80%: no round reaches zero, so
/// the loop re-weights and warm re-solves until `n_max` stale rounds.
#[test]
fn squeezed_s382_warm_rounds_are_pinned() {
    let circuit = bench89::generate("s382").expect("known circuit");
    let config = PlannerConfig::default();
    let plan = try_build_physical_plan(&circuit, &config, &[]).expect("plan succeeds");
    let caps: Vec<f64> = plan.expanded.caps_ff.iter().map(|c| c * 0.8).collect();
    let pc = plan_constraints(&plan);
    let lac_config = LacConfig {
        n_max: 4,
        ..LacConfig::default()
    };
    let lac = lac_retiming(&plan.expanded.graph, &pc, &caps, &lac_config).expect("feasible");
    let got = (
        lac.n_foa,
        lac.n_f,
        lac.n_wr,
        lac.history.clone(),
        fnv(&lac.outcome.retiming),
    );
    let want = (11, 82, 5, vec![11; 5], 0xc2a6_7cda_9072_30a6);
    assert_eq!(got, want, "fnv {:#018x}", got.4);
}
