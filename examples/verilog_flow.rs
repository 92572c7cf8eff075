//! Verilog in, planned-and-retimed Verilog out: the adoption path for an
//! RTL flow. Builds a small structural design in memory, parses it,
//! plans it, writes the retimed netlist back as Verilog, and re-parses to
//! prove the loop closes.
//!
//! ```text
//! cargo run --release --example verilog_flow
//! ```

use lacr::core::planner::{try_build_physical_plan, try_plan_retimings, PlannerConfig};
use lacr::core::try_retimed_circuit;
use lacr::netlist::verilog;

const DESIGN: &str = r"
module accumulate4 (d0, d1, d2, d3, sum);
  input d0, d1, d2, d3;
  output sum;
  wire a01, a23, t0, t1, t2, t3, root, q1, q2;
  // input conditioning
  buf i0 (t0, d0);
  buf i1 (t1, d1);
  buf i2 (t2, d2);
  buf i3 (t3, d3);
  // adder tree
  xor g0 (a01, t0, t1);
  xor g1 (a23, t2, t3);
  xor g2 (root, a01, a23);
  // two pipeline registers parked at the very end
  dff r1 (q1, root);
  dff r2 (q2, q1);
  buf ob (sum, q2);
endmodule
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = verilog::parse(DESIGN)?;
    println!(
        "parsed module {:?}: {} units, {} flip-flops",
        circuit.name(),
        circuit.num_units(),
        circuit.num_flops()
    );

    let config = PlannerConfig {
        num_blocks: Some(2),
        ..Default::default()
    };
    let plan = try_build_physical_plan(&circuit, &config, &[])?;
    let report = try_plan_retimings(&plan, &config)?;
    println!(
        "planned at T_clk = {:.2} ns (T_init {:.2} ns): {} flip-flops after LAC-retiming",
        plan.t_clk as f64 / 1000.0,
        plan.t_init as f64 / 1000.0,
        report.lac.result.n_f
    );

    let retimed =
        try_retimed_circuit(&circuit, &plan.expanded, &report.lac.result.outcome.weights)?;
    let out = verilog::write(&retimed);
    println!("\n-- retimed structural Verilog ----------------------------------");
    print!("{out}");

    // Close the loop: the emitted netlist must parse and conserve flops.
    let back = verilog::parse(&out)?;
    assert_eq!(back.num_flops() as i64, report.lac.result.n_f);
    assert!(back.validate().is_empty());
    println!(
        "-- re-parsed OK: {} flip-flops conserved -----------------------",
        back.num_flops()
    );
    Ok(())
}
