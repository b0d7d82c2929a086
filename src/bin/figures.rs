//! Regenerates the paper's **figures** as CSV series in `artifacts/`:
//!
//! * Figure 3 — reference vs actual engine speed (fault-free);
//! * Figure 4 — engine load profile;
//! * Figure 5 — fault-free controller output `u_lim`;
//! * Figure 7 — a *permanent* severe value failure (output locked at a
//!   limit), Algorithm I;
//! * Figure 8 — a *semi-permanent* severe value failure, Algorithm I;
//! * Figure 9 — a *transient* minor value failure, Algorithm I;
//! * Figure 10 — the in-range state corruption (x := 69° at t = 6 s) that
//!   Algorithm II's range assertions cannot detect.

use bera::goofi::campaign::{run_fault_list, CampaignConfig, FaultList};
use bera::goofi::classify::{Outcome, Severity};
use bera::goofi::experiment::{
    exchange, golden_run, run_experiment, start_loop, FaultSpec, LoopConfig,
};
use bera::goofi::workload::Workload;
use bera::plant::closed_loop::sample_instant;
use bera::repro;
use bera::tcpu::machine::{Machine, RunExit};

fn main() {
    let cfg = LoopConfig::paper();
    let alg1 = Workload::algorithm_one();
    let alg2 = Workload::algorithm_two();
    let golden1 = golden_run(&alg1, &cfg);
    let golden2 = golden_run(&alg2, &cfg);
    let t: Vec<f64> = (0..cfg.iterations)
        .map(|k| sample_instant(k, cfg.sample_interval))
        .collect();

    // ---- Figures 3, 4, 5: the fault-free workload ----
    let r: Vec<f64> = t.iter().map(|&tt| cfg.profiles.reference(tt)).collect();
    let mut fig3 = String::from("t,r,y\n");
    for ((tt, rr), yy) in t.iter().zip(r.iter()).zip(golden1.speeds.iter()) {
        fig3.push_str(&format!("{tt:.4},{rr:.2},{yy:.2}\n"));
    }
    repro::write_artifact("fig3_speed.csv", &fig3);

    let load: Vec<f64> = t.iter().map(|&tt| cfg.profiles.load(tt)).collect();
    repro::write_artifact("fig4_load.csv", &repro::csv_two("t,load", &t, &load));

    let u: Vec<f64> = golden1
        .outputs
        .iter()
        .map(|&b| f64::from(f32::from_bits(b)))
        .collect();
    repro::write_artifact("fig5_output.csv", &repro::csv_two("t,u_lim", &t, &u));

    // ---- Figures 7, 8, 9: exemplar failures found by a campaign sweep ----
    let sweep_faults = repro::fault_override(4000);
    let campaign_cfg = CampaignConfig::paper(sweep_faults, repro::CAMPAIGN_SEED + 7);
    let list = FaultList::sample(
        sweep_faults,
        repro::CAMPAIGN_SEED + 7,
        golden1.total_instructions,
    );
    let records = run_fault_list(&alg1, &campaign_cfg, &golden1, &list.faults);

    let mut exemplars: Vec<(Severity, &str, Option<FaultSpec>)> = vec![
        (Severity::Permanent, "fig7_permanent.csv", None),
        (Severity::SemiPermanent, "fig8_semi_permanent.csv", None),
        (Severity::Transient, "fig9_transient.csv", None),
    ];
    for rec in &records {
        if let Outcome::ValueFailure(s) = rec.outcome {
            for (sev, _, slot) in exemplars.iter_mut() {
                if *sev == s && slot.is_none() {
                    *slot = Some(rec.fault);
                }
            }
        }
    }
    for (sev, file, slot) in &exemplars {
        match slot {
            Some(fault) => {
                let rec = run_experiment(&alg1, &cfg, &golden1, *fault, true);
                let outputs = rec.outputs.expect("detail mode records outputs");
                let csv = repro::csv_compare(&golden1.outputs, &outputs, cfg.sample_interval);
                repro::write_artifact(file, &csv);
                println!(
                    "{sev:?} exemplar: {:?} injected at instruction {} (max deviation {:.2}°)",
                    rec.location, fault.inject_at, rec.max_deviation
                );
            }
            None => println!("warning: no {sev:?} exemplar found in {sweep_faults} faults"),
        }
    }

    // ---- Figure 10: in-range x corruption under Algorithm II ----
    let fig10 = figure10(&alg2, &cfg);
    let csv = repro::csv_compare(&golden2.outputs, &fig10, cfg.sample_interval);
    repro::write_artifact("fig10_inrange_state_error.csv", &csv);
    let max_dev = golden2
        .outputs
        .iter()
        .zip(fig10.iter())
        .map(|(g, f)| (f64::from(f32::from_bits(*g)) - f64::from(f32::from_bits(*f))).abs())
        .fold(0.0, f64::max);
    println!("figure 10: x forced to 69° at t = 6 s, max output deviation {max_dev:.2}°");
}

/// Drives Algorithm II and forces the cached state variable to 69° at
/// t = 6 s (iteration 390) through the scan chain — the corruption of
/// Figure 10 that stays inside the asserted range.
fn figure10(workload: &Workload, cfg: &LoopConfig) -> Vec<u32> {
    let mut machine = Machine::new();
    machine.load_program(workload.program());
    let mut env = start_loop(&mut machine, cfg);
    let x_addr = workload.x_address();
    let mut outputs = Vec::with_capacity(cfg.iterations);
    while env.iteration() < cfg.iterations {
        if env.iteration() == 390 {
            assert!(
                machine.scan_write_cached(x_addr, 69.0f32.to_bits()),
                "x must be cache-resident for the figure-10 scenario"
            );
        }
        match machine.run(1_000_000) {
            RunExit::Yield => outputs.push(exchange(&mut machine, cfg, &mut env).to_bits()),
            other => panic!("figure-10 run must not trap: {other:?}"),
        }
    }
    outputs
}
