//! Thor-like CPU simulator throughput: instructions per second executing
//! the two workloads, assembler speed, and scan-chain operations — the
//! quantities that determine how long a 9290-fault campaign takes.

use bera_goofi::workload::Workload;
use bera_plant::{Engine, Profiles};
use bera_tcpu::asm::assemble;
use bera_tcpu::machine::{Machine, RunExit, PORT_R, PORT_Y};
use bera_tcpu::scan;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn run_iterations(workload: &Workload, iterations: usize) -> u64 {
    let mut m = Machine::new();
    m.load_program(workload.program());
    let mut engine = Engine::paper();
    let profiles = Profiles::paper();
    for k in 0..iterations {
        let t = k as f64 * 0.0154;
        m.set_port_f32(PORT_R, profiles.reference(t) as f32);
        m.set_port_f32(PORT_Y, engine.speed_rpm() as f32);
        assert_eq!(m.run(1_000_000), RunExit::Yield);
        engine.advance(f64::from(m.port_out_f32(2)), profiles.load(t), 0.0154);
    }
    m.instr_count()
}

fn bench_machine(c: &mut Criterion) {
    // How many instructions one controller iteration costs.
    let per_iter = {
        let w = Workload::algorithm_one();
        run_iterations(&w, 10) / 10
    };

    let mut group = c.benchmark_group("machine");
    group.throughput(Throughput::Elements(per_iter * 50));

    for w in [Workload::algorithm_one(), Workload::algorithm_two()] {
        group.bench_function(format!("execute_{}", w.name().replace(' ', "_")), |b| {
            b.iter(|| run_iterations(black_box(&w), 50));
        });
    }

    group.bench_function("assemble_algorithm2", |b| {
        b.iter(|| assemble(black_box(bera_goofi::workload::ALGORITHM_2_SOURCE)).unwrap());
    });

    group.bench_function("rtw_compile_algorithm2", |b| {
        let model = bera_rtw::algorithm_two_model();
        b.iter(|| bera_rtw::compile(black_box(&model)).unwrap());
    });

    group.bench_function("load_program", |b| {
        let w = Workload::algorithm_one();
        let mut m = Machine::new();
        b.iter(|| m.load_program(black_box(w.program())));
    });

    group.bench_function("scan_diff_count", |b| {
        let golden = Machine::new();
        let mut m = golden.clone();
        m.scan_flip(scan::catalog()[0]);
        b.iter(|| black_box(m.scan_diff_count(black_box(&golden))));
    });

    group.bench_function("scan_flip_all_locations", |b| {
        let mut m = Machine::new();
        let catalog = scan::catalog();
        b.iter(|| {
            for &loc in catalog.iter().step_by(7) {
                m.scan_flip(black_box(loc));
            }
        });
    });

    // The per-boundary divergence check the convergence pruner runs.
    group.bench_function("state_equals_full_walk", |b| {
        let w = Workload::algorithm_one();
        let mut m = Machine::new();
        m.load_program(w.program());
        let twin = m.clone();
        b.iter(|| black_box(m.state_equals(&twin)));
    });

    group.finish();
}

criterion_group!(benches, bench_machine);
criterion_main!(benches);
