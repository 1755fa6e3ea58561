//! Micro-benchmarks of the hot kernels under the experiments: device
//! evaluation, scalar equilibria, noise margins, Monte Carlo, fault
//! injection, the MLP forward pass, and the NPE's MAC.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fault_inject::prelude::*;
use neural::prelude::*;
use neuro_system::npe::Npe;
use sram_bitcell::prelude::*;
use sram_device::prelude::*;
use std::hint::black_box;

fn bench_device(c: &mut Criterion) {
    let tech = Technology::ptm_22nm();
    let m = Mosfet::new(
        tech.nmos.clone(),
        Meter::from_nanometers(88.0),
        Meter::from_nanometers(22.0),
    )
    .expect("valid device");
    c.bench_function("mosfet_drain_current", |b| {
        b.iter(|| {
            black_box(m.drain_current(
                black_box(Volt::new(0.7)),
                black_box(Volt::new(0.9)),
                black_box(Volt::new(0.0)),
            ))
        })
    });
}

fn bench_cell_metrics(c: &mut Criterion) {
    let tech = Technology::ptm_22nm();
    let cell = SixTCell::new(&tech, &SixTSizing::paper_baseline());
    let cell8 = EightTCell::new(
        &tech,
        &SixTSizing::write_optimized(),
        &ReadStackSizing::paper_baseline(),
    );
    let env = ColumnEnvironment::rows_256();
    let vdd = Volt::new(0.75);

    c.bench_function("read_snm", |b| {
        b.iter(|| black_box(static_noise_margin(&cell, vdd, SnmCondition::Read)))
    });
    c.bench_function("write_margin", |b| {
        b.iter(|| black_box(write_margin(&cell, vdd)))
    });
    c.bench_function("read_access_time_6t", |b| {
        b.iter(|| black_box(read_access_time_6t(&cell, vdd, &env)))
    });
    c.bench_function("read_access_time_8t", |b| {
        b.iter(|| black_box(read_access_time_8t(&cell8, vdd, &env)))
    });
    c.bench_function("write_time", |b| {
        b.iter(|| black_box(write_time(&cell, vdd)))
    });
}

fn bench_monte_carlo(c: &mut Criterion) {
    let tech = Technology::ptm_22nm();
    let cell = SixTCell::new(&tech, &SixTSizing::paper_baseline());
    let cell8 = EightTCell::new(
        &tech,
        &SixTSizing::write_optimized(),
        &ReadStackSizing::paper_baseline(),
    );
    let env = ColumnEnvironment::rows_256();
    let variation = VariationModel::new(&tech);
    let vdd = Volt::new(0.70);
    let budget = TimingBudget::from_nominal(&cell, &cell8, vdd, &env, 2.0);
    let opts = MonteCarloOptions {
        samples: 100,
        seed: 1,
        snm_samples: 20,
    };
    let mut group = c.benchmark_group("monte_carlo");
    group.sample_size(10);
    group.throughput(Throughput::Elements(opts.samples as u64));
    group.bench_function("mc_6t_100_samples", |b| {
        b.iter(|| black_box(run_6t(&cell, &variation, vdd, &budget, &env, &opts)))
    });
    group.finish();
}

fn bench_rare_event(c: &mut Criterion) {
    use sram_bitcell::rareevent::{
        run_6t_tail, run_6t_tail_surrogate, FailureMode, RareEventOptions,
    };

    let tech = Technology::ptm_22nm();
    let cell = SixTCell::new(&tech, &SixTSizing::paper_baseline());
    let cell8 = EightTCell::new(
        &tech,
        &SixTSizing::write_optimized(),
        &ReadStackSizing::paper_baseline(),
    );
    let env = ColumnEnvironment::rows_256();
    let variation = VariationModel::new(&tech);
    // 1.20 V puts the 6T read-access boundary ~5.9 sigmas out (p ≈ 1.6e-9):
    // the importance sampler resolves a tail 10^7× below the brute-force
    // kernel's floor, in less wall time than its 100 nominal samples.
    let vdd = Volt::new(1.20);
    let budget = TimingBudget::from_nominal_split(&cell, &cell8, vdd, &env, 2.0, 2.5);
    let opts = RareEventOptions::default();
    let mode = FailureMode::ReadAccess;

    let mut group = c.benchmark_group("rare");
    group.sample_size(10);
    group.bench_function("is_6t_tail", |b| {
        b.iter(|| {
            black_box(run_6t_tail(
                &cell, &variation, vdd, &budget, &env, mode, &opts,
            ))
        })
    });
    group.bench_function("surrogate_6t_tail", |b| {
        b.iter(|| {
            black_box(run_6t_tail_surrogate(
                &cell, &variation, vdd, &budget, &env, mode, &opts,
            ))
        })
    });
    group.finish();
}

fn bench_injection(c: &mut Criterion) {
    let rates = BitErrorRates {
        read_6t: 0.01,
        write_6t: 0.001,
        read_8t: 1e-12,
        write_8t: 1e-12,
    };
    let model = WordFailureModel::new(&rates, &CellAssignment::msb_protected(3));
    let mut group = c.benchmark_group("fault_injection");
    group.throughput(Throughput::Bytes(1_406_810));
    group.bench_function("corrupt_paper_sized_memory", |b| {
        b.iter_batched(
            || vec![0x5Au8; 1_406_810],
            |mut words| black_box(corrupt_words(&mut words, &model, 7)),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_forward_pass(c: &mut Criterion) {
    let mlp = Mlp::new(&[784, 128, 64, 10], 3);
    let data = synth::generate_default(64, 11);
    let (batch, _) = data.as_batch();
    let mut group = c.benchmark_group("mlp");
    group.throughput(Throughput::Elements(64));
    group.bench_function("forward_batch_64", |b| {
        b.iter(|| black_box(mlp.forward(black_box(&batch))))
    });
    group.finish();
}

/// One neuron of the paper's 784-input digits layer on the NPE: weight
/// codes × activation codes, bias, sigmoid LUT.
fn bench_npe(c: &mut Criterion) {
    let npe = Npe::new(FixedPointFormat::new(1, Encoding::TwosComplement));
    let weights: Vec<u8> = (0..784u32).map(|i| (i * 37 + 11) as u8).collect();
    let acts: Vec<u8> = (0..784u32).map(|i| (i * 101 + 3) as u8).collect();
    let mut group = c.benchmark_group("npe");
    group.throughput(Throughput::Elements(784));
    group.bench_function("mac_784", |b| {
        b.iter(|| black_box(npe.neuron(black_box(&weights), 5, black_box(&acts))))
    });
    group.finish();
}

criterion_group!(
    micro,
    bench_device,
    bench_cell_metrics,
    bench_monte_carlo,
    bench_rare_event,
    bench_injection,
    bench_forward_pass,
    bench_npe
);
criterion_main!(micro);
