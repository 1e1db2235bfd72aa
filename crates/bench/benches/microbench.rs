//! Substrate kernel benchmarks: the numeric and algorithmic primitives the
//! simulation is built on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use haccs_cluster::dbscan::dbscan;
use haccs_cluster::optics::optics;
use haccs_data::{partition, DatasetKind, FederatedDataset, SynthVision};
use haccs_experiments::common::{Env, Scale};
use haccs_fedsim::trainer::{train_local, TrainConfig};
use haccs_nn::{lenet, mlp};
use haccs_summary::{pairwise_distances, privatize_counts, summarizer::ClientSummary, Summarizer};
use haccs_tensor::{conv, init, ops};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = init::uniform(&[128, 128], -1.0, 1.0, &mut rng);
    let b = init::uniform(&[128, 128], -1.0, 1.0, &mut rng);
    c.bench_function("matmul_128", |bench| {
        bench.iter(|| ops::matmul(black_box(&a), black_box(&b)))
    });
    c.bench_function("matmul_bt_128", |bench| {
        bench.iter(|| ops::matmul_bt(black_box(&a), black_box(&b)))
    });
    c.bench_function("matmul_at_128", |bench| {
        bench.iter(|| ops::matmul_at(black_box(&a), black_box(&b)))
    });
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let x = init::uniform(&[16, 3, 16, 16], -1.0, 1.0, &mut rng);
    let w = init::uniform(&[6, 3, 5, 5], -1.0, 1.0, &mut rng);
    let bias = vec![0.0f32; 6];
    c.bench_function("conv2d_forward_16x3x16", |bench| {
        bench.iter(|| conv::conv2d_forward(black_box(&x), black_box(&w), &bias, 1, 2))
    });
}

fn bench_local_training(c: &mut Criterion) {
    let gen = SynthVision::mnist_like(10, 8, 0);
    let mut rng = StdRng::seed_from_u64(2);
    let data = gen.generate(&[12; 10], 0.0, &mut rng);
    let cfg = TrainConfig { wants_images: false, ..Default::default() };
    c.bench_function("train_local_mlp_120", |bench| {
        bench.iter_batched(
            || mlp(64, &[64, 32], 10, &mut StdRng::seed_from_u64(3)),
            |mut m| train_local(&mut m, &data, &cfg, 0),
            BatchSize::SmallInput,
        )
    });
    // one engine-train update: the Fast preset's MLP, shard and 8 × 32-example quota
    let specs = partition::majority_noise(
        1,
        10,
        &partition::MAJORITY_NOISE_75,
        Scale::Fast.samples_range(),
        Scale::Fast.test_n(),
        &mut rng,
    );
    let env = Env::new(DatasetKind::MnistLike, 10, &specs, Scale::Fast, 2);
    let (factory, cfg_fast) = (env.factory(), env.train_config());
    let shard = &env.fed.clients[0].train;
    c.bench_function("train_local_mlp_fast", |bench| {
        bench.iter_batched(
            &factory,
            |mut m| train_local(&mut m, shard, &cfg_fast, 0),
            BatchSize::SmallInput,
        )
    });
    let data_img = gen.generate(&[6; 10], 0.0, &mut rng);
    let cfg_img = TrainConfig { wants_images: true, ..Default::default() };
    c.bench_function("train_local_lenet_60", |bench| {
        bench.iter_batched(
            || lenet(1, 8, 10, &mut StdRng::seed_from_u64(4)),
            |mut m| train_local(&mut m, &data_img, &cfg_img, 0),
            BatchSize::SmallInput,
        )
    });
}

fn client_summaries(n: usize) -> (Summarizer, Vec<ClientSummary>) {
    let gen = SynthVision::cifar_like(10, 8, 0);
    let mut rng = StdRng::seed_from_u64(5);
    let specs =
        partition::majority_noise(n, 10, &partition::MAJORITY_NOISE_75, (100, 100), 0, &mut rng);
    let fed = FederatedDataset::materialize(&gen, &specs, 0);
    let s = Summarizer::label_dist();
    let sums = haccs_core::summarize_federation(&fed, &s, 0);
    (s, sums)
}

fn bench_summary_pipeline(c: &mut Criterion) {
    let (s, sums) = client_summaries(50);
    c.bench_function("pairwise_hellinger_50", |bench| {
        bench.iter(|| pairwise_distances(black_box(&s), black_box(&sums)))
    });
    let dist = pairwise_distances(&s, &sums);
    c.bench_function("optics_50", |bench| {
        bench.iter(|| optics(black_box(&dist), f32::INFINITY, 2))
    });
    c.bench_function("dbscan_50", |bench| bench.iter(|| dbscan(black_box(&dist), 0.5, 2)));
}

fn bench_dp(c: &mut Criterion) {
    let counts = vec![100.0f32; 64];
    c.bench_function("laplace_privatize_64bins", |bench| {
        let mut rng = StdRng::seed_from_u64(6);
        bench.iter(|| privatize_counts(black_box(&counts), 0.1, &mut rng))
    });
}

fn bench_fedavg(c: &mut Criterion) {
    // weighted parameter averaging over 10 clients of a 62k-param model
    let n_params = 62_006;
    let updates: Vec<(usize, Vec<f32>)> =
        (0..10).map(|i| (100 + i * 10, vec![i as f32; n_params])).collect();
    c.bench_function("fedavg_aggregate_10x62k", |bench| {
        bench.iter(|| {
            let total: f64 = updates.iter().map(|(w, _)| *w as f64).sum();
            let mut out = vec![0.0f64; n_params];
            for (w, p) in &updates {
                let wf = *w as f64 / total;
                for (o, &x) in out.iter_mut().zip(p) {
                    *o += wf * x as f64;
                }
            }
            black_box(out)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matmul, bench_conv, bench_local_training, bench_summary_pipeline, bench_dp, bench_fedavg
}
criterion_main!(benches);
