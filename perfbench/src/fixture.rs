//! Workload fixtures: everything a workload needs before its first timed
//! request, built cold and timed layer by layer.

use fault_inject::model::WordFailureModel;
use hybrid_sram::config::MemoryConfig;
use hybrid_sram::framework::Framework;
use neural::dataset::{spectra, Dataset};
use neural::network::Mlp;
use neural::quant::{Encoding, QuantizedMlp};
use neural::train::{train, TrainOptions};
use neuro_system::controller::NeuromorphicSystem;
use neuro_system::energy::{system_inference_energy, SystemEnergyModel, SystemEnergyReport};
use neuro_system::layout;
use neuro_system::npe::Npe;
use sram_array::power::PowerConvention;
use sram_array::sharded::ShardedMemory;
use sram_bitcell::characterize::CharacterizationOptions;
use sram_device::process::Technology;
use sram_device::units::Volt;
use sram_gen::characterize::{mc_tables, CharacterizeConfig};
use sram_gen::spec::SramSpec;
use sram_net::registry::{ModelRegistry, TenantSpec};
use sram_serve::fixture::trained_digit_network;
use sram_serve::{InferenceServer, ResilienceConfig, ResilienceController, ServeOptions};
use std::sync::Arc;
use std::time::Instant;

/// The committed generator specs the network tenants are built from.
const DIGITS_SPEC: &str = include_str!("../../crates/gen/specs/digits.toml");
const SPECTRA_SPEC: &str = include_str!("../../crates/gen/specs/spectra.toml");

/// Monte-Carlo depth of the spec characterization (as `net_bench`).
const TENANT_MC_SAMPLES: usize = 96;

/// Shards of the multi-tenant store.
pub const NET_SHARDS: usize = 4;

/// Micro-batch ceiling of the closed-batch server.
pub const MAX_BATCH: usize = 16;

/// Where set-up time went, per layer.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub train_ms: f64,
    pub characterize_ms: f64,
    pub tenant_ms: f64,
    pub load_ms: f64,
    pub load_words: usize,
    pub bist_ms: f64,
    pub total_s: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One tenant's request material: test features with their labels.
#[derive(Debug, Clone)]
pub struct TenantData {
    pub features: Vec<Vec<f32>>,
    pub labels: Vec<usize>,
}

impl TenantData {
    fn from_dataset(data: &Dataset) -> Self {
        Self {
            features: (0..data.len()).map(|i| data.image(i).to_vec()).collect(),
            labels: (0..data.len()).map(|i| data.label(i)).collect(),
        }
    }
}

/// The spectra classifier `net_bench` serves beside digits.
fn trained_spectra_network() -> (QuantizedMlp, Dataset) {
    let data = spectra::generate_default(700, 0x59EC);
    let (train_set, test_set) = data.split(0.8, 4);
    let mut mlp = Mlp::new(&[spectra::SPECTRUM_BINS, 32, 16, spectra::NUM_CLASSES], 2);
    train(
        &mut mlp,
        &train_set,
        &TrainOptions {
            epochs: 8,
            ..TrainOptions::default()
        },
    );
    (
        QuantizedMlp::from_mlp(&mlp, Encoding::TwosComplement),
        test_set,
    )
}

/// The multi-tenant network fixture: digits and spectra tenants from the
/// committed specs over one sharded store.
pub struct NetFixture {
    pub registry: Arc<ModelRegistry>,
    /// Indexed by tenant id.
    pub tenants: Vec<TenantData>,
    /// The digits network (for the datapath probes' clean twin).
    pub digits: QuantizedMlp,
    pub setup: SetupTimes,
}

pub fn build_net(memory_seed: u64) -> NetFixture {
    let t0 = Instant::now();
    let mut setup = SetupTimes::default();

    let t = Instant::now();
    let (digits_q, digits_test) = trained_digit_network();
    let (spectra_q, spectra_test) = trained_spectra_network();
    setup.train_ms = ms_since(t);

    let cfg = CharacterizeConfig {
        mc_samples: TENANT_MC_SAMPLES,
    };
    let t = Instant::now();
    let parsed: Vec<SramSpec> = [DIGITS_SPEC, SPECTRA_SPEC]
        .iter()
        .map(|toml| SramSpec::from_toml_str(toml).expect("committed spec parses"))
        .collect();
    setup.tenant_ms = ms_since(t);
    // Characterization first, so the tenant build below times only the
    // spec → contract derivation (the tables are then memoized).
    let t = Instant::now();
    for spec in &parsed {
        mc_tables(spec, &cfg);
    }
    setup.characterize_ms = ms_since(t);
    let t = Instant::now();
    let specs: Vec<TenantSpec> = parsed
        .iter()
        .zip([digits_q.clone(), spectra_q])
        .map(|(spec, network)| {
            TenantSpec::from_generated(spec, network, &cfg)
                .expect("committed spec matches its network")
        })
        .collect();
    setup.tenant_ms += ms_since(t);

    let t = Instant::now();
    let registry = Arc::new(ModelRegistry::new(specs, memory_seed, NET_SHARDS));
    setup.load_ms = ms_since(t);
    setup.load_words = registry.store().len();
    setup.total_s = t0.elapsed().as_secs_f64();
    NetFixture {
        registry,
        tenants: vec![
            TenantData::from_dataset(&digits_test),
            TenantData::from_dataset(&spectra_test),
        ],
        digits: digits_q,
        setup,
    }
}

/// Which closed-batch scenario to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Hybrid (3,5), 0.95 V write rates, zero read rates.
    FaultFree,
    /// Hybrid (3,5) at 0.65 V with a BIST-booted resilience loop.
    Maintain,
}

impl ServeKind {
    fn config(self) -> MemoryConfig {
        let vdd = match self {
            ServeKind::FaultFree => 0.95,
            ServeKind::Maintain => 0.65,
        };
        MemoryConfig::Hybrid {
            msb_8t: 3,
            vdd: Volt::new(vdd),
        }
    }
}

/// The closed-batch fixture: the digit classifier behind an
/// `InferenceServer`.
pub struct ServeFixture {
    pub kind: ServeKind,
    pub framework: Framework,
    pub network: QuantizedMlp,
    pub test: TenantData,
    pub energy: SystemEnergyReport,
    pub workers: usize,
    pub server: InferenceServer,
    pub setup: SetupTimes,
}

impl ServeFixture {
    /// The per-bank failure models of this scenario.
    pub fn models(&self) -> Vec<WordFailureModel> {
        models_for(self.kind, &self.framework, &self.network)
    }

    /// A freshly loaded (and, for `Maintain`, BIST-booted) server over a
    /// new store with its own write-fault pattern — what each measured
    /// round of `serve_maintain` starts from. Returns the load and BIST
    /// times with it.
    pub fn fresh_server(&self, memory_seed: u64, base_seed: u64) -> (InferenceServer, f64, f64) {
        fresh_server(
            self.kind,
            &self.framework,
            &self.network,
            self.models(),
            memory_seed,
            ServeOptions {
                workers: self.workers,
                max_batch: MAX_BATCH,
                base_seed,
            },
            self.energy,
        )
    }
}

fn models_for(
    kind: ServeKind,
    framework: &Framework,
    network: &QuantizedMlp,
) -> Vec<WordFailureModel> {
    let config = kind.config();
    match kind {
        ServeKind::Maintain => framework.failure_models(network, &config),
        ServeKind::FaultFree => {
            let mut rates = framework.bit_error_rates(config.vdd());
            rates.read_6t = 0.0;
            rates.read_8t = 0.0;
            let policy = config.policy();
            (0..network.layer_count())
                .map(|bank| WordFailureModel::new(&rates, &policy.assignment(bank)))
                .collect()
        }
    }
}

fn fresh_server(
    kind: ServeKind,
    framework: &Framework,
    network: &QuantizedMlp,
    models: Vec<WordFailureModel>,
    memory_seed: u64,
    options: ServeOptions,
    energy: SystemEnergyReport,
) -> (InferenceServer, f64, f64) {
    let map = framework.memory_map(network, &kind.config());
    let t = Instant::now();
    let memory = ShardedMemory::new(map, models, memory_seed, network.layer_count().max(1));
    let mut system = NeuromorphicSystem::new(network, memory, Npe::new(network.format));
    let load_ms = ms_since(t);
    let mut bist_ms = 0.0;
    let controller = (kind == ServeKind::Maintain).then(|| {
        let t = Instant::now();
        let c = ResilienceController::new(
            system.memory_mut(),
            &layout::flatten(network),
            ResilienceConfig::default(),
        );
        bist_ms = ms_since(t);
        c
    });
    let mut server = InferenceServer::new(system, options).with_energy(energy);
    if let Some(controller) = controller {
        server = server.with_resilience(controller);
    }
    (server, load_ms, bist_ms)
}

pub fn build_serve(
    kind: ServeKind,
    memory_seed: u64,
    base_seed: u64,
    workers: usize,
) -> ServeFixture {
    let t0 = Instant::now();
    let mut setup = SetupTimes::default();

    let t = Instant::now();
    let (network, test_set) = trained_digit_network();
    setup.train_ms = ms_since(t);

    // The serving characterization `serve_bench` uses.
    let t = Instant::now();
    let framework = Framework::new(
        &Technology::ptm_22nm(),
        &CharacterizationOptions {
            vdds: vec![Volt::new(0.95), Volt::new(0.75), Volt::new(0.65)],
            mc_samples: 40,
            ..CharacterizationOptions::quick()
        },
    );
    setup.characterize_ms = ms_since(t);

    let config = kind.config();
    let power = framework.power_report(&network, &config, PowerConvention::IsoThroughput);
    let macs: usize = network.layers.iter().map(|l| l.inputs * l.outputs).sum();
    let energy = system_inference_energy(&power, macs, &SystemEnergyModel::default(), config.vdd());

    let models = models_for(kind, &framework, &network);
    let (server, load_ms, bist_ms) = fresh_server(
        kind,
        &framework,
        &network,
        models,
        memory_seed,
        ServeOptions {
            workers,
            max_batch: MAX_BATCH,
            base_seed,
        },
        energy,
    );
    setup.load_ms = load_ms;
    setup.load_words = server.system().memory().len();
    setup.bist_ms = bist_ms;
    setup.total_s = t0.elapsed().as_secs_f64();
    ServeFixture {
        kind,
        framework,
        network,
        test: TenantData::from_dataset(&test_set),
        energy,
        workers,
        server,
        setup,
    }
}
