//! Golden equivalence (issue satellite): the committed `digits.toml` spec —
//! a transcription of the paper's hand-wired trained-digits fixture — must
//! generate a byte-identical layout and identical characterization values
//! to the fixture path the serving benches use. The generator is a front
//! end, not a second implementation: same organization, same solver
//! numbers.

use fault_inject::protection::ProtectionPolicy;
use neuro_system::layout;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_bitcell::characterize::characterize_paper_cells_cached;
use sram_bitcell::margins::write_margin;
use sram_bitcell::snm::{static_noise_margin, SnmCondition};
use sram_bitcell::timing::{read_access_time_6t, write_time};
use sram_device::process::Technology;
use sram_device::units::Volt;
use sram_gen::characterize::{characterize, column_env, mc_options, mc_tables, CharacterizeConfig};
use sram_gen::organize::{layout_digest, GeneratedOrganization};
use sram_gen::spec::SramSpec;

const DIGITS_SPEC: &str = include_str!("../specs/digits.toml");

fn digits_spec() -> SramSpec {
    SramSpec::from_toml_str(DIGITS_SPEC).expect("committed digits spec parses")
}

fn hand_wired_map() -> SynapticMemoryMap {
    let (digits_q, _) = sram_serve::fixture::trained_digit_network();
    SynapticMemoryMap::new(
        &layout::bank_words(&digits_q),
        &ProtectionPolicy::MsbProtected { msb_8t: 3 },
        SubArrayDims::PAPER,
    )
}

#[test]
fn digits_spec_layout_is_byte_identical_to_the_hand_wired_fixture() {
    let org = GeneratedOrganization::build(&digits_spec()).expect("digits spec builds");
    let fixture = hand_wired_map();
    // Structural equality first (clearer failures)...
    assert_eq!(org.map, fixture);
    // ...then the digest the sweep gate actually compares.
    assert_eq!(layout_digest(&org.map), layout_digest(&fixture));
    // The generated workload is the fixture network itself: identical
    // per-bank word counts by construction.
    let network = org
        .network
        .as_ref()
        .expect("digits spec carries a workload");
    assert_eq!(
        layout::bank_words(network),
        org.map.banks().iter().map(|b| b.words).collect::<Vec<_>>()
    );
}

#[test]
fn digits_spec_characterization_matches_the_direct_solver_path() {
    let spec = digits_spec();
    let cfg = CharacterizeConfig { mc_samples: 48 };
    let tech = Technology::ptm_22nm();

    // The Monte-Carlo tables the generator uses come out of the same
    // process-wide cache the direct path hits for identical options:
    // value-identical tables, down to every sampled failure rate.
    let (gen_6t, gen_8t) = mc_tables(&spec, &cfg);
    let (direct_6t, direct_8t) = characterize_paper_cells_cached(&tech, &mc_options(&spec, &cfg));
    assert_eq!(gen_6t, direct_6t);
    assert_eq!(gen_8t, direct_8t);

    // And the deterministic solver numbers in the report are bit-identical
    // to calling the solvers directly at the spec's operating points.
    let characterization = characterize(&spec, &cfg);
    let (cell6, _) = sram_bitcell::characterize::paper_cells(&tech);
    let vdd = Volt::new(spec.supply.vdd);
    let env = column_env(spec.dims.rows);

    let active = &characterization.active;
    assert_eq!(active.vdd, spec.supply.vdd);
    assert_eq!(
        active.write_margin_v,
        write_margin(&cell6, vdd).as_volts().volts()
    );
    assert_eq!(
        active.hold_snm_v,
        static_noise_margin(&cell6, vdd, SnmCondition::Hold).volts()
    );
    assert_eq!(
        active.read_snm_v,
        static_noise_margin(&cell6, vdd, SnmCondition::Read).volts()
    );
    assert_eq!(
        active.write_time_s,
        write_time(&cell6, vdd).map(|t| t.seconds())
    );
    assert_eq!(
        active.read_6t_s,
        read_access_time_6t(&cell6, vdd, &env).map(|t| t.seconds())
    );

    // The drowsy point is the spec's drowsy rail, not a resample.
    assert_eq!(characterization.drowsy.vdd, spec.supply.drowsy);
}

#[test]
fn digits_characterization_is_stable_across_rebuilds() {
    // Two independent builds of the same committed spec must agree on
    // every folded observable — the property the xtask gate relies on
    // when it diffs reports across worker counts.
    let spec = digits_spec();
    let cfg = CharacterizeConfig { mc_samples: 48 };
    let a = characterize(&spec, &cfg);
    let b = characterize(&spec, &cfg);
    let fold = |c: &sram_gen::characterize::GenCharacterization| {
        c.drowsy
            .fold_digest(c.active.fold_digest(sram_exec::FNV_OFFSET))
    };
    assert_eq!(fold(&a), fold(&b));
}
