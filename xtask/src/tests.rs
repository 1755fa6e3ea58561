//! Every report task's gates on canned records: a good record set passes
//! every gate, and each breaking edit (a bad value, or the key missing)
//! fails exactly the gates it names.

use super::*;

/// Canned record from `key=value` lines.
fn kv(text: &str) -> Kv {
    parse(text)
}

fn opts() -> Opts {
    Opts::default()
}

/// An edit that breaks one or more gates.
type Edit = fn(&mut [Kv]);

/// Sets `key` to `value` in record `run`.
fn set(records: &mut [Kv], run: usize, key: &str, value: &str) {
    records[run].insert(key.to_string(), value.to_string());
}

/// Removes `key` from record `run`.
fn del(records: &mut [Kv], run: usize, key: &str) {
    assert!(
        records[run].remove(key).is_some(),
        "canned record lacks {key}"
    );
}

/// Asserts `good` passes every gate of `plan`; that each edit fails
/// exactly the gates whose messages contain its fragments, in gate order;
/// and that every gate is failed by some edit.
fn check(plan: &Plan, good: &[Kv], edits: &[(&[&str], Edit)]) {
    assert_eq!(plan.failures(good), Vec::<&str>::new(), "good records fail");
    for (expected, edit) in edits {
        let mut records = good.to_vec();
        edit(&mut records);
        let failed = plan.failures(&records);
        assert_eq!(
            failed.len(),
            expected.len(),
            "{expected:?}: failed {failed:?}"
        );
        for (message, fragment) in failed.iter().zip(*expected) {
            assert!(
                message.contains(fragment),
                "{expected:?}: failed {failed:?}"
            );
        }
    }
    for Gate(message, _) in &plan.gates {
        let covered = edits
            .iter()
            .any(|(expected, _)| expected.iter().any(|f| message.contains(f)));
        assert!(covered, "no edit breaks the gate `{message}`");
    }
}

fn serve_records() -> Vec<Kv> {
    let run = |wall: &str| {
        kv(&format!(
            "workers=1\nwall_ns={wall}\nwords_per_sec=48710000.000\np50_ns=104857600\n\
             digest=a47667a188943102\npredictions_file=0123456789abcdef\nmac_kernel=avx2\n"
        ))
    };
    vec![run("200680000"), run("107180000")]
}

#[test]
fn serve_gates_fail_on_divergence_missing_bandwidth_and_slowdown() {
    check(
        &serve_plan(&opts()),
        &serve_records(),
        &[
            (&["predictions identical"], |r| {
                set(r, 1, "digest", "a47667a188943103")
            }),
            (&["predictions identical"], |r| {
                set(r, 1, "predictions_file", "0000000000000000")
            }),
            (&["predictions identical"], |r| {
                del(r, 0, "predictions_file")
            }),
            (&["words_per_sec"], |r| set(r, 1, "words_per_sec", "0.000")),
            (&["words_per_sec"], |r| del(r, 0, "words_per_sec")),
            (&["4-worker at most 1.5x slower"], |r| {
                set(r, 1, "wall_ns", "310000000")
            }),
            (&["4-worker at most 1.5x slower"], |r| del(r, 1, "wall_ns")),
        ],
    );
}

#[test]
fn serve_min_speedup_is_its_own_gate() {
    let plan = serve_plan(&Opts {
        min_speedup: Some(1.4),
        ..opts()
    });
    check(
        &plan,
        &serve_records(),
        &[
            (&["predictions identical"], |r| set(r, 1, "digest", "0")),
            (&["words_per_sec"], |r| del(r, 1, "words_per_sec")),
            // 1.25x: fast enough for the slowdown bound, short of the floor.
            (&["speedup at least 1.4x"], |r| {
                set(r, 1, "wall_ns", "160544000")
            }),
            // Slower than the bound also misses the floor.
            (&["at most 1.5x slower", "speedup at least 1.4x"], |r| {
                del(r, 0, "wall_ns")
            }),
        ],
    );
}

fn scale_records() -> Vec<Kv> {
    vec![kv("words=1019514\nthreads=2\n\
             load_ns_1=51720000\nbulk_ns_1=34060000\nsnapshot_ns_1=5460000\n\
             digest_1=684b45553fce0b2e\n\
             load_ns_2=15710000\nbulk_ns_2=30360000\nsnapshot_ns_2=2240000\n\
             digest_2=684b45553fce0b2e\n\
             load_ns_4=15540000\nbulk_ns_4=33860000\nsnapshot_ns_4=2530000\n\
             digest_4=684b45553fce0b2e\n")]
}

#[test]
fn scale_gates_fail_on_diverged_images_and_slow_loads() {
    let plan = scale_plan(&Opts {
        min_speedup: Some(1.3),
        ..opts()
    });
    check(
        &plan,
        &scale_records(),
        &[
            (&["images identical"], |r| {
                set(r, 0, "digest_4", "684b45553fce0b2f")
            }),
            (&["images identical"], |r| del(r, 0, "digest_2")),
            (&["speedup at least 1.3x"], |r| {
                set(r, 0, "load_ns_4", "43100000")
            }),
            (
                &["4-shard load at most 1.5x slower", "speedup at least 1.3x"],
                |r| set(r, 0, "load_ns_4", "80000000"),
            ),
            (
                &["4-shard load at most 1.5x slower", "speedup at least 1.3x"],
                |r| del(r, 0, "load_ns_1"),
            ),
        ],
    );
}

fn chaos_records() -> Vec<Kv> {
    let run = kv("waves=4\n\
         healthy_accuracy=0.876953\nprotected_accuracy=0.878906\nunprotected_accuracy=0.824219\n\
         healthy_p99_ns=79691776\nprotected_p99_ns=56623104\nunprotected_p99_ns=65011712\n\
         healthy_digest=03ecf262100ce4ed\nprotected_digest=4d142659fd93560f\n\
         unprotected_digest=95f79fd1c06863eb\n\
         bist_weak_words=32\nbist_weak_bits=32\nbist_digest=9aa30b908f687830\n\
         scrub_sweeps=4\ncorrected_words=1207\ncorrected_bits=1207\nuncorrectable_words=230\n\
         rows_repaired=47\nspare_rows_free=81\ngovernor_boosts=3\n");
    vec![run.clone(), run]
}

#[test]
fn chaos_gates_fail_on_divergence_weak_protection_and_toothless_chaos() {
    check(
        &chaos_plan(&opts()),
        &chaos_records(),
        &[
            (&["decisions identical"], |r| {
                set(r, 1, "corrected_bits", "1206")
            }),
            (&["decisions identical"], |r| {
                set(r, 1, "bist_digest", "9aa30b908f687831")
            }),
            // A counter missing from both runs is not "identical".
            (&["decisions identical"], |r| {
                del(r, 0, "governor_boosts");
                del(r, 1, "governor_boosts");
            }),
            (&["protected accuracy within 0.02"], |r| {
                set(r, 0, "protected_accuracy", "0.850000");
                set(r, 1, "protected_accuracy", "0.850000");
            }),
            (&["decisions identical", "protected accuracy within"], |r| {
                del(r, 0, "protected_accuracy")
            }),
            (&["unprotected accuracy more than 0.02 below"], |r| {
                set(r, 0, "unprotected_accuracy", "0.870000");
                set(r, 1, "unprotected_accuracy", "0.870000");
            }),
            (&["decisions identical", "unprotected accuracy"], |r| {
                del(r, 0, "unprotected_accuracy")
            }),
            (&["protected p99 at most 2x"], |r| {
                set(r, 0, "protected_p99_ns", "160000000")
            }),
            (&["protected p99 at most 2x"], |r| {
                del(r, 0, "healthy_p99_ns")
            }),
            (&["protected p99 at most 2x"], |r| {
                set(r, 0, "healthy_p99_ns", "0")
            }),
        ],
    );
}

fn net_records() -> Vec<Kv> {
    let low = kv("sent=256\nok=256\nshed=0\nerrors=0\ntimed_out=false\n\
         sojourn_p50_ns=688128\nsojourn_p99_ns=2752512\n\
         digest=89028b9ef86c9c79\nserver_digest=89028b9ef86c9c79\nmac_kernel=avx2\n");
    let burst = kv("sent=256\nok=95\nshed=161\nerrors=0\ntimed_out=false\n\
         sojourn_p99_ns=19922944\ndigest=f5c315b11c2808df\nserver_digest=f5c315b11c2808df\n\
         degrade_events=2\ndrowsy_served=63\n");
    vec![low.clone(), low, burst]
}

#[test]
fn net_gates_fail_on_divergence_shed_errors_timeouts_lost_responses_and_quiet_bursts() {
    check(
        &net_plan(&opts()),
        &net_records(),
        &[
            (&["digests identical"], |r| {
                set(r, 1, "digest", "89028b9ef86c9c7a");
                set(r, 1, "server_digest", "89028b9ef86c9c7a");
            }),
            (&["digests identical", "client and server digests"], |r| {
                del(r, 0, "digest")
            }),
            (&["shed nothing"], |r| set(r, 1, "shed", "1")),
            (&["shed nothing"], |r| del(r, 0, "shed")),
            (&["have no errors"], |r| set(r, 0, "errors", "2")),
            (&["have no errors"], |r| del(r, 1, "errors")),
            (&["drain in time"], |r| set(r, 1, "timed_out", "true")),
            (&["drain in time"], |r| del(r, 0, "timed_out")),
            (&["client and server digests"], |r| {
                set(r, 0, "server_digest", "0")
            }),
            (&["client and server digests"], |r| {
                del(r, 1, "server_digest")
            }),
            (&["250 ms SLO"], |r| {
                set(r, 1, "sojourn_p99_ns", "250000001")
            }),
            (&["250 ms SLO"], |r| set(r, 0, "sojourn_p99_ns", "0")),
            (&["250 ms SLO"], |r| del(r, 0, "sojourn_p99_ns")),
            (&["burst run sheds"], |r| set(r, 2, "shed", "0")),
            (&["burst run sheds"], |r| del(r, 2, "shed")),
            (&["burst run has no errors"], |r| set(r, 2, "errors", "3")),
            (&["burst run has no errors"], |r| del(r, 2, "errors")),
        ],
    );
}

#[test]
fn net_slo_follows_the_slo_flag() {
    let plan = net_plan(&Opts {
        slo_ms: Some(2.0),
        ..opts()
    });
    let failed = plan.failures(&net_records());
    assert_eq!(failed, ["low-rate sojourn p99 within the 2 ms SLO"]);
}

fn gen_records() -> Vec<Kv> {
    let run = kv(
        "specs_total=1\nspec_digits_ok=true\nspec_digits_words=19090\n\
         spec_digits_banks=2\nspec_digits_layout_digest=0xfce0952a95fc94da\n\
         spec_digits_report_digest=0x64df7f9d7322538b\n\
         spec_digits_smoke_digest=0x1111111111111111\npaper_fixture_match=true\n\
         random_total=8\nrand_0_ok=true\nrand_0_words=416\nrand_0_banks=3\n\
         rand_0_layout_digest=0x827e9389b56aa4a3\nrand_0_report_digest=0xa624a08edce12351\n\
         random_ok=8\ncorpus_total=10\ncorpus_rejected=10\nfailures=0\n",
    );
    vec![run.clone(), run]
}

#[test]
fn gen_gates_fail_on_divergence_failed_specs_fixture_corpus_and_random_floor() {
    check(
        &gen_plan(&opts()),
        &gen_records(),
        &[
            (&["every digest identical"], |r| {
                set(r, 1, "spec_digits_report_digest", "0x64df7f9d7322538c")
            }),
            // A digest only the 4-thread run has is compared too.
            (&["every digest identical"], |r| {
                set(r, 1, "rand_9_smoke_digest", "0x2222222222222222")
            }),
            (&["every digest identical"], |r| {
                del(r, 0, "rand_0_layout_digest")
            }),
            (&["every spec builds"], |r| {
                set(r, 0, "spec_digits_ok", "false")
            }),
            (&["every spec builds"], |r| {
                del(r, 1, "spec_digits_ok");
                del(r, 1, "rand_0_ok");
            }),
            (&["paper's hand-wired fixture"], |r| {
                set(r, 1, "paper_fixture_match", "false")
            }),
            (&["paper's hand-wired fixture"], |r| {
                del(r, 0, "paper_fixture_match")
            }),
            (&["corpus fully rejected"], |r| {
                set(r, 0, "corpus_rejected", "9")
            }),
            (&["corpus fully rejected"], |r| del(r, 1, "corpus_total")),
            (&["random spec sweeps cleanly"], |r| {
                set(r, 0, "random_ok", "7")
            }),
            // Every one clean, but fewer than the floor of 8.
            (&["random spec sweeps cleanly"], |r| {
                set(r, 1, "random_ok", "7");
                set(r, 1, "random_total", "7");
            }),
            (&["random spec sweeps cleanly"], |r| del(r, 0, "random_ok")),
            (&["zero failures"], |r| set(r, 1, "failures", "1")),
            (&["zero failures"], |r| del(r, 0, "failures")),
        ],
    );
}

#[test]
fn gen_random_floor_follows_the_random_flag() {
    let plan = gen_plan(&Opts {
        random: Some(4),
        ..opts()
    });
    let mut records = gen_records();
    for run in 0..2 {
        set(&mut records, run, "random_total", "4");
        set(&mut records, run, "random_ok", "4");
    }
    assert_eq!(plan.failures(&records), Vec::<&str>::new());
}

#[test]
fn gate_constants_hold_their_values() {
    assert_eq!(SERVE_SLOWDOWN_FACTOR, 1.5);
    assert_eq!(NET_SLO_MS, 250.0);
    assert_eq!(CHAOS_ACCURACY_DROP, 0.02);
    assert_eq!(CHAOS_P99_FACTOR, 2.0);
    assert_eq!(GEN_RANDOM_SPECS, 8);
    assert_eq!(REGRESSION_FACTOR, 2.0);
}

#[test]
fn same_fails_on_a_key_absent_from_every_run() {
    let records = [kv("a=1\n"), kv("a=1\n")];
    assert_eq!(same(&records, &["a"]), Some(true));
    assert_eq!(same(&records, &["a", "b"]), None);
    assert_eq!(same(&records, &[] as &[&str]), None);
    assert_eq!(same(&[kv("a=1\n"), kv("a=2\n")], &["a"]), Some(false));
}

#[test]
fn union_of_keys_covers_keys_only_a_later_run_has() {
    let records = [kv("x_digest=1\n"), kv("x_digest=1\ny_digest=2\nz=3\n")];
    assert_eq!(union_of(&records, "_digest"), ["x_digest", "y_digest"]);
    assert_eq!(same(&records, &union_of(&records, "_digest")), None);
}

#[test]
fn each_report_task_accepts_exactly_the_flags_its_usage_names() {
    let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    for (name, flags, kind) in TASKS {
        if let Kind::Report(_) = kind {
            let common = args(&["--gate", "--out", "target/x.txt"]);
            assert!(parse_opts(flags, &common).is_ok(), "{name}");
        }
    }
    let serve = TASKS[1].1;
    let net = TASKS[4].1;
    assert!(parse_opts(net, &args(&["--rate", "300", "--slo-ms", "50"])).is_ok());
    assert!(parse_opts(serve, &args(&["--rate", "300"])).is_err());
    assert!(parse_opts(serve, &args(&["--requests", "0"])).is_err());
    let o = parse_opts(serve, &args(&["--min-speedup", "1.4", "--requests", "64"])).unwrap();
    assert_eq!((o.min_speedup, o.requests), (Some(1.4), Some(64)));
}

#[test]
fn report_renders_rows_notes_and_verdicts() {
    let plan = gen_plan(&opts());
    let mut records = gen_records();
    set(&mut records, 0, "failures", "1");
    del(&mut records, 0, "rand_0_banks");
    let report = plan.render(&records);
    assert!(report.starts_with("gen-report — design-space sweep: 1 committed specs, 8 random"));
    let digits = report
        .lines()
        .find(|l| l.starts_with("spec_digits"))
        .unwrap();
    let cells: Vec<&str> = digits.split_whitespace().collect();
    assert_eq!(
        cells,
        [
            "spec_digits",
            "19090",
            "2",
            "0xfce0952a95fc94da",
            "0x64df7f9d7322538b"
        ]
    );
    let rand = report.lines().find(|l| l.starts_with("rand_0")).unwrap();
    assert_eq!(rand.split_whitespace().nth(2), Some("-"));
    assert!(report.contains("\nfailures: 1\n"));
    assert!(report.contains("\nFAIL  zero failures counted\n"));
    assert!(report.contains("\npass  malformed corpus fully rejected\n"));
}

#[test]
fn fill_replaces_known_keys_and_marks_missing_ones() {
    let record = kv("a=1\nb=two\n");
    assert_eq!(fill("{a} and {b}, {c}.", &record), "1 and two, ?.");
    assert_eq!(fill("no keys", &record), "no keys");
}
