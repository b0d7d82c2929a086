//! The `campaign` CLI refuses flag combinations it cannot honour loudly:
//! exit code 1 and an `error:` line naming the offending flag, before any
//! golden run or experiment starts.

use std::process::Command;

/// Runs `campaign` with `args` and asserts it refuses with exit code 1 and
/// an error line containing `message`.
fn assert_refused(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--faults", "10"])
        .args(args)
        .output()
        .expect("spawn campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1: {stderr}");
    let error = stderr
        .lines()
        .find(|l| l.starts_with("error: "))
        .unwrap_or_else(|| panic!("{args:?} printed no error line: {stderr}"));
    assert!(error.contains(message), "{args:?}: {error}");
    assert!(out.stdout.is_empty(), "{args:?} must not run the campaign");
}

#[test]
fn paranoid_without_pruning_is_refused() {
    assert_refused(
        &["--paranoid", "5", "--no-prune"],
        "--paranoid cross-checks the pruner; drop --no-prune",
    );
}

#[test]
fn paranoid_is_refused_where_the_pruner_is_bypassed() {
    for (args, named) in [
        (
            &["--fault-model", "intermittent:2"][..],
            "--fault-model intermittent:2",
        ),
        (&["--fault-model", "stuck0"][..], "--fault-model stuck0"),
        (&["--fault-model", "stuck1"][..], "--fault-model stuck1"),
        (&["--parity-cache"][..], "--parity-cache"),
    ] {
        let mut argv = vec!["--paranoid", "5"];
        argv.extend_from_slice(args);
        assert_refused(
            &argv,
            &format!("--paranoid cross-checks the pruner, which {named} bypasses"),
        );
    }
}

#[test]
fn deadline_without_supervision_is_refused() {
    assert_refused(
        &["--deadline", "1", "--unsupervised"],
        "--deadline requires supervision; drop --unsupervised",
    );
}

#[test]
fn the_retired_no_vis_flag_is_refused() {
    // The visibility units are always traced now; a script still passing
    // the old switch must fail rather than silently run the default.
    assert_refused(&["--no-vis"], "unknown flag `--no-vis`");
}

/// Every remaining argument-parsing refusal, one row each: the offending
/// flags and the part of the error line that names them.
#[test]
fn parse_refusals_name_their_flag() {
    let cases: Vec<(&[&str], &str)> = vec![
        (
            &["--farm-init", "f", "--worker", "f"],
            "--farm-init, --worker, --farm-merge and --farm-tend are distinct modes",
        ),
        (
            &["--worker", "f", "--out", "s.jsonl"],
            "drop --out/--resume/--json",
        ),
        (
            &["--farm-merge", "f", "--resume"],
            "drop --out/--resume/--json",
        ),
        (
            &["--farm-tend", "f", "--json", "o.json"],
            "drop --out/--resume/--json",
        ),
        (
            &["--worker-id", "w1"],
            "--worker-id only makes sense with --worker DIR",
        ),
        (&["--resume"], "--resume requires --out FILE"),
        (
            &["--workload", "bogus"],
            "--workload: unknown workload `bogus`",
        ),
        (&["--faults", "abc"], "--faults: "),
        (&["--fault-model", "bogus"], "--fault-model: "),
        (&["--deadline", "0"], "--deadline expects a positive number"),
        (&["--seed"], "--seed expects a value"),
    ];
    #[cfg(not(feature = "failpoints"))]
    let cases = [
        cases,
        vec![(
            &["--failpoint", "x=panic"][..],
            "--failpoint requires a build with the `failpoints` feature",
        )],
    ]
    .concat();
    for (args, message) in cases {
        assert_refused(args, message);
    }
}
