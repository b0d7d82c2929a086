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
