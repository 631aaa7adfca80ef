//! `scenarios repro` rejects what it does not understand: a typo must not
//! silently run the default experiment. Nor may `serve` report a drained
//! queue for an option that runs nothing.

use std::process::Command;

fn scenarios(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .output()
        .expect("the scenarios binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn repro_rejects_unknown_flags_targets_and_scales() {
    // Every case fails while parsing, before any cell runs.
    let cases: [(&[&str], &str); 7] = [
        (&["repro", "table1", "--scael", "tiny"], "unknown flag --scael for repro"),
        (&["repro", "table1", "--bogus", "1"], "unknown flag --bogus for repro"),
        (&["repro", "fig4", "--skew", "quantity"], "unknown flag --skew for repro"),
        (&["repro", "table1", "--paper"], "flag --paper needs a value"),
        (&["repro", "table1", "--codec", "q8"], "--codec is a run option, not a repro option"),
        (&["repro", "table1", "--scale", "huge"], "unknown scale \"huge\" (tiny|quick|paper)"),
        (&["repro", "nope"], "unknown repro target \"nope\" (list|table1|table2|table3|table4|"),
    ];
    for (args, message) in cases {
        let (code, _, stderr) = scenarios(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn repro_list_names_every_target() {
    let (code, stdout, _) = scenarios(&["repro", "list"]);
    assert_eq!(code, Some(0));
    for target in fedzkt_scenario::repro::targets() {
        assert!(
            stdout.lines().any(|l| l.starts_with(target.name) && l.contains(target.artifact)),
            "{} missing from:\n{stdout}",
            target.name
        );
    }
}

#[test]
fn serve_refuses_to_stop_after_zero_cells() {
    // `--stop-after 0` used to defer every cell, print "queue drained" and
    // exit 0 without running anything. It is refused while parsing, like
    // `--checkpoint-every 0`, so nothing is written to `--out`.
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-stop-after-0");
    let out = out.to_str().expect("utf-8 temp path");
    for (flag, message) in [
        ("--stop-after", "--stop-after must be at least 1"),
        ("--checkpoint-every", "--checkpoint-every must be at least 1"),
    ] {
        let (code, stdout, stderr) =
            scenarios(&["serve", "tiny", "--seeds", "1,2", flag, "0", "--out", out]);
        assert_eq!(code, Some(1), "{flag} 0: {stdout}{stderr}");
        assert!(stderr.contains(message), "{flag} 0: {stderr}");
        assert!(!stdout.contains("queue drained"), "{flag} 0: {stdout}");
    }
}
