//! `scenarios repro` rejects what it does not understand: a typo must not
//! silently run the default experiment.

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
