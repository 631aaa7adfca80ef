//! `scenarios repro` rejects what it does not understand: a typo must not
//! silently run the default experiment. Nor may `serve` report a drained
//! queue for an option that runs nothing, or `run` report a halt that
//! never happened.

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

#[test]
fn run_refuses_to_resume_into_a_halt_it_has_passed() {
    // Resuming a 3-round checkpoint with `--halt-at-round 1` used to print
    // "halted after 1 of 4 rounds", exit 0 and rewrite the checkpoint,
    // which still held 3 rounds. It is refused before anything is written.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("run-resume-past-halt");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tiny = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/tiny.json");
    let tiny = std::fs::read_to_string(tiny).expect("checked-in tiny scenario");
    assert!(tiny.contains("\"rounds\": 2,"), "tiny's round count moved");
    let four_rounds = dir.join("tiny4.json");
    std::fs::write(&four_rounds, tiny.replace("\"rounds\": 2,", "\"rounds\": 4,")).expect("write");
    let (scenario, out) = (four_rounds.to_str().expect("utf-8"), dir.to_str().expect("utf-8"));

    let (code, stdout, stderr) =
        scenarios(&["run", scenario, "--halt-at-round", "3", "--out", out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let ckpt = dir.join("tiny.ckpt");
    let written = std::fs::read(&ckpt).expect("a halted run leaves its checkpoint");

    let resume = ckpt.to_str().expect("utf-8");
    let (code, stdout, stderr) =
        scenarios(&["run", scenario, "--resume", resume, "--halt-at-round", "1", "--out", out]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    let named = stderr.contains("--halt-at-round 1: ") && stderr.contains("already holds 3 rounds");
    assert!(named, "{stderr}");
    assert!(!stdout.contains("halted after"), "{stdout}");
    assert_eq!(std::fs::read(&ckpt).expect("checkpoint kept"), written, "checkpoint rewritten");
}

#[test]
fn serve_reruns_a_cell_whose_log_is_torn() {
    // A kill mid-write used to leave a truncated `<cell>.json` that `serve`
    // counted as done ("1 already done") and never repaired. Only a log
    // that parses with every one of the cell's rounds marks it done.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-torn-artifact");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let artifact = dir.join("tiny_s1.json");
    std::fs::write(&artifact, "{\"rounds\": [{\"round\": 1, \"avg_dev").expect("write");
    let out = dir.to_str().expect("utf-8 temp path");

    let (code, stdout, stderr) = scenarios(&["serve", "tiny", "--seeds", "1", "--out", out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("(0 already done, 0 resuming, 1 fresh, 0 deferred)"), "{stdout}");
    assert!(stdout.contains("[done] tiny_s1"), "{stdout}");
    let text = std::fs::read_to_string(&artifact).expect("the rerun rewrites the log");
    let log = fedzkt_fl::RunLog::from_json(&text).expect("a complete log");
    assert_eq!(log.rounds.len(), 2, "tiny runs two rounds");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("out dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .filter(|name| name.ends_with(".part") || name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");

    // Done now: a second serve finds nothing to run.
    let (code, stdout, stderr) = scenarios(&["serve", "tiny", "--seeds", "1", "--out", out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("(1 already done,"), "{stdout}");
}

#[test]
fn serve_reruns_a_cell_whose_scenario_was_edited() {
    // A cell used to count as done when `<cell>.json` held the right
    // number of rounds, whichever scenario wrote it: serving an edited
    // copy of `tiny` into the same `--out` printed "1 already done" and
    // kept the old log. Each cell's artifacts carry the hash of the
    // scenario that made them, and a mismatch runs the cell again.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-edited-scenario");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tiny = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/tiny.json");
    let tiny = std::fs::read_to_string(tiny).expect("checked-in tiny scenario");
    assert!(tiny.contains("\"participation\": 1,"), "tiny's participation moved");
    let edited = dir.join("tiny-edited.json");
    std::fs::write(&edited, tiny.replace("\"participation\": 1,", "\"participation\": 0.5,"))
        .expect("write");
    let out = dir.join("out");
    let (edited, out) = (edited.to_str().expect("utf-8"), out.to_str().expect("utf-8"));
    let active = |log: &fedzkt_fl::RunLog| -> Vec<usize> {
        log.rounds.iter().map(|r| r.active_devices.len()).collect()
    };
    let log = || {
        let text = std::fs::read_to_string(dir.join("out/tiny.json")).expect("artifact");
        fedzkt_fl::RunLog::from_json(&text).expect("a complete log")
    };

    let (code, stdout, stderr) = scenarios(&["serve", "tiny", "--out", out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert_eq!(active(&log()), [3, 3], "tiny fields all three devices");

    let (code, stdout, stderr) = scenarios(&["serve", edited, "--out", out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("(0 already done, 0 resuming, 1 fresh, 0 deferred)"), "{stdout}");
    assert_eq!(active(&log()), [2, 2], "the edited scenario's log replaced the old one");

    // Its artifacts now vouch for the edited scenario, and no longer for
    // the original.
    let (code, stdout, stderr) = scenarios(&["serve", edited, "--out", out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("(1 already done,"), "{stdout}");
    let (code, stdout, stderr) = scenarios(&["serve", "tiny", "--out", out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("(0 already done, 0 resuming, 1 fresh, 0 deferred)"), "{stdout}");
    assert_eq!(active(&log()), [3, 3]);
}

#[test]
fn run_resumes_only_its_own_scenarios_checkpoint() {
    // `run --resume` used to accept any checkpoint whose seed, fleet size
    // and depth matched: resuming an edited copy of `tiny` from tiny's
    // snapshot exited 0 with a log that matched neither scenario. A
    // snapshotting run writes the scenario's stamp beside its checkpoint,
    // and a resume without this scenario's stamp is refused before
    // anything is written.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("run-resume-foreign");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tiny = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/tiny.json");
    let tiny = std::fs::read_to_string(tiny).expect("checked-in tiny scenario");
    assert!(tiny.contains("\"participation\": 1,"), "tiny's participation moved");
    let edited = dir.join("tiny-edited.json");
    std::fs::write(&edited, tiny.replace("\"participation\": 1,", "\"participation\": 0.5,"))
        .expect("write");
    let (killed, straight) = (dir.join("killed"), dir.join("straight"));
    let edited = edited.to_str().expect("utf-8");
    let (killed_out, straight_out) =
        (killed.to_str().expect("utf-8"), straight.to_str().expect("utf-8"));
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&killed)
            .expect("out dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .collect();
        names.sort();
        names
    };

    let (code, stdout, stderr) =
        scenarios(&["run", "tiny", "--halt-at-round", "1", "--out", killed_out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert_eq!(listing(), ["tiny.ckpt", "tiny.stamp"]);
    let ckpt = killed.join("tiny.ckpt");
    let written = std::fs::read(&ckpt).expect("a halted run leaves its checkpoint");
    let resume = ckpt.to_str().expect("utf-8");

    let (code, stdout, stderr) =
        scenarios(&["run", edited, "--resume", resume, "--out", killed_out]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stderr.contains(&format!("{resume}: not a checkpoint of this scenario")), "{stderr}");
    assert_eq!(listing(), ["tiny.ckpt", "tiny.stamp"], "nothing written");
    assert_eq!(std::fs::read(&ckpt).expect("checkpoint kept"), written, "checkpoint rewritten");

    // The worker count is not part of the scenario's identity: tiny
    // resumes at another `--threads` into the straight run's log, and the
    // finished run drops its checkpoint and stamp.
    let (code, stdout, stderr) = scenarios(&["run", "tiny", "--out", straight_out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let (code, stdout, stderr) =
        scenarios(&["run", "tiny", "--resume", resume, "--threads", "2", "--out", killed_out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert_eq!(listing(), ["tiny.csv", "tiny.json"]);
    let json = |dir: &std::path::Path| std::fs::read(dir.join("tiny.json")).expect("artifact");
    assert_eq!(json(&killed), json(&straight), "the resumed log differs from the straight run's");
}

#[test]
fn run_prints_a_resume_command_that_resumes() {
    // The hint printed by a halted run used to drop the `--seed` and
    // `--codec` overrides, so running it verbatim exited 1: the stamp
    // beside the checkpoint names the overridden scenario.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("run-resume-hint");
    let _ = std::fs::remove_dir_all(&dir);
    let (killed, straight) = (dir.join("killed"), dir.join("straight"));
    let (killed_out, straight_out) =
        (killed.to_str().expect("utf-8"), straight.to_str().expect("utf-8"));
    let overrides = ["--codec", "q8", "--seed", "5"];

    let run = |extra: &[&str]| {
        let mut args = vec!["run", "tiny"];
        args.extend_from_slice(&overrides);
        args.extend_from_slice(extra);
        scenarios(&args)
    };
    let (code, stdout, stderr) = run(&["--halt-at-round", "1", "--out", killed_out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let hint = stdout
        .lines()
        .find_map(|l| l.split_once("resume with: scenarios ").map(|(_, command)| command))
        .unwrap_or_else(|| panic!("no resume hint in:\n{stdout}"));
    let args: Vec<&str> = hint.split_whitespace().collect();
    let (code, stdout, stderr) = scenarios(&args);
    assert_eq!(code, Some(0), "`scenarios {hint}`: {stdout}{stderr}");

    let (code, stdout, stderr) = run(&["--out", straight_out]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let json = |dir: &std::path::Path| std::fs::read(dir.join("tiny.json")).expect("artifact");
    assert_eq!(json(&killed), json(&straight), "the resumed log differs from the straight run's");
}
