//! Drives the `repro` binary the way CI and a reader of the paper do.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn unknown_subcommand_lists_the_five_and_exits_2() {
    for args in [&["wavefront"][..], &[]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let usage = String::from_utf8(out.stderr).expect("utf-8");
        for name in ["table1", "fig6", "census", "ablation", "solve"] {
            assert!(usage.contains(name), "{args:?}: {usage:?} lacks {name}");
        }
    }
}

#[test]
fn census_prints_fourteen_rows_per_m() {
    let out = repro(&["census"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let sections: Vec<&str> = stdout.split("M = ").skip(1).collect();
    assert_eq!(sections.len(), 2, "{stdout}");
    for section in sections {
        assert!(section.contains("doall?"), "{section}");
        let ls: Vec<usize> = section
            .lines()
            .filter_map(|line| line.split_whitespace().next()?.parse().ok())
            .collect();
        assert_eq!(ls, (1..=14).collect::<Vec<_>>(), "{section}");
    }
}

#[test]
fn solve_without_a_file_solves_the_demo_on_every_lane() {
    let out = repro(&["solve"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("A: 3969 x 3969"), "{stdout}");
    let plan = stdout
        .lines()
        .find(|line| line.starts_with("plan "))
        .unwrap_or_else(|| panic!("no plan line in {stdout}"));
    let variant = plan.split_whitespace().nth(1).unwrap_or_default();
    assert!(
        [
            "sequential",
            "doacross",
            "linear",
            "reordered",
            "blocked",
            "wavefront"
        ]
        .iter()
        .any(|name| variant.starts_with(name)),
        "{plan:?} names no variant"
    );
    let residual: f64 = stdout
        .lines()
        .find_map(|line| line.strip_prefix("residual: "))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no residual in {stdout}"));
    assert!(residual <= 1e-8, "residual {residual}");
}

#[test]
fn solve_rejects_bad_input_with_one_line_and_exit_2() {
    let garbage = std::env::temp_dir().join(format!("repro-garbage-{}.mtx", std::process::id()));
    std::fs::write(&garbage, "not a matrix market file\n").expect("temp dir writable");
    let garbage = garbage.to_str().expect("utf-8 path").to_string();
    for args in [
        &["solve", "/nonexistent/matrix.mtx"][..],
        &["solve", &garbage],
        &["solve", "--workers", "2"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr:?}");
        assert!(stderr.starts_with("repro solve: "), "{args:?}: {stderr:?}");
    }
    let _ = std::fs::remove_file(&garbage);
}

#[test]
fn ablation_prints_the_four_simulated_sections() {
    let out = repro(&["ablation"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    for header in [
        "Ablation 1 — self-scheduling chunk size (simulated",
        "Ablation 2 — §2.3 inspector elimination (simulated",
        "Ablation 3 — processor scaling (simulated",
        "Ablation 4 — flag sync (doacross) vs. barrier sync (level-scheduled), simulated",
    ] {
        assert!(stdout.contains(header), "no {header:?} in {stdout}");
    }
    assert!(!stdout.contains("Ablation 5"), "{stdout}");
    assert!(!stdout.contains("host threads"), "{stdout}");
}
