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
    let out = repro(&["solve", "--workers", "2", "--reps", "1"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("A: 3969 x 3969"), "{stdout}");
    for lane in ["sequential", "doacross", "reordered", "blocked"] {
        let row = stdout
            .lines()
            .find(|line| line.starts_with(lane))
            .unwrap_or_else(|| panic!("no {lane} row in {stdout}"));
        // Columns: solver, best time, residual, vs seq.
        let residual: f64 = row
            .split_whitespace()
            .rev()
            .nth(1)
            .and_then(|cell| cell.parse().ok())
            .unwrap_or_else(|| panic!("no residual in {row:?}"));
        assert!(residual <= 1e-8, "{lane}: residual {residual}");
    }
}
