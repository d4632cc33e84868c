//! End-to-end tests of the `sweetspot` CLI binary.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweetspot"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("sweetspot-cli-{name}-{}.csv", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

/// A slow tone polled every 30 s for a day — heavily over-sampled.
fn oversampled_csv() -> String {
    let mut csv = String::from("time_seconds,value\n");
    for i in 0..2880 {
        let t = i as f64 * 30.0;
        let v = 50.0 + 5.0 * (2.0 * std::f64::consts::PI * 2e-5 * t).sin();
        csv.push_str(&format!("{t},{v}\n"));
    }
    csv
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("analyze"));
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn analyze_recommends_reduction_for_oversampled_trace() {
    let path = write_temp("oversampled", &oversampled_csv());
    let out = bin().arg("analyze").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("estimated Nyquist rate"), "{stdout}");
    assert!(stdout.contains("REDUCE"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn analyze_missing_file_fails_cleanly() {
    let out = bin()
        .arg("analyze")
        .arg("/nonexistent/trace.csv")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn analyze_rejects_malformed_flags() {
    let path = write_temp("flags", &oversampled_csv());
    let out = bin()
        .arg("analyze")
        .arg(&path)
        .arg("--cutoff") // missing value
        .output()
        .unwrap();
    assert!(!out.status.success());
    // A value that is not a number is echoed back with its flag.
    let out = bin()
        .arg("analyze")
        .arg(&path)
        .args(["--interval", "abc"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--interval wants seconds, got \"abc\""),
        "{stderr}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn analyze_and_track_reject_out_of_range_flags_cleanly() {
    let path = write_temp("range-flags", &oversampled_csv());
    let cases = [
        ("analyze", "--cutoff", "0"),
        ("analyze", "--cutoff", "1.5"),
        ("analyze", "--cutoff", "inf"),
        ("analyze", "--cutoff", "nan"),
        ("analyze", "--headroom", "0"),
        ("analyze", "--headroom", "-1"),
        ("analyze", "--headroom", "nan"),
        ("analyze", "--headroom", "inf"),
        ("track", "--window", "0"),
        ("track", "--window", "-100"),
        ("track", "--window", "nan"),
        ("track", "--step", "0"),
        ("track", "--step", "-5"),
        // Re-grids the day-long trace to 3 and 2 samples: too few to estimate.
        ("analyze", "--interval", "43200"),
        ("analyze", "--interval", "86400"),
        // Grids far denser than the 2 880 samples: 86.4 M points, and a
        // count too large for any integer.
        ("analyze", "--interval", "0.001"),
        ("analyze", "--interval", "1e-300"),
    ];
    for (cmd, flag, value) in cases {
        let out = bin()
            .arg(cmd)
            .arg(&path)
            .args([flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} {flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{cmd} {flag} {value}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "{cmd} {flag} {value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{cmd} {flag} {value} printed output");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn demo_pipes_into_analyze() {
    let out = bin()
        .args(["demo", "--metric", "Temperature", "--days", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let csv = String::from_utf8_lossy(&out.stdout);
    assert!(csv.starts_with("time_seconds,value"));
    assert!(csv.lines().count() > 500);

    let path = write_temp("demo", &csv);
    let out = bin().arg("analyze").arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("REDUCE") || stdout.contains("KEEP") || stdout.contains("INSPECT"),
        "{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn demo_rejects_days_outside_zero_to_a_year() {
    // 367 is one day past the cap; at 1e300 the parent panicked allocating.
    for days in ["0", "-1", "nan", "inf", "367", "1e300"] {
        let out = bin().args(["demo", "--days", days]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--days {days}: {stderr}");
        assert!(stderr.contains("--days"), "--days {days}: {stderr}");
        assert!(!stderr.contains("panicked"), "--days {days}: {stderr}");
        assert!(out.stdout.is_empty(), "--days {days} printed output");
    }
}

#[test]
fn demo_rejects_unknown_metric() {
    let out = bin()
        .args(["demo", "--metric", "nonsense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown metric"));
}

#[test]
fn track_emits_csv_series() {
    // 2 days at 30 s; 6h windows step 1h.
    let path = write_temp("track", &{
        let mut csv = String::new();
        for i in 0..5760 {
            let t = i as f64 * 30.0;
            let v = (2.0 * std::f64::consts::PI * 3e-4 * t).sin();
            csv.push_str(&format!("{t},{v}\n"));
        }
        csv
    });
    let out = bin()
        .args(["track"])
        .arg(&path)
        .args(["--window", "21600", "--step", "3600"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "window_start_seconds,nyquist_rate_hz");
    assert!(lines.len() > 20, "{} lines", lines.len());
    // Rates near 2×3e-4.
    let rate: f64 = lines[1].split(',').nth(1).unwrap().parse().unwrap();
    assert!((rate - 6e-4).abs() < 2e-4, "rate {rate}");
    std::fs::remove_file(path).ok();
}

/// Runs the binary on `args` with its stdout piped into a reader that checks
/// the first `lines` lines, then closes the pipe before the binary has
/// written the rest. A closed pipe must end the run cleanly: exit 0, no
/// panic.
fn exits_cleanly_when_the_reader_closes_the_pipe(args: &[&str], lines: &[&str]) {
    let mut child = bin()
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
    for &expected in lines {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert_eq!(line, expected);
    }
    drop(reader);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
    assert!(
        out.status.success(),
        "{args:?}: a closed pipe is a clean exit: {:?}",
        out.status
    );
}

#[test]
fn track_exits_cleanly_when_the_reader_closes_the_pipe() {
    // 30 days at one minute: ~8 600 six-hour windows at the default
    // 300 s step, a few hundred kB of CSV rows, far more than a pipe buffers.
    let path = write_temp("track-pipe", &{
        let mut csv = String::from("time_seconds,value\n");
        for i in 0..30 * 1440 {
            let t = i as f64 * 60.0;
            let v = (2.0 * std::f64::consts::PI * 1e-4 * t).sin();
            csv.push_str(&format!("{t},{v}\n"));
        }
        csv
    });
    exits_cleanly_when_the_reader_closes_the_pipe(
        &["track", path.to_str().unwrap()],
        &["window_start_seconds,nyquist_rate_hz\n"],
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn fleetsim_json_exits_cleanly_when_the_reader_closes_the_pipe() {
    // The reader is gone before fleetsim has simulated an epoch, so its
    // first write meets a closed pipe.
    exits_cleanly_when_the_reader_closes_the_pipe(
        &["fleetsim", "--devices", "14", "--days", "2", "--json"],
        &[],
    );
}

#[test]
fn study_prints_figure_and_headline() {
    let out = bin()
        .args(["study", "--devices", "3", "--seed", "9"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 1"));
    assert!(stdout.contains("Headline statistics"));
    assert!(stdout.contains("42")); // 14 metrics × 3 devices
}

#[test]
fn study_output_is_byte_identical_across_thread_counts() {
    // The sharded engine's core guarantee: `--threads N` only changes how the
    // work is partitioned, never what is computed.
    let run = |threads: &str| {
        let out = bin()
            .args([
                "study",
                "--devices",
                "4",
                "--seed",
                "11",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads={threads} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let serial = run("1");
    assert_eq!(serial, run("4"), "--threads 4 diverged from --threads 1");
    assert_eq!(serial, run("3"), "--threads 3 diverged from --threads 1");
}

#[test]
fn study_timing_prints_phase_split_on_stderr() {
    let timed = bin()
        .args(["study", "--devices", "2", "--seed", "3", "--timing"])
        .output()
        .unwrap();
    assert!(
        timed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&timed.stderr)
    );
    let stderr = String::from_utf8_lossy(&timed.stderr);
    let timing_line = stderr
        .lines()
        .find(|l| l.starts_with("timing:"))
        .unwrap_or_else(|| panic!("no timing line in: {stderr}"));
    for phase in [
        "synthesis",
        "clean",
        "estimate",
        "fft tables built in",
        "total",
    ] {
        assert!(
            timing_line.contains(phase),
            "missing {phase}: {timing_line}"
        );
    }
    assert!(timing_line.contains("pairs"), "{timing_line}");

    // Timing must be observability-only: stdout stays byte-identical to a
    // run without the flag (CI's determinism smoke compares stdout).
    let plain = bin()
        .args(["study", "--devices", "2", "--seed", "3"])
        .output()
        .unwrap();
    assert!(plain.status.success());
    assert_eq!(timed.stdout, plain.stdout, "--timing must not alter stdout");
    assert!(
        !String::from_utf8_lossy(&plain.stderr).contains("timing:"),
        "timing must be opt-in"
    );
}

#[test]
fn study_paper_scale_flag_is_accepted_with_other_flags() {
    // `--paper-scale` is a bare switch among `--name value` pairs; the
    // parser must not trip over the mix. (The full 1613-pair run is covered
    // by the release-binary test below and CI's determinism smoke.)
    let out = bin()
        .args(["study", "--paper-scale", "--bogus"])
        .output()
        .unwrap();
    // The switch parses, so the diagnostic is about `--bogus`, and it
    // restates the flag grammar.
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    assert!(stderr.contains("pairs"), "{stderr}");
}

#[test]
fn repeated_flags_and_value_flags_without_a_value_are_named() {
    let path = write_temp("flag-grammar", &oversampled_csv());
    let file = path.to_str().unwrap();
    for (args, flag) in [
        (vec!["demo", "--days", "1", "--days", "2"], "--days"),
        (
            vec![
                "fleetsim",
                "--devices",
                "14",
                "--days",
                "1",
                "--seed",
                "1",
                "--seed",
                "2",
            ],
            "--seed",
        ),
        (
            vec!["study", "--devices", "1", "--json", "--json"],
            "--json",
        ),
        (vec!["track", file, "--window"], "--window"),
        (vec!["track", file, "--window", "--step", "300"], "--window"),
        (vec!["analyze", file, "--cutoff"], "--cutoff"),
    ] {
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {flag} ")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn metrics_cadence_needs_a_positive_count_and_an_output() {
    let jsonl =
        std::env::temp_dir().join(format!("sweetspot-cli-every-{}.jsonl", std::process::id()));
    let jsonl = jsonl.to_str().unwrap();
    let run = ["fleetsim", "--devices", "14", "--days", "1"];
    for extra in [
        vec!["--metrics-every", "0", "--metrics-out", jsonl],
        vec!["--metrics-every", "2"],
    ] {
        let out = bin().args(run).args(&extra).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(stderr.contains("--metrics-every"), "{extra:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{extra:?} printed output");
    }
    std::fs::remove_file(jsonl).ok();
}

#[test]
fn study_rejects_an_empty_fleet_and_paper_scale_with_devices() {
    for (args, diagnostic) in [
        (
            vec!["study", "--devices", "0"],
            "positive number of devices",
        ),
        (vec!["study", "--paper-scale", "--devices", "3"], "conflict"),
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not print a study");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(diagnostic), "{args:?}: {stderr}");
    }
}

#[test]
#[ignore = "runs the full 1613-pair study twice; exercised by CI's release-binary smoke step"]
fn study_paper_scale_output_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = bin()
            .args(["study", "--paper-scale", "--threads", threads])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads={threads} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let a = run("2");
    assert_eq!(a, run("5"), "--threads 5 diverged from --threads 2");
    let text = String::from_utf8_lossy(&a).to_string();
    // Match the measured count field: the "(paper: 1613)" caption appears in
    // every study output and would make a bare contains("1613") vacuous.
    let pairs_line = text
        .lines()
        .find(|l| l.contains("metric-device pairs"))
        .expect("headline must report the pair count");
    assert!(
        pairs_line
            .split(':')
            .nth(1)
            .is_some_and(|v| v.trim_start().starts_with("1613")),
        "paper scale must analyze 1613 pairs, got: {pairs_line}"
    );
}

#[test]
fn unknown_flags_are_rejected_with_diagnostics() {
    // Each `valid:` list names a flag of the command, switches included.
    for (args, valid) in [
        (vec!["study", "--bogus", "1"], "--paper-scale"),
        (vec!["fleetsim", "--nope", "2"], "--json-devices"),
        // Paper scale is fleetsim's default; the switch is study-only.
        (vec!["fleetsim", "--paper-scale", "1"], "--json-devices"),
        (vec!["track", "/tmp/x.csv", "--cutoff", "0.9"], "--step"),
        (vec!["demo", "--threads", "4"], "--metric"),
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag") && stderr.contains("valid:"),
            "{args:?}: {stderr}"
        );
        let listed = stderr.split("valid:").nth(1).unwrap_or_default();
        assert!(
            listed.contains(valid),
            "{args:?} lists no {valid}: {stderr}"
        );
    }
    // analyze with an unknown flag fails before touching the file system.
    let path = write_temp("unknown-flag", &oversampled_csv());
    let out = bin()
        .args(["analyze"])
        .arg(&path)
        .args(["--bogus", "7"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --bogus"));
    std::fs::remove_file(path).ok();
}

#[test]
fn study_json_emits_machine_readable_output() {
    let out = bin()
        .args(["study", "--devices", "2", "--seed", "9", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"pairs\":28"));
    assert!(line.contains("\"oversampled_fraction\":"));
    assert!(line.contains("\"per_metric\":["));
    assert!(
        !stdout.contains("Figure 1"),
        "--json must replace the tables"
    );

    // Without --json the table output is unchanged.
    let plain = bin()
        .args(["study", "--devices", "2", "--seed", "9"])
        .output()
        .unwrap();
    let plain_stdout = String::from_utf8_lossy(&plain.stdout);
    assert!(plain_stdout.contains("Figure 1"));
    assert!(!plain_stdout.contains("\"pairs\""));
}

#[test]
fn fleetsim_prints_frontier_for_all_policies() {
    let out = bin()
        .args(["fleetsim", "--devices", "28", "--days", "3", "--seed", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fleet simulation: 28 devices"));
    for policy in ["uncapped", "uniform", "fair", "waterfill"] {
        assert!(stdout.contains(policy), "missing {policy}: {stdout}");
    }
    assert!(stdout.contains("cov/kcost"));
    assert!(stdout.contains("steady uncapped demand"));
}

#[test]
fn fleetsim_single_point_policy_and_json() {
    let out = bin()
        .args([
            "fleetsim",
            "--devices",
            "28",
            "--days",
            "2",
            "--seed",
            "5",
            "--budget",
            "9000",
            "--policy",
            "waterfill",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"policy\":\"waterfill\""));
    assert!(line.contains("\"budget_per_epoch\":9000"));
    assert!(line.contains("\"mean_coverage\":"));
}

#[test]
fn fleetsim_json_writes_seeds_exactly() {
    // Both seeds lie beyond f64's 2^53 integer range, where a seed written
    // through a float would come back as a different (or no) u64.
    let stdout = stdout_at(
        "fleetsim --devices 14 --days 2 --budget 30000 --policy fair \
         --seed 18446744073709551615 --scenario churn --scenario-seed 9007199254740993 --json",
        "1",
    );
    let stdout = String::from_utf8(stdout).unwrap();
    assert!(
        stdout.contains("\"seed\":18446744073709551615,"),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"scenario\":{\"label\":\"churn\",\"seed\":9007199254740993,"),
        "{stdout}"
    );
}

#[test]
fn fleetsim_rejects_zero_devices() {
    let out = bin()
        .args(["fleetsim", "--devices", "0", "--days", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("positive fleet size"), "{stderr}");
}

#[test]
fn fleetsim_and_study_reject_thread_counts_past_the_ceiling() {
    // The engines spawn their workers afresh every epoch, so `--threads` is
    // capped before a run. Both fleets have 14 work items, so a broken
    // check would still spawn at most 14 threads here.
    for args in [
        vec![
            "fleetsim",
            "--devices",
            "14",
            "--days",
            "1",
            "--threads",
            "5000",
        ],
        vec!["study", "--devices", "1", "--threads", "5000"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--threads"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // The ceiling itself is accepted.
    let out = bin()
        .args(["study", "--devices", "1", "--threads", "1024"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fleetsim_rejects_non_finite_days() {
    // A non-finite horizon has no epoch count, and one shorter than an
    // epoch has none either: each must fail with a message, neither running
    // nor panicking.
    for days in ["nan", "inf", "1e-9"] {
        let out = bin()
            .args(["fleetsim", "--devices", "14", "--days", days])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--days {days} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--days"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn fleetsim_scaled_fleet_is_balanced_beyond_per_metric_counts() {
    // 30 pairs round-robin: not a multiple of 14, still runs and reports
    // exactly the requested fleet size.
    let out = bin()
        .args([
            "fleetsim",
            "--devices",
            "30",
            "--days",
            "1",
            "--seed",
            "5",
            "--budget",
            "9000",
            "--policy",
            "fair",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fleet simulation: 30 devices"), "{stdout}");
}

#[test]
fn fleetsim_rejects_bad_policy() {
    let out = bin()
        .args(["fleetsim", "--devices", "28", "--policy", "roulette"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown policy") && stderr.contains("waterfill"),
        "{stderr}"
    );
}

#[test]
fn fleetsim_scenario_diagnostics_name_the_token_and_list_the_vocabulary() {
    // A misspelled preset must be named verbatim in the error, and the
    // message must teach the full vocabulary: every valid preset and every
    // key=value override key, so the user never needs the docs to recover.
    let out = bin()
        .args([
            "fleetsim",
            "--devices",
            "14",
            "--scenario",
            "chrun+incident",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scenario term 'chrun'"), "{stderr}");
    for preset in [
        "none",
        "churn",
        "incident",
        "lossy-reports",
        "cost-skew",
        "duty",
        "battery",
        "diurnal",
        "staggered",
    ] {
        assert!(stderr.contains(preset), "missing preset {preset}: {stderr}");
    }
    for key in ["drop", "duty-period", "incident-stagger", "cost-spread"] {
        assert!(stderr.contains(key), "missing key {key}: {stderr}");
    }

    // A bad key inside a key=value term is named too — both the key and the
    // offending term — with the same vocabulary listing.
    let out = bin()
        .args([
            "fleetsim",
            "--devices",
            "14",
            "--scenario",
            "drop=0.1+frobs=2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown scenario key 'frobs'") && stderr.contains("'frobs=2'"),
        "{stderr}"
    );
    assert!(
        stderr.contains("duty-frac") && stderr.contains("staggered"),
        "{stderr}"
    );

    // A malformed number names the term and the unparsable value.
    let out = bin()
        .args(["fleetsim", "--devices", "14", "--scenario", "drop=lots"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("'drop=lots'") && stderr.contains("bad number 'lots'"),
        "{stderr}"
    );
}

#[test]
fn fleetsim_rejects_out_of_range_recovery_budget_frac() {
    for bad in ["1.5", "-0.1", "nan"] {
        let out = bin()
            .args(["fleetsim", "--devices", "14", "--recovery-budget-frac", bad])
            .output()
            .unwrap();
        assert!(
            !out.status.success(),
            "--recovery-budget-frac {bad} must fail"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("fraction in [0, 1]"), "{stderr}");
    }
}

#[test]
fn fleetsim_rejects_an_fft_cache_cap_that_overflows_bytes() {
    // 2^44 MiB is 2^64 bytes: the cap must be rejected, not wrapped to 0.
    let out = bin()
        .args([
            "fleetsim",
            "--devices",
            "14",
            "--fft-cache-mb",
            "17592186044416",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--fft-cache-mb"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn fleetsim_output_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = bin()
            .args([
                "fleetsim",
                "--devices",
                "42",
                "--days",
                "3",
                "--seed",
                "11",
                "--budget",
                "20000",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads={threads} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let serial = run("1");
    assert_eq!(serial, run("4"), "--threads 4 diverged from --threads 1");
    assert_eq!(serial, run("3"), "--threads 3 diverged from --threads 1");
}

#[test]
fn fleetsim_timing_is_stderr_only() {
    let timed = bin()
        .args([
            "fleetsim",
            "--devices",
            "28",
            "--days",
            "2",
            "--seed",
            "3",
            "--timing",
        ])
        .output()
        .unwrap();
    assert!(timed.status.success());
    let stderr = String::from_utf8_lossy(&timed.stderr);
    let timing_line = stderr
        .lines()
        .find(|l| l.starts_with("timing:"))
        .unwrap_or_else(|| panic!("no timing line in: {stderr}"));
    for phase in ["build", "step", "schedule", "total"] {
        assert!(
            timing_line.contains(phase),
            "missing {phase}: {timing_line}"
        );
    }
    let memory_line = stderr
        .lines()
        .find(|l| l.contains("fft tables"))
        .unwrap_or_else(|| panic!("no fft tables line in: {stderr}"));
    assert!(memory_line.contains("shard(s), built in "), "{memory_line}");
    let plain = bin()
        .args(["fleetsim", "--devices", "28", "--days", "2", "--seed", "3"])
        .output()
        .unwrap();
    assert_eq!(timed.stdout, plain.stdout, "--timing must not alter stdout");
    // Nor the JSON report: table-build time is wall scope, stderr only.
    let json = |timing: bool| {
        let mut cmd = bin();
        cmd.args([
            "fleetsim",
            "--devices",
            "28",
            "--days",
            "2",
            "--seed",
            "3",
            "--json",
        ]);
        if timing {
            cmd.arg("--timing");
        }
        cmd.output().unwrap().stdout
    };
    assert_eq!(json(true), json(false), "--timing must not alter --json");
}

#[test]
fn analyze_reports_diagnostic_for_all_nan_trace() {
    // A fully-NaN trace must exit with a cleaning diagnostic, not a panic.
    let mut csv = String::from("time_seconds,value\n");
    for i in 0..32 {
        csv.push_str(&format!("{},nan\n", i * 30));
    }
    let path = write_temp("all-nan", &csv);
    let out = bin().arg("analyze").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("too few valid samples"),
        "want a cleaning diagnostic, got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn analyze_reports_diagnostic_for_mostly_nan_trace() {
    // Two valid rows among NaNs clean to fewer samples than the estimator
    // needs: a diagnostic, not a panic.
    let mut csv = String::from("time_seconds,value\n0,1\n30,2\n");
    for i in 2..8 {
        csv.push_str(&format!("{},nan\n", i * 30));
    }
    let path = write_temp("mostly-nan", &csv);
    let out = bin().arg("analyze").arg(&path).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("too few valid samples"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
    std::fs::remove_file(path).ok();
}

#[test]
fn analyze_tolerates_comments_before_header() {
    let csv = format!("# exported trace\n\n{}", oversampled_csv());
    let path = write_temp("comment-header", &csv);
    let out = bin().arg("analyze").arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(path).ok();
}

/// Reads a fixture from `tests/golden/`.
fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `sweetspot` with the whitespace-separated `args` plus
/// `--threads threads` and returns its stdout, failing on a non-zero exit.
fn stdout_at(args: &str, threads: &str) -> Vec<u8> {
    let out = bin()
        .args(args.split_whitespace())
        .args(["--threads", threads])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{args} --threads {threads} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

// Byte-for-byte pins of fleetsim and study output against fixtures written
// by the engine before its epoch loop was collapsed into a single step path
// (fleetsim) and before the measurement chain was flattened (study). None
// of the outputs carries a wall-clock field, so any difference is a
// behaviour change. Each fixture is checked at one and at four threads.
//
// To regenerate after an intended output change, rerun the commands below
// with `--threads 1` and redirect stdout (and `--metrics-out`) into
// `tests/golden/`.

#[test]
fn fleetsim_budget_point_matches_golden_fixture() {
    let args = "fleetsim --devices 84 --days 3 --seed 11 --budget 30000 --policy fair \
                --json --json-devices";
    for threads in ["1", "4"] {
        assert!(
            stdout_at(args, threads) == golden("fleetsim_fair_point.json"),
            "fair budget point diverged at --threads {threads}"
        );
    }
}

#[test]
fn fleetsim_lossy_devices_match_golden_fixture() {
    // Per-device deferral tallies under churn, lost and late reports and
    // duty-cycled sleep: the only fixture with non-zero `missed_epochs`.
    let args = "fleetsim --devices 56 --days 12 --seed 11 --budget 300000 --policy waterfill \
                --scenario churn+lossy-reports+duty --scenario-seed 7 --json --json-devices";
    for threads in ["1", "4"] {
        assert!(
            stdout_at(args, threads) == golden("fleetsim_lossy_devices.json"),
            "lossy per-device records diverged at --threads {threads}"
        );
    }
}

#[test]
fn fleetsim_frontier_matches_golden_fixture() {
    for threads in ["1", "4"] {
        let frontier = stdout_at("fleetsim --devices 84 --days 3 --seed 11", threads);
        assert!(
            frontier == golden("fleetsim_frontier.txt"),
            "frontier text diverged at --threads {threads}:\n{}",
            String::from_utf8_lossy(&frontier)
        );
    }
}

#[test]
fn fleetsim_chaos_run_matches_golden_fixtures() {
    for threads in ["1", "4"] {
        let jsonl = std::env::temp_dir().join(format!(
            "sweetspot-cli-golden-chaos-{threads}-{}.jsonl",
            std::process::id()
        ));
        let args = format!(
            "fleetsim --devices 56 --days 24 --seed 990951 --budget 300000 --policy waterfill \
             --scenario churn+incident+duty --scenario-seed 11 --recovery-budget-frac 0.25 \
             --json --metrics-out {}",
            jsonl.display()
        );
        let chaos = stdout_at(&args, threads);
        let stream = std::fs::read(&jsonl).unwrap();
        std::fs::remove_file(&jsonl).ok();
        assert!(
            chaos == golden("fleetsim_chaos.json"),
            "chaos JSON diverged at --threads {threads}"
        );
        assert!(
            stream == golden("fleetsim_chaos.jsonl"),
            "chaos metrics stream diverged at --threads {threads}"
        );
    }
}

#[test]
fn study_json_matches_golden_fixture() {
    for threads in ["1", "4"] {
        let study = stdout_at("study --devices 16 --json", threads);
        assert!(
            study == golden("study_16.json"),
            "study JSON diverged at --threads {threads}:\n{}",
            String::from_utf8_lossy(&study)
        );
    }
}

/// Writes `demo --metric <metric> --days 3` to a temp CSV and returns its
/// path.
fn demo_trace(metric: &str, tag: &str) -> std::path::PathBuf {
    let out = bin()
        .args(["demo", "--metric", metric, "--days", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "demo --metric {metric} failed");
    write_temp(tag, &String::from_utf8_lossy(&out.stdout))
}

/// Runs `sweetspot <cmd> <path>` and returns its stdout.
fn stdout_of(cmd: &str, path: &std::path::Path) -> Vec<u8> {
    let out = bin().arg(cmd).arg(path).output().unwrap();
    assert!(
        out.status.success(),
        "{cmd} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

// Byte-for-byte pins of `analyze` and `track` on demo traces, written
// before non-power-of-two 5-smooth lengths moved off Bluestein onto the
// mixed-radix FFT. "Lossy paths" over 3 days regularizes to 4 320 minutely
// samples (a 5-smooth length) and its 6-hour tracker windows hold 360;
// "Temperature" regularizes to 865 = 5·173 samples, which stays on
// Bluestein.

#[test]
fn analyze_and_track_on_smooth_demo_trace_match_golden_fixtures() {
    let path = demo_trace("Lossy paths", "golden-lossy");
    let analyze = stdout_of("analyze", &path);
    let track = stdout_of("track", &path);
    std::fs::remove_file(path).ok();
    assert!(
        analyze == golden("analyze_demo.txt"),
        "analyze diverged:\n{}",
        String::from_utf8_lossy(&analyze)
    );
    assert!(track == golden("track_demo.txt"), "track diverged");
}

#[test]
fn analyze_on_bluestein_demo_trace_matches_golden_fixture() {
    let path = demo_trace("Temperature", "golden-temperature");
    let analyze = stdout_of("analyze", &path);
    std::fs::remove_file(path).ok();
    assert!(
        analyze == golden("analyze_temperature_demo.txt"),
        "analyze diverged:\n{}",
        String::from_utf8_lossy(&analyze)
    );
}

// `tests/golden/messy_trace.csv` is a two-day minutely trace in every shape
// the CSV dialect tolerates: CRLF line endings, a header after comments,
// comments and blank lines mid-file, tab, space, `\x0B` and U+00A0
// padding, swapped (out-of-order) rows, duplicate timestamps whose later
// row must lose, `NaN`/`nan` values, exponent-form times and values, and
// 17-digit values. The expected output was written by the line-based
// parser that preceded the byte-level one.

#[test]
fn analyze_on_messy_csv_matches_golden_fixture() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/messy_trace.csv");
    let analyze = stdout_of("analyze", &path);
    assert!(
        analyze == golden("analyze_messy.txt"),
        "analyze diverged:\n{}",
        String::from_utf8_lossy(&analyze)
    );
}

#[test]
fn analyze_reads_its_trace_from_a_pipe() {
    // A pipe reports size 0, so the trace is read as a stream to its end.
    let trace = golden("messy_trace.csv");
    let mut child = bin()
        .args(["analyze", "/dev/stdin"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || stdin.write_all(&trace));
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stdout == golden("analyze_messy.txt"),
        "analyze of a piped trace diverged:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn analyze_rejects_a_trace_that_is_not_utf8() {
    // The bad byte sits in a comment after the rows, where the parser
    // would never look at it: the whole stream must still be UTF-8.
    let path =
        std::env::temp_dir().join(format!("sweetspot-cli-latin1-{}.csv", std::process::id()));
    let mut bytes = oversampled_csv().into_bytes();
    bytes.extend(b"# caf\xE9\n");
    std::fs::write(&path, bytes).unwrap();
    let out = bin().arg("analyze").arg(&path).output().unwrap();
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot read") && stderr.contains("stream did not contain valid UTF-8"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn analyze_keeps_the_first_row_after_a_byte_order_mark() {
    let csv = oversampled_csv();
    let rows = csv.lines().skip(1).take(9).collect::<Vec<_>>().join("\n");
    let path = write_temp("bom", &format!("\u{FEFF}{rows}\n"));
    let stdout = stdout_of("analyze", &path);
    std::fs::remove_file(path).ok();
    let first = String::from_utf8_lossy(&stdout)
        .lines()
        .next()
        .unwrap_or("")
        .to_string();
    assert!(first.starts_with("trace: 9 samples"), "{first}");
}

#[test]
fn analyze_and_track_timing_is_one_stderr_line() {
    let path = write_temp("timing", &oversampled_csv());
    for (cmd, flags) in [
        ("analyze", &[][..]),
        ("track", &["--window", "21600", "--step", "3600"][..]),
    ] {
        let run = |timing: bool| {
            let mut c = bin();
            c.arg(cmd).arg(&path).args(flags);
            if timing {
                c.arg("--timing");
            }
            c.output().unwrap()
        };
        let (timed, plain) = (run(true), run(false));
        assert!(
            timed.status.success(),
            "{}",
            String::from_utf8_lossy(&timed.stderr)
        );
        assert_eq!(
            timed.stdout, plain.stdout,
            "{cmd}: --timing must not alter stdout"
        );
        let stderr = String::from_utf8_lossy(&timed.stderr);
        let lines: Vec<_> = stderr
            .lines()
            .filter(|l| l.starts_with("timing:"))
            .collect();
        assert_eq!(lines.len(), 1, "{cmd}: {stderr}");
        for stage in ["load", "clean", "estimate", "fft tables"] {
            assert!(
                lines[0].contains(&format!("{stage} ")),
                "{cmd} lacks {stage}: {}",
                lines[0]
            );
        }
        // 2880 samples is 5-smooth: `analyze`'s one estimate builds no
        // table, while `track` caches its windows' tables.
        let untabled = lines[0].contains("fft tables 0.0 MB, built in 0.000 ms");
        assert_eq!(untabled, cmd == "analyze", "{cmd}: {}", lines[0]);
        assert!(
            !String::from_utf8_lossy(&plain.stderr).contains("timing:"),
            "{cmd}: opt-in"
        );
    }
    std::fs::remove_file(path).ok();
}

/// A 90-day minutely trace the size of the benchmark's `analyze` input
/// (129 600 rows before faults): three tones, the highest at 2 mHz, plus
/// small pseudo-random noise, dropped rows, `nan` rows and one spike the
/// outlier filter removes. Every value comes from integer arithmetic and
/// `sin`, so the file is the same on every run.
fn ninety_day_csv() -> String {
    let tones = [(0.002, 1.0, 0.3), (0.0011, 1.5, 1.1), (0.0004, 0.7, 2.0)];
    let samples = 90 * 1440;
    let mut csv = String::with_capacity(samples * 20);
    csv.push_str("time_seconds,value\n");
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..samples {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let interior = i > 0 && i < samples - 1;
        let t = 60 * i;
        if interior && i % 397 == 5 {
            continue; // lost row
        }
        if interior && i % 541 == 17 {
            csv.push_str(&format!("{t},nan\n"));
            continue;
        }
        let tf = t as f64;
        let mut v: f64 = 50.0
            + tones
                .iter()
                .map(|&(f, a, p)| a * (2.0 * std::f64::consts::PI * f * tf + p).sin())
                .sum::<f64>();
        v += 0.02 * ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
        if i == 64_000 {
            v += 100.0;
        }
        csv.push_str(&format!("{t},{v:.5}\n"));
    }
    csv
}

// Pins `analyze` at the benchmark's trace shape: 129 600 samples, a
// mixed-radix real transform over 64 800 points and a Hann table of the
// full length, all built afresh by the process. Written before the FFT and
// window tables were built from two-level root tables.

#[test]
fn analyze_on_ninety_day_trace_matches_golden_fixture() {
    let path = write_temp("golden-90d", &ninety_day_csv());
    let analyze = stdout_of("analyze", &path);
    std::fs::remove_file(path).ok();
    assert!(
        analyze == golden("analyze_90d.txt"),
        "analyze diverged:\n{}",
        String::from_utf8_lossy(&analyze)
    );
}
