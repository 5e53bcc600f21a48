//! The A/B runner against two fake `benchmark` executables: shell scripts that
//! log their arguments and print a canned last line chosen by `--seed`.
//! Nothing is built, so these run in well under a second.

use super::*;
use proptest::prelude::*;
use std::os::unix::fs::PermissionsExt as _;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bitdissem_ab_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fake `benchmark` for side `name`: it appends
/// `<name> <workload> <seed> <seconds> <trace> <BENCH_COMMIT>` to `dir/runs.log`,
/// then runs `body`, a shell `case` over the seed (`$4`) that must print
/// the last line.
fn fake(dir: &Path, name: &'static str, body: &str) -> Side {
    let binary = dir.join(format!("{name}.sh"));
    let log = dir.join("runs.log");
    let script = format!(
        "#!/bin/sh\necho \"{name} $2 $4 $6 $8 $BENCH_COMMIT\" >> '{}'\necho 'pass_s 1 s'\n{body}\n",
        log.display()
    );
    std::fs::write(&binary, script).unwrap();
    std::fs::set_permissions(&binary, std::fs::Permissions::from_mode(0o755)).unwrap();
    Side { name, sha: format!("{name}sha"), binary }
}

/// A shell command printing the last line of a benchsuite run; `pass_s`
/// is shell text, so it may expand a variable.
fn line(failed: u64, pass_s: &str, rss: f64) -> String {
    format!(
        "echo '{{\"correct\":{},\"attempted\":3,\"failed\":{failed},\"metrics\":{{\
         \"pass_s\":{{\"value\":'\"{pass_s}\"',\"unit\":\"s\"}},\
         \"peak_rss_mb\":{{\"value\":{rss},\"unit\":\"MB\"}}}}}}'",
        failed == 0
    )
}

fn plan(workloads: &[&str], seeds: RangeInclusive<u64>) -> Plan {
    Plan {
        run_seconds: 0.5,
        metrics: vec![
            Metric { name: "pass_s".into(), better: Better::Lower, bound: 0.25 },
            Metric { name: "peak_rss_mb".into(), better: Better::Lower, bound: 0.16 },
        ],
        workloads: workloads.iter().map(|w| (*w).to_string()).collect(),
        seeds,
    }
}

fn record(path: &Path) -> Value {
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn runs_alternate_and_the_record_keeps_every_value() {
    let dir = temp_dir("order");
    // pass_s = 2 + seed/100 for the base, one second less for the change;
    // peak RSS equal on both sides.
    let base = fake(&dir, "base", &line(0, "2.$4", 4.0));
    let change = fake(&dir, "change", &line(0, "1.$4", 4.0));
    let path = dir.join("BENCH_t.json");
    let out = run_ab(&plan(&["converge"], 10..=19), &base, &change, &path);
    assert_eq!(out.status, Status::Ok, "{}", out.stdout);

    let log = std::fs::read_to_string(dir.join("runs.log")).unwrap();
    let runs: Vec<&str> = log.lines().collect();
    assert_eq!(runs.len(), 20);
    assert_eq!(runs[0], "base converge 10 0.5 0 basesha");
    assert_eq!(runs[1], "change converge 10 0.5 0 changesha");
    assert_eq!(runs[2], "change converge 11 0.5 0 changesha");
    assert_eq!(runs[3], "base converge 11 0.5 0 basesha");
    assert!(runs[19].starts_with("base converge 19 "), "{log}");

    let rec = record(&path);
    assert_eq!(rec.get("schema_version").and_then(Value::as_u64), Some(2));
    assert_eq!(rec.get("base").and_then(Value::as_str), Some("basesha"));
    assert_eq!(rec.get("run_seconds").and_then(Value::as_f64), Some(0.5));
    let Some(Value::Arr(pairs)) = rec.get("pairs") else { panic!("no pairs") };
    assert_eq!(pairs.len(), 10);
    let get =
        |p: &Value, side: &str, k: &str| p.get(side).and_then(|s| s.get(k)).and_then(Value::as_f64);
    assert_eq!(pairs[0].get("first").and_then(Value::as_str), Some("base"));
    assert_eq!(pairs[1].get("first").and_then(Value::as_str), Some("change"));
    assert_eq!(pairs[3].get("seed").and_then(Value::as_u64), Some(13));
    assert_eq!(get(&pairs[3], "base", "pass_s"), Some(2.13));
    assert_eq!(get(&pairs[3], "change", "pass_s"), Some(1.13));
    assert_eq!(get(&pairs[3], "change", "failed"), Some(0.0));

    let Some(Value::Arr(verdicts)) = rec.get("verdicts") else { panic!("no verdicts") };
    let verdict = |i: usize| verdicts[i].get("verdict").and_then(Value::as_str);
    assert_eq!(verdicts[0].get("metric").and_then(Value::as_str), Some("pass_s"));
    assert_eq!(verdict(0), Some("improved"));
    assert_eq!(verdicts[0].get("wins").and_then(Value::as_u64), Some(10));
    assert_eq!(verdict(1), Some("unresolved"), "equal RSS ties on every pair");
    assert!(out.stdout.contains("improved") && out.stdout.contains("10/0/0"), "{}", out.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_or_a_bad_last_line_fails_and_names_side_workload_and_seed() {
    let dir = temp_dir("fail");
    let ok = line(0, "1.0", 4.0);
    let change = fake(&dir, "change", &format!("case $4 in 3) exit 7;; esac; {ok}"));
    let base = fake(&dir, "base", &format!("case $4 in 2) echo 'not json';; *) {ok};; esac"));
    let path = dir.join("BENCH_f.json");
    let crash = run_ab(&plan(&["exact"], 3..=4), &base, &change, &path);
    assert_eq!(crash.status, Status::CheckFailed);
    assert!(crash.stdout.contains("change run of exact seed 3 failed"), "{}", crash.stdout);
    let garbled = run_ab(&plan(&["crossing"], 1..=2), &base, &change, &path);
    assert_eq!(garbled.status, Status::CheckFailed);
    assert!(garbled.stdout.contains("base run of crossing seed 2"), "{}", garbled.stdout);
    assert!(garbled.stdout.contains("not JSON"), "{}", garbled.stdout);
    assert!(!path.exists(), "a failed A/B writes no record");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn more_failed_checks_read_regressed() {
    let dir = temp_dir("checks");
    let base = fake(&dir, "base", &line(0, "1.0", 4.0));
    // Same values, but one run of `exact` fails a check.
    let change = fake(
        &dir,
        "change",
        &format!(
            "case \"$2$4\" in exact5) {};; *) {};; esac",
            line(1, "1.0", 4.0),
            line(0, "1.0", 4.0)
        ),
    );
    let path = dir.join("BENCH_c.json");
    let out = run_ab(&plan(&["converge", "exact"], 1..=10), &base, &change, &path);
    assert_eq!(out.status, Status::CheckFailed, "{}", out.stdout);
    let rec = record(&path);
    let Some(Value::Arr(verdicts)) = rec.get("verdicts") else { panic!("no verdicts") };
    let read: Vec<_> = verdicts
        .iter()
        .map(|v| {
            let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
            (s("workload"), s("verdict"), v.get("change_failed").and_then(Value::as_u64))
        })
        .collect();
    assert_eq!(read[0], ("converge".into(), "unresolved".into(), Some(0)));
    assert_eq!(read[2], ("exact".into(), "regressed".into(), Some(1)));
    assert_eq!(read[3].1, "regressed");
    // A failed check regresses at any pair count; the value verdicts
    // stay unresolved below ten pairs.
    let few = run_ab(&plan(&["exact"], 4..=6), &base, &change, &path);
    assert_eq!(few.status, Status::CheckFailed, "{}", few.stdout);
    let rec = record(&path);
    let Some(Value::Arr(verdicts)) = rec.get("verdicts") else { panic!("no verdicts") };
    for v in verdicts {
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("regressed"), "{v:?}");
        assert_eq!(v.get("pairs").and_then(Value::as_u64), Some(3), "{v:?}");
    }
    let clean = run_ab(&plan(&["exact"], 6..=8), &base, &change, &path);
    assert_eq!(clean.status, Status::Ok, "{}", clean.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_worktree_tree_takes_untracked_files_and_leaves_the_index_alone() {
    let dir = temp_dir("worktree");
    let git = |args: &[&str]| super::git(&dir, args).unwrap();
    git(&["init", "-q"]);
    std::fs::write(dir.join(".gitignore"), "/.bench_build\n").unwrap();
    git(&["add", ".gitignore"]);
    git(&["-c", "user.name=t", "-c", "user.email=t@localhost", "commit", "-qm", "t"]);
    let head = git(&["rev-parse", "HEAD^{tree}"]);
    assert_eq!(worktree(&dir).unwrap(), head, "a clean tree is HEAD's");
    std::fs::write(dir.join("new.rs"), "fn main() {}\n").unwrap();
    let work = worktree(&dir).unwrap();
    assert_ne!(work, head);
    assert_eq!(git(&["ls-tree", "--name-only", &work]), ".gitignore\nnew.rs");
    assert_eq!(git(&["status", "--porcelain"]), "?? new.rs", "the real index is untouched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_spec_comes_from_benchmark_json() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"));
    let (secs, metrics, workloads) = read_spec(&text.unwrap()).unwrap();
    assert!(secs > 0.0);
    assert!(workloads.iter().any(|w| w == "crossing"), "{workloads:?}");
    let pass_s = metrics.iter().find(|m| m.name == "pass_s").expect("pass_s is end to end");
    assert!(pass_s.better == Better::Lower && pass_s.bound > 0.0);
    assert!(read_spec("{\"run_seconds\":20}").is_err());
    assert!(read_spec("not json").is_err());
}

#[test]
fn seed_ranges_and_workload_lists_are_checked() {
    assert_eq!(parse_seeds("1001..1010"), Ok(1001..=1010));
    assert_eq!(parse_seeds("7..7"), Ok(7..=7));
    for bad in ["", "..", "5..", "..5", "3..2", "1-10", "1..=10", "0..18446744073709551616", "a..b"]
    {
        assert!(parse_seeds(bad).is_err(), "{bad:?}");
    }
    let known: Vec<String> = ["converge", "exact"].map(String::from).to_vec();
    assert_eq!(parse_workloads("exact, converge", &known).unwrap(), ["exact", "converge"]);
    for bad in ["", "exact,", "bogus", "exact,exact"] {
        assert!(parse_workloads(bad, &known).is_err(), "{bad:?}");
    }
}

#[test]
fn unknown_flags_and_missing_arguments_are_usage_errors() {
    let run = |argv: &[&str]| crate::dispatch(&Args::parse(argv.iter().copied()));
    for argv in [
        &["bench", "--base", "HEAD", "--seeds", "1..2", "--scale", "smoke"][..],
        &["bench", "--seeds", "1..2"],
        &["bench", "--base", "HEAD"],
        &["bench", "--base", "HEAD", "--seeds", "2..1"],
        &["bench", "--base", "HEAD", "--seeds", "1..2", "--label", "a/b"],
        &["bench", "--base", "HEAD", "--seeds", "1..2", "--out", "/nonexistent/dir"],
    ] {
        let (out, status) = run(argv);
        assert_eq!(status, Status::UsageError, "{argv:?}: {out}");
        assert!(out.starts_with("bench: "), "{out}");
    }
}

/// Draws a string over `alphabet` from indices.
fn text(alphabet: &'static [&'static str], len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..alphabet.len(), 0..len)
        .prop_map(move |ix| ix.iter().map(|&i| alphabet[i]).collect())
}

/// Seed-range tokens: digits, separators, signs, `u64::MAX` and one past it.
const SEED_TOKENS: &[&str] =
    &["0", "1", "9", "..", ".", "-", "+", " ", "18446744073709551615", "18446744073709551616", "x"];

proptest! {
    #[test]
    fn seed_parsing_never_panics(s in text(SEED_TOKENS, 8)) {
        if let Ok(r) = parse_seeds(&s) {
            prop_assert!(r.start() <= r.end());
            prop_assert_eq!(parse_seeds(&format!("{}..{}", r.start(), r.end())), Ok(r));
        }
    }

    #[test]
    fn workload_parsing_never_panics(s in text(&["converge", "exact", ",", " ", "x", "é"], 8)) {
        let known: Vec<String> = ["converge", "exact"].map(String::from).to_vec();
        if let Ok(ws) = parse_workloads(&s, &known) {
            prop_assert!(!ws.is_empty() && ws.iter().all(|w| known.contains(w)));
        }
    }
}
