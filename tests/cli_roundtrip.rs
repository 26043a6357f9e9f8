//! End-to-end tests of the `xknn` binary: real process, real files, parsing
//! the human-readable output. Exercises the full stack the way a downstream
//! user would.

use std::io::Write;
use std::process::Command;

fn xknn(args: &[&str]) -> (String, String, bool) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_xknn")).args(args).output().expect("xknn binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xknn-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const BOOL: &str = "+ 1 1 1 0 0\n+ 1 1 0 0 0\n+ 1 0 1 0 0\n- 0 0 0 1 1\n- 0 0 1 1 1\n- 0 1 0 1 1\n";
const CONT: &str = "+ 2.0 2.0\n+ 3.0 1.5\n- -1.0 -1.0\n- 0.0 -2.0\n";

#[test]
fn usage_on_no_args() {
    let (stdout, _, ok) = xknn(&[]);
    assert!(ok);
    assert!(stdout.contains("usage"));
}

#[test]
fn classify_hamming_k3() {
    let data = write_temp("bool.txt", BOOL);
    let (stdout, _, ok) = xknn(&[
        "classify",
        "--data",
        data.to_str().unwrap(),
        "--point",
        "1,1,0,1,0",
        "--metric",
        "hamming",
        "--k",
        "3",
    ]);
    assert!(ok);
    assert!(stdout.contains("label: +"), "{stdout}");
}

#[test]
fn minimal_sr_is_then_accepted_by_check_sr() {
    let data = write_temp("bool2.txt", BOOL);
    let d = data.to_str().unwrap();
    let (stdout, _, ok) =
        xknn(&["minimal-sr", "--data", d, "--point", "1,1,0,1,0", "--metric", "hamming"]);
    assert!(ok);
    // Output shape: "sufficient reason (m of n features): [i, j, ...]"
    let inside = stdout.split('[').nth(1).unwrap().split(']').next().unwrap();
    let features = inside.replace(' ', "");
    let (stdout, _, ok) = xknn(&[
        "check-sr",
        "--data",
        d,
        "--point",
        "1,1,0,1,0",
        "--metric",
        "hamming",
        "--features",
        &features,
    ]);
    assert!(ok);
    assert!(stdout.contains("sufficient: yes"), "{stdout}");
}

#[test]
fn l2_counterfactual_proven_optimal() {
    let data = write_temp("cont.txt", CONT);
    let (stdout, _, ok) =
        xknn(&["counterfactual", "--data", data.to_str().unwrap(), "--point", "1.5,1.0"]);
    assert!(ok);
    assert!(stdout.contains("proven optimal"), "{stdout}");
}

#[test]
fn lp3_counterfactual_reports_heuristic() {
    let data = write_temp("cont2.txt", CONT);
    let (stdout, _, ok) = xknn(&[
        "counterfactual",
        "--data",
        data.to_str().unwrap(),
        "--point",
        "1.5,1.0",
        "--metric",
        "lp:3",
    ]);
    assert!(ok);
    assert!(stdout.contains("heuristic upper bound"), "{stdout}");
}

#[test]
fn tractability_boundary_refused_with_explanation() {
    let data = write_temp("cont3.txt", CONT);
    let (_, stderr, ok) = xknn(&[
        "minimal-sr",
        "--data",
        data.to_str().unwrap(),
        "--point",
        "1.5,1.0",
        "--metric",
        "l1",
        "--k",
        "3",
    ]);
    assert!(!ok);
    assert!(stderr.contains("k = 1"), "{stderr}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let data = write_temp("cont4.txt", CONT);
    let d = data.to_str().unwrap();
    // Even k.
    assert!(!xknn(&["classify", "--data", d, "--point", "1,1", "--k", "2"]).2);
    // Wrong dimension.
    assert!(!xknn(&["classify", "--data", d, "--point", "1,1,1"]).2);
    // Missing file.
    assert!(!xknn(&["classify", "--data", "/nonexistent.txt", "--point", "1,1"]).2);
    // Hamming on non-binary data.
    assert!(!xknn(&["classify", "--data", d, "--point", "1,1", "--metric", "hamming"]).2);
    // Unknown command.
    assert!(!xknn(&["explain-everything", "--data", d, "--point", "1,1"]).2);
}

/// `xknn router` refuses any flag outside its usage list before binding or
/// spawning anything: a removed option (`--affinity`, `--spread`) or a typo
/// (`--replica`) must not run silently with different behaviour.
#[test]
fn router_refuses_unknown_flags() {
    for bad in [["--affinity", "off"], ["--spread", "1"], ["--replica", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_xknn"))
            .args(["router", "--addr", "127.0.0.1:0", "--spawn", "1", bad[0], bad[1]])
            .output()
            .expect("xknn binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains(&format!("`{}`", bad[0])), "{bad:?} not named: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} must fail before listening");
    }
}

/// `xknn batch` refuses a misspelled flag too: `--cahce 0` must not run
/// with the cache on and exit 0.
#[test]
fn batch_refuses_unknown_flags() {
    let root = env!("CARGO_MANIFEST_DIR");
    let data = format!("{root}/data/demo_boolean.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_xknn"))
        .args(["batch", "--data", &data, "--workers", "2", "--cahce", "0"])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("xknn binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("`--cahce`"), "flag not named: {stderr}");
    assert!(out.stdout.is_empty(), "must fail before serving");
}

/// `xknn serve` and `xknn client` refuse a misspelled flag the same way,
/// before binding or connecting: the server would print its `listening`
/// banner, and nothing listens on port 1 for the client.
#[test]
fn serve_and_client_refuse_unknown_flags() {
    for args in [["serve", "--addr", "127.0.0.1:0"], ["client", "--addr", "127.0.0.1:1"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_xknn"))
            .args(args)
            .args(["--cahce", "0"])
            .stdin(std::process::Stdio::null())
            .output()
            .expect("xknn binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("`--cahce`"), "{args:?}: flag not named: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before binding or connecting");
    }
}

#[test]
fn repo_demo_files_work() {
    // The checked-in demo datasets under data/ must stay valid.
    let root = env!("CARGO_MANIFEST_DIR");
    let (stdout, _, ok) = xknn(&[
        "minimum-sr",
        "--data",
        &format!("{root}/data/demo_boolean.txt"),
        "--point",
        "1,1,0,1,0",
        "--metric",
        "hamming",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("sufficient reason"));
}
