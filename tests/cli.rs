//! The `antmoc` runner's contract: a gated case passes and leaves its
//! report, a case outside its band fails and names the band, and flags the
//! runner does not know, inputs that are not case files, and a flux-ratio
//! gate on a decomposed run are refused.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name)
}

/// A fresh, empty working directory for one run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("antmoc-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn antmoc(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_antmoc"))
        .args(args)
        .current_dir(dir)
        .env("ANTMOC_NUM_THREADS", "1")
        .env_remove("ANTMOC_UPDATE_GOLDEN")
        .env_remove("GITHUB_STEP_SUMMARY")
        .output()
        .expect("spawn antmoc")
}

#[test]
fn cases_pass_or_fail_on_their_gates() {
    let case = std::fs::read_to_string(repo_file("cases/pin_cell.toml")).unwrap();

    let dir = scratch_dir("in-band");
    std::fs::write(dir.join("pin_cell.toml"), &case).unwrap();
    let out = antmoc(&dir, &["pin_cell.toml"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("results/pin_cell_report.json").is_file());
    std::fs::remove_dir_all(&dir).unwrap();

    // The same case with a band that excludes its k_eff (0.4324).
    let banded = case.replace("keff = [0.38, 0.48]", "keff = [0.5, 0.6]");
    assert_ne!(banded, case, "the shipped band moved; update the replacement");
    let dir = scratch_dir("out-of-band");
    std::fs::write(dir.join("pin_cell.toml"), banded).unwrap();
    let out = antmoc(&dir, &["pin_cell.toml"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "out-of-band k_eff passed");
    assert!(stderr.contains("[0.5, 0.6]"), "stderr does not name the band: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flags_are_refused() {
    let dir = scratch_dir("flags");
    let case = repo_file("cases/pin_cell.toml");
    let case = case.to_str().unwrap();
    for args in [vec!["--config", case], vec![case, "--write-baseline"], vec![]] {
        let out = antmoc(&dir, &args);
        assert_eq!(out.status.code(), Some(1), "{args:?} was not refused");
    }
    assert!(!dir.join("results").exists(), "a refused run wrote output");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ini_configs_are_refused() {
    // An INI-style run config is not a case file: the case parser
    // rejects it at its first line that is not TOML.
    let dir = scratch_dir("ini");
    let ini = "[tracks]\nnum_azim = 4      ; azimuthal angles\n[solver]\nmode = otf\n";
    std::fs::write(dir.join("quick.ini"), ini).unwrap();
    let out = antmoc(&dir, &["quick.ini"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "an INI config was not refused: {stderr}");
    assert!(stderr.contains("quick.ini: case file line 2 (toml)"), "{stderr}");
    assert!(!dir.join("results").exists(), "a refused run wrote output");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn decomposed_flux_ratio_gates_are_refused() {
    // A decomposed run tallies no per-material flux, so the runner
    // refuses a flux-ratio gate on it before solving anything.
    let case = std::fs::read_to_string(repo_file("cases/assembly_17x17.toml")).unwrap();
    let gate = "keff = [1.05, 1.15]\n\
                flux_ratio = { from = \"UO2\", to = \"moderator\", group = 1, min = 0.01, max = 100.0 }";
    let gated = case.replace("keff = [1.05, 1.15]", gate);
    assert_ne!(gated, case, "the shipped band moved; update the replacement");
    let dir = scratch_dir("decomposed-flux-ratio");
    std::fs::write(dir.join("assembly.toml"), format!("{gated}\n[decomposition]\nnx = 2\n"))
        .unwrap();
    let out = antmoc(&dir, &["assembly.toml"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a decomposed flux-ratio gate was not refused");
    assert!(stderr.contains("[decomposition]") && stderr.contains("flux_ratio"), "{stderr}");
    assert!(!dir.join("results").exists(), "a refused run wrote output");
    std::fs::remove_dir_all(&dir).unwrap();
}
