//! The benchmark must outlive the simulator's host-side machinery: its
//! sources name none of the items the engine's speculation, sharding and
//! accelerator toggles consist of, so deleting them never requires an
//! edit here. It also refuses to run when the environment changes what
//! is measured.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Each banned word, split so this file does not contain it.
const BANNED: [[&str; 2]; 11] = [
    ["Sim", "Tuning"],
    ["sim_", "threads"],
    ["TMI_SIM", "_THREADS"],
    ["Host", "Phases"],
    ["Par", "Stats"],
    ["speculation", "_allowed"],
    ["enable_host", "_profile"],
    ["Calendar", "Queue"],
    ["sim.", "par."],
    ["_tun", "ed"],
    ["Fast", "Path"],
];

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                sources(&path, out);
            }
        } else if name != "Cargo.lock" {
            out.push(path);
        }
    }
}

#[test]
fn sources_name_no_deletable_engine_machinery() {
    let mut files = Vec::new();
    sources(Path::new(env!("CARGO_MANIFEST_DIR")), &mut files);
    assert!(files.iter().any(|f| f.ends_with("src/traced.rs")));
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for parts in BANNED {
            let word = parts.concat();
            assert!(!text.contains(&word), "{} names {word}", file.display());
        }
    }
}

#[test]
fn refuses_to_run_with_a_simulator_knob_set() {
    for var in ["TMI_FASTPATH", "TMI_BENCH_JOBS"] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                "repair_4t",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .env(var, "1")
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(out.stdout.is_empty(), "printed a result with {var} set");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("refusing") && err.contains(var), "{err}");
    }
}
