//! The stamp every result carries: which source, built how, run where.

use std::path::Path;
use std::process::Command;

use clk_obs::Value;

/// Provenance of one benchmark run, rendered as a JSON object.
pub fn stamp(workload: &str, seed: u64, workers: usize) -> Value {
    let (rev, dirty) = git_head();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Value::Obj(vec![
        ("git_rev".to_string(), Value::from(rev)),
        (
            "git_dirty".to_string(),
            dirty.map_or(Value::Null, Value::Bool),
        ),
        ("source_digest".to_string(), Value::from(source_digest())),
        ("nproc".to_string(), Value::from(nproc)),
        ("local_workers".to_string(), Value::from(workers)),
        ("workload".to_string(), Value::from(workload)),
        ("seed".to_string(), Value::from(seed)),
        ("rustc".to_string(), Value::from(env!("CLOCKBENCH_RUSTC"))),
        (
            "profile".to_string(),
            Value::from(env!("CLOCKBENCH_PROFILE")),
        ),
    ])
}

/// `HEAD` and whether tracked files differ from it, when the working
/// directory is the root of a git checkout; `("unknown", None)` otherwise
/// (git is not asked, so it cannot answer for an enclosing repository).
fn git_head() -> (String, Option<bool>) {
    if !Path::new(".git").exists() {
        return ("unknown".to_string(), None);
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty =
                git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
            (rev.trim().to_string(), dirty)
        }
        None => ("unknown".to_string(), None),
    }
}

/// FNV-1a digest of the flow's sources (`Cargo.lock`, `src/`, `crates/`),
/// which identifies the code even where there is no git history.
fn source_digest() -> String {
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    for root in ["src", "crates"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
