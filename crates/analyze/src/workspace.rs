//! Workspace traversal: find every `.rs` file worth analyzing.

use std::path::{Path, PathBuf};

use crate::{source_from_str, AnalyzeConfig, SourceFile};

/// Collects every `.rs` file under `root`, skipping the config's `skip`
/// prefixes, hidden directories and nested Cargo workspaces (any
/// subdirectory whose `Cargo.toml` declares `[workspace]`: Cargo draws
/// the same boundary, so no crate of this workspace can call into one).
/// Results are sorted by path so the analyzer's own output is
/// deterministic.
///
/// # Errors
///
/// Propagates errors from reading the root directory itself; deeper
/// unreadable directories or files are skipped (a permissions quirk
/// must not take the gate down).
pub fn collect_sources(root: &Path, cfg: &AnalyzeConfig) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, root, cfg, &mut paths)?;
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let Ok(src) = std::fs::read_to_string(&p) else {
            continue;
        };
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(source_from_str(&rel, &src));
    }
    Ok(out)
}

fn walk(
    root: &Path,
    dir: &Path,
    cfg: &AnalyzeConfig,
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if dir == root => return Err(e),
        Err(_) => return Ok(()),
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        if cfg
            .skip
            .iter()
            .any(|p| rel.starts_with(p.as_str()) || rel.starts_with(p.trim_end_matches('/')))
        {
            continue;
        }
        let Ok(ft) = entry.file_type() else { continue };
        if ft.is_dir() {
            if declares_workspace(&path.join("Cargo.toml")) {
                continue;
            }
            walk(root, &path, cfg, out)?;
        } else if ft.is_file() && name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether the manifest at `manifest` exists and has a `[workspace]`
/// table (or a `[workspace.*]` subtable).
fn declares_workspace(manifest: &Path) -> bool {
    std::fs::read_to_string(manifest).is_ok_and(|toml| {
        toml.lines().map(str::trim).any(|line| {
            line.strip_prefix("[workspace")
                .is_some_and(|rest| rest.starts_with(']') || rest.starts_with('.'))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_this_crate_sorted_and_skips_vendor() {
        // the crate's own source tree doubles as the fixture; resolve
        // the workspace root from the manifest dir
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let cfg = AnalyzeConfig::default();
        let files = collect_sources(root, &cfg).expect("walk");
        assert!(files.iter().any(|f| f.path == "crates/analyze/src/lib.rs"));
        assert!(files.iter().all(|f| !f.path.starts_with("vendor/")));
        assert!(files.iter().all(|f| !f.path.starts_with("target/")));
        let mut sorted: Vec<&str> = files.iter().map(|f| f.path.as_str()).collect();
        let original = sorted.clone();
        sorted.sort_unstable();
        assert_eq!(original, sorted, "collection order must be deterministic");
    }

    #[test]
    fn stops_at_nested_workspaces() {
        let root = std::env::temp_dir().join(format!(
            "clk-analyze-nested-ws-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let write = |rel: &str, body: &str| {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().expect("fixture path has a parent"))
                .expect("create fixture dir");
            std::fs::write(p, body).expect("write fixture file");
        };
        write("Cargo.toml", "[workspace]\nmembers = [\"member\"]\n");
        write("src/lib.rs", "fn a() {}\n");
        write("member/Cargo.toml", "[package]\nname = \"member\"\n");
        write("member/src/lib.rs", "fn b() {}\n");
        write(
            "nested/Cargo.toml",
            "[package]\nname = \"nested\"\n\n# standalone\n[workspace]\n",
        );
        write("nested/src/main.rs", "fn c() {}\n");
        write(
            "subtable/Cargo.toml",
            "[workspace.package]\nversion = \"0.1.0\"\n",
        );
        write("subtable/src/lib.rs", "fn d() {}\n");
        write("lookalike/Cargo.toml", "[workspaces]\n");
        write("lookalike/src/lib.rs", "fn e() {}\n");
        let files = collect_sources(&root, &AnalyzeConfig::default());
        std::fs::remove_dir_all(&root).expect("remove fixture");
        let paths: Vec<String> = files.expect("walk").into_iter().map(|f| f.path).collect();
        assert_eq!(
            paths,
            ["lookalike/src/lib.rs", "member/src/lib.rs", "src/lib.rs"]
        );
    }
}
