//! The output header: where and on what the numbers were taken.
//! Information, not metrics.

use crate::served::CONNECTIONS;
use crate::setup::Env;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Filesystem type of the mount that holds `path`.
fn filesystem_of(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
}

/// Lines of `file` before its test module.
fn non_test_lines(file: &Path) -> usize {
    std::fs::read_to_string(file).map_or(0, |text| {
        text.lines()
            .take_while(|line| line.trim() != "#[cfg(test)]")
            .count()
    })
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Non-test source lines per library crate (the ROADMAP's tracked
/// simplicity number), when the run can see the repository.
fn crate_lines() -> Vec<(String, usize)> {
    let Some(crates) = ["crates", "../crates"]
        .iter()
        .map(Path::new)
        .find(|p| p.is_dir())
    else {
        return Vec::new();
    };
    let mut names: Vec<PathBuf> = std::fs::read_dir(crates)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    names.sort();
    names
        .into_iter()
        .filter(|p| p.is_dir())
        .map(|p| {
            let mut files = Vec::new();
            rust_files(&p.join("src"), &mut files);
            let name = p
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            (name, files.iter().map(|f| non_test_lines(f)).sum())
        })
        .collect()
}

pub fn lines(env: &Env, quick: bool) -> String {
    let unknown = || "unknown".to_string();
    let mut out = String::new();
    let mut put = |key: &str, value: String| {
        writeln!(out, "info {key} {value}").expect("string write");
    };
    put(
        "commit",
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
    );
    put(
        "rustc",
        command_line("rustc", &["-V"]).unwrap_or_else(unknown),
    );
    put(
        "nproc",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    put("clients", CONNECTIONS.to_string());
    put("kernel", rtree_geom::active_kernel().name().to_string());
    put(
        "page_format",
        format!(
            "v4: SoA f64 leaves of {} entries, packed 16-bit internal pages of {}",
            env.meta.max_entries, env.meta.internal_max_entries
        ),
    );
    put("scale", if quick { "quick" } else { "full" }.to_string());
    put("items", env.meta.items.to_string());
    put("pages", env.pages().to_string());
    put("height", env.meta.height.to_string());
    put("dir", env.dir.display().to_string());
    put(
        "filesystem",
        filesystem_of(&env.dir).unwrap_or_else(unknown),
    );
    for (name, count) in crate_lines() {
        put(&format!("lines.{name}"), count.to_string());
    }
    out
}
