//! The environment a result was measured in, and where records go.

use std::path::{Path, PathBuf};
use std::process::Command;

use osn_serde::Value;

use crate::Args;

/// Directory, relative to the checkout root, that records and traces are
/// written to.
const OUT_DIR: &str = "perfbench/out";

/// Commit, processor count, cache sizes and compiler of this run.
pub fn record() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("git_commit", Value::Str(git_commit())),
        ("nproc", Value::Uint(nproc as u64)),
        ("l2_bytes", Value::Uint(cache_bytes(2))),
        ("l3_bytes", Value::Uint(cache_bytes(3))),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".into())
}

/// `git rev-parse HEAD`, or `unavailable` outside a repository.
fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// Size of the unified or data cache at `level` of cpu0, bytes (0 when
/// the kernel does not say).
fn cache_bytes(level: u32) -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |p: PathBuf| std::fs::read_to_string(p).unwrap_or_default();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        if read(dir.join("level")).trim() != level.to_string()
            || read(dir.join("type")).trim() == "Instruction"
        {
            continue;
        }
        let size = read(dir.join("size"));
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (size, 1),
            },
        };
        if let Ok(n) = digits.parse::<u64>() {
            return n * scale;
        }
    }
    0
}

/// Write `record` (and a traced run's spans) under [`OUT_DIR`].
pub fn write_record(args: &Args, record: &Value, trace: Option<&Value>) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        Path::new(OUT_DIR).join(format!("{stem}.json")),
        record.to_pretty(),
    )?;
    if let Some(doc) = trace {
        std::fs::write(
            Path::new(OUT_DIR).join(format!("{stem}.spans.json")),
            doc.to_compact(),
        )?;
    }
    Ok(())
}
