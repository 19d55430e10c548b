//! Records the compiler that builds the benchmark, for the run record.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=GLIDER_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
