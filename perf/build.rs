//! Records the compiler version, so results can name the toolchain.

use std::process::Command;

fn main() {
    // Without this, cargo reruns the script and rebuilds the package
    // whenever any file under `perf/` changes, such as a span trace in
    // `out/`.
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "rustc unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERF_RUSTC_VERSION={version}");
}
