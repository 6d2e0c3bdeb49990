//! Captures the rustflags the benchmark was compiled with, so every run
//! record states them (Cargo exposes them to build scripts only).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTFLAGS={}",
        flags.replace('\u{1f}', " ")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
