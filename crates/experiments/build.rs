//! Records the compiler version and build profile for the provenance
//! block the BENCH artifacts carry.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    let opt_level = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=INTANG_BUILD_RUSTC={version}");
    println!("cargo:rustc-env=INTANG_BUILD_PROFILE={profile} opt-level={opt_level}");
    println!("cargo:rerun-if-changed=build.rs");
}
