//! Bakes the git revision into the daemon for the
//! `offtarget_build_info` metric, falling back to `unknown` when the
//! build happens outside a git checkout (a source tarball, a vendored
//! copy).

use std::path::Path;
use std::process::Command;

fn main() {
    let sha = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|raw| raw.trim().to_string())
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=OFFTARGET_GIT_SHA={sha}");
    // Recompile when the checked-out commit moves: `HEAD` changes on a
    // checkout, and the branch ref it names changes on a commit. Only
    // existing paths are watched — Cargo re-runs a build script whose
    // watched path is missing on every build, so outside a checkout the
    // script watches nothing but itself.
    let git = Path::new("../../.git");
    let head = git.join("HEAD");
    if head.is_file() {
        println!("cargo:rerun-if-changed={}", head.display());
        let named_ref = std::fs::read_to_string(&head)
            .ok()
            .and_then(|text| text.strip_prefix("ref:").map(|name| git.join(name.trim())));
        if let Some(branch) = named_ref.filter(|path| path.is_file()) {
            println!("cargo:rerun-if-changed={}", branch.display());
        }
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
}
