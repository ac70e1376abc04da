//! Where and how a BENCH artifact was measured: host CPU, cores,
//! compiler, source revision and build profile. Hosts differ by ~2x, so a
//! number without this block cannot be compared with another.

use std::path::Path;

/// The provenance record as one JSON object.
pub fn json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"cpu\": \"{}\", \"cores\": {cores}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"profile\": \"{}\"}}",
        escape(&cpu_model()),
        escape(env!("INTANG_BUILD_RUSTC")),
        escape(&git_rev()),
        escape(env!("INTANG_BUILD_PROFILE")),
    )
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the sources were built from, read from the repository's
/// `.git` directory; "unknown" outside a git checkout. A dirty working
/// tree is not detected.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs")).and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn provenance_names_every_field() {
        let p = super::json();
        for field in ["\"cpu\": ", "\"cores\": ", "\"rustc\": \"rustc ", "\"git_rev\": ", "\"profile\": "] {
            assert!(p.contains(field), "{field} missing from {p}");
        }
    }
}
