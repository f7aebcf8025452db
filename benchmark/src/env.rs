//! The `env` block emitted with every result: what the numbers were
//! measured on.

use antmoc::telemetry::Json;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_owned())
}

fn cpu_model() -> String {
    read_trimmed("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `L1d 48K, L2 2048K, ...` of cpu0, from sysfs.
fn cache_sizes() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(size)) =
            (read_trimmed(&format!("{dir}/level")), read_trimmed(&format!("{dir}/size")))
        else {
            continue;
        };
        let kind = match read_trimmed(&format!("{dir}/type")).as_deref() {
            Some("Data") => "d",
            Some("Instruction") => "i",
            _ => "",
        };
        out.push(format!("L{level}{kind} {size}"));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` in an exported tree.
fn commit() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else { return "unknown".into() };
    match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(&format!(".git/{reference}")).unwrap_or(head),
        None => head,
    }
}

pub fn block(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("nproc".into(), Json::Uint(nproc as u64)),
        ("cpu_model".into(), Json::Str(cpu_model())),
        ("caches".into(), Json::Str(cache_sizes())),
        ("rustc".into(), Json::Str(env!("BENCH_RUSTC_VERSION").into())),
        ("commit".into(), Json::Str(commit())),
        ("seed".into(), Json::Uint(seed)),
    ])
}
