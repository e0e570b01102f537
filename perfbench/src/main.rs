//! casa-perfbench — the CASA pipeline's layered performance benchmark.
//!
//! Three seeded workloads, each putting a different layer on the
//! critical path: `flow_sim` (whole fig. 3 flows: simulation),
//! `solve_hard` (CASA branch & bound on hard conflict graphs) and
//! `serve_mix` (`casa-server` under two closed-loop clients).
//!
//! Usage: `casa-perfbench --workload <name> --seed <n> --seconds <s>
//!         --trace <0|1> --state-dir <dir> [--server-bin <path>]`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics for `--trace 0`, the per-layer ones for `--trace 1`. See
//! `README.md` in this directory.

mod flow_sim;
mod golden;
mod host;
mod inputs;
mod ledger;
mod report;
mod serve_mix;
mod solve_hard;
mod spans;
mod stats;

use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Where the determinism ledger and span traces go.
    pub state_dir: PathBuf,
    /// The `casa-server` executable (`serve_mix` only).
    pub server_bin: Option<PathBuf>,
    /// Digest of the executables under test; part of every ledger key.
    pub code_id: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let num = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or(format!("{flag} is required"))?
            .parse()
            .map_err(|_| format!("{flag} takes a non-negative integer"))
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let seed = num(get("--seed"), "--seed")?;
    let seconds = num(get("--seconds"), "--seconds")?;
    let traced = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let state_dir = PathBuf::from(get("--state-dir").ok_or("--state-dir is required")?);
    let server_bin = get("--server-bin").map(PathBuf::from);
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        traced,
        state_dir,
        server_bin,
        code_id: String::new(),
    })
}

/// Write the traced run's spans as Chrome `trace_event` JSON under the
/// state directory.
pub fn write_trace(args: &Args, spans: &[&spans::Spans]) {
    let path = args
        .state_dir
        .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.state_dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_json(spans)));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("casa-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let exe = std::env::current_exe().unwrap_or_default();
    let bins: Vec<&std::path::Path> = std::iter::once(exe.as_path())
        .chain(args.server_bin.as_deref())
        .collect();
    args.code_id = match ledger::code_id(&bins) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("casa-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let out = match args.workload.as_str() {
        "flow_sim" => flow_sim::run(&args),
        "solve_hard" => solve_hard::run(&args),
        "serve_mix" => match serve_mix::run(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("casa-perfbench: serve_mix: {e}");
                std::process::exit(1);
            }
        },
        other => {
            eprintln!(
                "casa-perfbench: unknown workload {other:?} (flow_sim, solve_hard, serve_mix)"
            );
            std::process::exit(2);
        }
    };
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", out.result_json(args.traced));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload flow_sim --seed 4 --seconds 10 --trace 1 --state-dir st",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("flow_sim", 4, 10, true)
        );
        assert!(parse_args(&argv(
            "--workload flow_sim --seed x --seconds 1 --state-dir s"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload flow_sim --seed 1 --seconds 1 --trace 2 --state-dir s"
        ))
        .is_err());
    }
}
