//! The MAGNETO benchmark: one command runs a workload through the public
//! APIs of `EdgeDevice` and `Fleet`, checks the outputs, and prints
//! every metric by name and unit. See `README.md` for the workloads and
//! metrics.
//!
//! ```text
//! perfbench --workload <device_stream|fleet_hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is the result object; the line before it is the
//! run record.

mod device;
mod fleet;
mod inputs;
mod layers;
mod report;
mod stats;

use magneto_tensor::{install_global, pool, Backend, Exec, KernelPlan};
use report::{cwd_fs_type, git_revision, result_line, Record};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <device_stream|fleet_hot> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let number = |name: &str| -> Result<u64, String> {
        value(name)?
            .parse()
            .map_err(|_| format!("{name} takes a whole number"))
    };
    let args = Args {
        workload: value("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    };
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds takes 1 to 60".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !matches!(args.workload.as_str(), "device_stream" | "fleet_hot") {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    // The default plan with one compute thread. In `fleet_hot` one
    // worker plus the generator already fill two threads; on the
    // device a pool helper would fork/join on every training GEMM.
    install_global(Exec::from_plan(KernelPlan::host_default().with_threads(1)));

    let mut record = Record::default();
    record.put("workload", &args.workload);
    record.put("seed", args.seed);
    record.put("seconds", args.seconds);
    record.put("trace", u8::from(args.trace));
    record.put("plan", pool::global_plan().describe());
    record.put("isa", Backend::isa_summary());
    record.put(
        "nproc",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    record.put("rustflags", env!("PERFBENCH_RUSTFLAGS"));
    record.put("git_revision", git_revision());
    record.put("cwd_fs", cwd_fs_type());
    record.put("cloud_trainer", format!("{:?}", inputs::cloud_trainer()));

    let outcome = if args.workload == "device_stream" {
        device::run(args.seed, args.seconds, args.trace, &mut record)
    } else {
        fleet::run(args.seed, args.seconds, args.trace, &mut record)
    };
    if args.trace {
        let not_run = if args.workload == "device_stream" {
            "spool.*, delta.*, fleet.* (residual_us is push_frames minus DSP, embed and NCM), gen.*, heal.*, setup.register_s"
        } else {
            "update.*"
        };
        record.put("zero_because_not_run", not_run);
        record.put(
            "computed",
            "embed.macs_per_window and embed.weight_bytes are computed from dims() and resident_bytes(), not measured",
        );
    }
    for v in outcome.violations.iter().take(20) {
        eprintln!("perfbench: violation: {v}");
    }
    println!("{}", record.line());
    println!("{}", result_line(&outcome));
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
