//! `perfbench`: the SPB-tree workspace's end-to-end and per-layer
//! benchmark. See README.md in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). Every metric, raw
//! times included, also goes to `out/<workload>-seed<n>-trace<t>.json`
//! and, for traced runs, the spans to `out/<workload>-seed<n>-spans.jsonl`.
//! The exit code is 0 only if every answer matched the oracle.

mod data;
mod hostspeed;
mod oracle;
mod report;
mod run;
mod target;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use report::num;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let names: Vec<&str> = run::workloads().iter().map(|w| w.name).collect();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", names.join("|"));
            return ExitCode::from(2);
        }
    };
    let Some(w) = run::workloads()
        .into_iter()
        .find(|w| w.name == args.workload)
    else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out.join(format!("work-{}", std::process::id()));
    let result = run::run(&w, args.seed, args.seconds, args.trace, &work);
    let _ = std::fs::remove_dir_all(&work);
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return ExitCode::from(1);
        }
    };

    let stem = format!("{}-seed{}", w.name, args.seed);
    let report = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.attempted,
        o.failed,
        o.metrics.json_all()
    );
    let written = std::fs::write(
        out.join(format!("{stem}-trace{}.json", u8::from(args.trace))),
        report,
    )
    .and_then(|()| {
        if args.trace {
            o.tracer.write(&out.join(format!("{stem}-spans.jsonl")))
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: writing the report: {e}");
    }
    for (name, value, unit) in &o.metrics.0 {
        eprintln!("{:>28} {:>14} {unit}", name, num(*value));
    }

    let wanted: &[&str] = if args.trace {
        &run::PER_LAYER
    } else {
        &run::END_TO_END
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        o.metrics.json(wanted)
    );
    if o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
