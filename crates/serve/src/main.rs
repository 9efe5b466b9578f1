//! The `operon_serve` daemon binary.
//!
//! ```text
//! operon_serve [--threads N|auto] [--batch N] [--record FILE]
//!              [--replay FILE] [--run-report FILE]
//! ```
//!
//! Serves the JSONL routing protocol (see `operon_serve`'s library
//! docs) on stdin/stdout. `--batch` caps how many distinct-session
//! requests are routed concurrently per admission batch (default: one
//! per worker). `--record` appends every request line to a trace file;
//! `--replay` runs a recorded trace instead of stdin and prints its
//! responses — byte-identical at any `--threads` value. `--run-report`
//! writes the executor's per-stage instrumentation (the only place
//! timing appears).

use operon_exec::Executor;
use operon_serve::Server;
use std::io::{BufReader, Write as _};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: operon_serve [--threads N|auto] [--batch N] [--record FILE] [--replay FILE] \
         [--run-report FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 0usize; // 0 = one worker per hardware thread
    let mut batch = 0usize; // 0 = one request slot per worker
    let mut record_path: Option<String> = None;
    let mut replay_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                let parsed = args.get(i + 1).and_then(|s| {
                    if s == "auto" {
                        Some(0)
                    } else {
                        s.parse::<usize>().ok()
                    }
                });
                let Some(n) = parsed else {
                    return usage();
                };
                threads = n;
                i += 2;
            }
            "--batch" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    return usage();
                };
                batch = n;
                i += 2;
            }
            "--record" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                record_path = Some(path.clone());
                i += 2;
            }
            "--replay" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                replay_path = Some(path.clone());
                i += 2;
            }
            "--run-report" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                report_path = Some(path.clone());
                i += 2;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }

    let exec = Executor::new(threads);
    let mut server = Server::new(exec.clone(), batch);

    if let Some(path) = &replay_path {
        let trace = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // A reader that closes the pipe early (`... | head`) only stops
        // the output; the run report below is still written.
        let mut out = std::io::stdout().lock();
        let written = out
            .write_all(server.run_trace(&trace).as_bytes())
            .and_then(|()| out.flush());
        if let Err(e) = written {
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("cannot write to stdout: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut record_file = match record_path
            .as_ref()
            .map(|path| {
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))
            })
            .transpose()
        {
            Ok(file) => file,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let stdin = std::io::stdin();
        let mut reader = BufReader::new(stdin.lock());
        let stdout = std::io::stdout();
        let mut writer = stdout.lock();
        let record = record_file.as_mut().map(|f| f as &mut dyn std::io::Write);
        if let Err(e) = server.serve(&mut reader, &mut writer, record) {
            eprintln!("serve loop failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = report_path {
        let json = exec.report().to_json();
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("run report written to {path}");
    }
    ExitCode::SUCCESS
}
