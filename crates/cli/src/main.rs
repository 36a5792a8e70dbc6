//! Binary entry point: argument handling, stdin/stdout wiring.

use std::io::{IsTerminal, Write};
use std::process::ExitCode;

use gtpq_cli::{repl, run_once, CliOptions, Session, USAGE};

fn main() -> ExitCode {
    let opts = match CliOptions::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut session = match Session::new(&opts) {
        Ok(session) => session,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let stdout = std::io::stdout();
    match &opts.query {
        Some(query) => match run_once(&mut session, query, stdout.lock()) {
            Ok(Ok(())) => {
                if let Some(path) = &opts.trace_out {
                    match session.save_trace(path) {
                        Ok(line) => println!("{line}"),
                        Err(message) => {
                            eprintln!("error: {message}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                ExitCode::SUCCESS
            }
            Ok(Err(diagnostic)) => {
                eprintln!("{diagnostic}");
                ExitCode::FAILURE
            }
            Err(io) => {
                eprintln!("error: {io}");
                ExitCode::FAILURE
            }
        },
        None => {
            let stdin = std::io::stdin();
            let interactive = stdin.is_terminal();
            match repl(&mut session, stdin.lock(), stdout.lock(), interactive) {
                Ok(()) => {
                    let mut out = stdout.lock();
                    if interactive {
                        let _ = writeln!(out);
                    }
                    ExitCode::SUCCESS
                }
                Err(io) => {
                    eprintln!("error: {io}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
