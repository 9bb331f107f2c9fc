//! `rpol` — command-line interface to the RPoL reproduction.
//!
//! ```text
//! rpol pool        run a mining pool with a configurable adversary mix
//! rpol serve       run the manager as a socket server
//! rpol worker      run one worker client against a remote manager
//! rpol status      probe a running manager's live introspection plane
//! rpol stitch      merge per-process JSONL traces into one timeline
//! rpol overhead    print the Table II/III analytic overhead model
//! rpol trace-check validate a --trace-out JSONL trace
//! ```
//!
//! Run `rpol help` or `rpol <command> --help` for options.

use rpol_cli::commands;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    let rest = &argv[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        commands::print_command_help(command);
        return ExitCode::SUCCESS;
    }
    let result = match command.as_str() {
        "pool" => commands::pool(rest),
        "serve" => commands::serve(rest),
        "worker" => commands::worker(rest),
        "status" => commands::status(rest),
        "stitch" => commands::stitch(rest),
        "overhead" => commands::overhead(rest),
        "trace-check" => commands::trace_check(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "rpol — robust & efficient proof of learning (ICDCS 2023 reproduction)\n\
         \n\
         usage: rpol <command> [options]\n\
         \n\
         commands:\n\
         \x20 pool        run a mining pool with a configurable adversary mix\n\
         \x20 serve       run the manager as a socket server\n\
         \x20 worker      run one worker client against a remote manager\n\
         \x20 status      probe a running manager's live introspection plane\n\
         \x20 stitch      merge per-process JSONL traces into one timeline\n\
         \x20 overhead    print the Table II/III analytic overhead model\n\
         \x20 trace-check validate a --trace-out JSONL trace\n\
         \x20 help        show this message\n\
         \n\
         run `rpol <command> --help` for the command's options"
    );
}
