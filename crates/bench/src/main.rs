//! `fig` — the one executable of the figure suite: `fig <figure> [flags]`
//! runs an entry of [`FIGURES`]; `fig --help` lists the other commands. An
//! unknown or missing command is refused like any other operator mistake:
//! `error: …`, the usage and the figure list on stderr, exit 2.

use dm_bench::figures::{help, usage_error, FIGURES};
use dm_bench::table::print_stdout;
use dm_bench::HarnessOpts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_stdout("the help", &help());
        return;
    }
    let Some((command, rest)) = args.split_first() else {
        usage_error("no command given")
    };
    match command.as_str() {
        "--list" => {
            let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            print_stdout("the figure list", &names.join("\n"));
        }
        "merge" => dm_bench::merge::run(rest),
        "trajectory" => dm_bench::trajectory::run(rest),
        name => {
            let Some(figure) = FIGURES.iter().find(|f| f.name == name) else {
                usage_error(&format!("unknown command {name}"))
            };
            let (opts, flags) =
                HarnessOpts::parse_from(rest, figure.flags).unwrap_or_else(|e| usage_error(&e));
            (figure.run)(&opts, &flags);
        }
    }
}
