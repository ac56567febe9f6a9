//! The `freerider-lint` binary: walk the workspace, enforce the contract.
//!
//! ```text
//! freerider-lint --workspace [--root DIR] [--json FILE]
//! freerider-lint --list-rules
//! freerider-lint --help
//! ```
//!
//! Exit status: 0 when there are no findings, 1 when there are, 2 on
//! usage or I/O errors.

use freerider_lint::{report, run, walk};
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    list_rules: bool,
}

const USAGE: &str = "\
usage: freerider-lint --workspace [options]
       freerider-lint --list-rules
       freerider-lint --help

options:
  --workspace          analyze every .rs file of the enclosing workspace
  --root DIR           workspace root (default: walk up from the cwd)
  --json FILE          also write the machine-readable freerider-lint/3 report
  --list-rules         print the rule catalogue and exit
";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: None,
        json: None,
        list_rules: false,
    };
    while let Some(a) = argv.next() {
        let mut path_arg = |name: &str| -> Result<PathBuf, String> {
            argv.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => args.root = Some(path_arg("--root")?),
            "--json" => args.json = Some(path_arg("--json")?),
            "--list-rules" => args.list_rules = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.workspace && !args.list_rules {
        return Err("nothing to do: pass --workspace or --list-rules".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // `--help` anywhere wins over every other argument, valid or not.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        // A closed stdout has nobody left to read the usage.
        let _ = write!(io::stdout(), "{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("freerider-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        print!("{}", report::rule_catalogue());
        return ExitCode::SUCCESS;
    }
    match run_workspace(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("freerider-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_workspace(args: &Args) -> Result<bool, String> {
    let root = match &args.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            walk::find_root(&cwd)
                .ok_or("no enclosing workspace (no Cargo.toml with [workspace]); use --root")?
        }
    };
    let analysis = run(&root).map_err(|e| format!("analyzing {}: {e}", root.display()))?;
    if let Some(json_path) = &args.json {
        let doc = report::json(&root.display().to_string(), &analysis);
        std::fs::write(json_path, doc)
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    }
    print!("{}", report::text(&analysis));
    Ok(analysis.ok())
}
