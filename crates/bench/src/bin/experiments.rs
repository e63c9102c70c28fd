//! The `experiments` binary: runs the registered experiments (E1–E25; E18 and
//! E23 are retired) and prints their tables. Each experiment asserts its
//! own claims, so a broken claim exits non-zero.
//!
//! ```sh
//! cargo run --release -p lap-bench --bin experiments             # all, text
//! cargo run --release -p lap-bench --bin experiments -- e2 e11  # subset
//! cargo run --release -p lap-bench --bin experiments -- --markdown
//! cargo run --release -p lap-bench --bin experiments -- --json=tables.json
//! ```
//!
//! An unknown id or flag prints the usage to stderr and exits 2.

use lap_bench::runner::EXPERIMENTS;
use lap_bench::tables::tables_to_json;

/// What the command line asked for.
#[derive(Debug, Default, PartialEq)]
struct Args {
    markdown: bool,
    json: Option<String>,
    /// Registered ids to run, lowercase; empty means all of them.
    ids: Vec<&'static str>,
}

/// Parses the arguments; `Err` names the first one that is not a flag or
/// a registered id.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    for arg in args {
        if arg == "--markdown" {
            parsed.markdown = true;
        } else if let Some(path) = arg.strip_prefix("--json=").filter(|p| !p.is_empty()) {
            parsed.json = Some(path.to_owned());
        } else if let Some(&(id, _)) = EXPERIMENTS
            .iter()
            .find(|(id, _)| id.eq_ignore_ascii_case(arg))
        {
            parsed.ids.push(id);
        } else {
            return Err(arg.clone());
        }
    }
    Ok(parsed)
}

fn usage() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    format!(
        "usage: experiments [--markdown] [--json=<path>] [id ...]\n  ids: {}",
        ids.join(" ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|bad| {
        eprintln!("experiments: unknown argument `{bad}`\n{}", usage());
        std::process::exit(2);
    });

    let mut rendered = Vec::new();
    for &(id, run) in EXPERIMENTS {
        if !args.ids.is_empty() && !args.ids.contains(&id) {
            continue;
        }
        let table = run();
        if args.markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{table}");
        }
        rendered.push((id, table));
    }

    if let Some(path) = args.json {
        let doc = format!("{}\n", tables_to_json(&rendered).to_pretty());
        match std::fs::write(&path, doc) {
            Ok(()) => eprintln!("wrote {} table(s) to {path}", rendered.len()),
            Err(e) => {
                eprintln!("experiments: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn ids_are_case_insensitive_and_flags_parse() {
        assert_eq!(
            parse(&["E1", "e25", "--markdown", "--json=out.json"]),
            Ok(Args {
                markdown: true,
                json: Some("out.json".into()),
                ids: vec!["e1", "e25"]
            })
        );
        assert_eq!(parse(&[]), Ok(Args::default()));
    }

    #[test]
    fn unknown_ids_and_flags_are_refused() {
        for bad in ["e26", "e18", "--jsn", "--json", "--json=", "markdown"] {
            assert_eq!(parse(&["e1", bad]), Err(bad.to_owned()), "{bad}");
        }
        let usage = usage();
        assert!(
            usage.contains("e1 e2 ") && usage.ends_with("e24 e25"),
            "{usage}"
        );
    }
}
