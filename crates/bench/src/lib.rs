//! Shared harness for the `experiments` binary and the report bins:
//! the figure workloads, the simulator-to-figure-row bridge, the table
//! renderer and the repo's JSON reader.

#![forbid(unsafe_code)]

pub mod json;
pub mod rows;
pub mod table;
pub mod workload;

pub use rows::{pim_platform_rows, simulate_config, PimRows};
pub use workload::{figure_workload, paper_workload, Workload};

/// Parses the command line the report bins share — one optional
/// `switch` and `--out PATH` — into `(switch given, out path)`. Anything
/// else, or an `--out` without a value, is an error naming the argument:
/// each bin's default path is a committed baseline, so a typo must not
/// fall through to overwriting it.
pub fn parse_report_args(
    args: &[String],
    switch: &str,
    default_out: &str,
) -> Result<(bool, String), String> {
    let mut switched = false;
    let mut out_path = default_out.to_owned();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().ok_or("--out needs a value")?.clone(),
            flag if flag == switch => switched = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok((switched, out_path))
}

#[cfg(test)]
mod tests {
    use super::parse_report_args;

    fn parse(list: &[&str]) -> Result<(bool, String), String> {
        let args: Vec<String> = list.iter().map(|s| (*s).to_owned()).collect();
        parse_report_args(&args, "--pipelined", "BENCH_metrics.json")
    }

    #[test]
    fn unknown_flag_or_missing_value_is_a_usage_error() {
        assert_eq!(
            parse(&["--pipelined", "--out", "m.json"]),
            Ok((true, "m.json".to_owned()))
        );
        assert_eq!(parse(&[]), Ok((false, "BENCH_metrics.json".to_owned())));
        // A trailing `--out` used to mean "overwrite the baseline".
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--quick"]).is_err());
        assert!(parse(&["--outt", "m.json"]).is_err());
    }
}
