//! The front end `pimalign` and `pimserve` share: one error type with
//! one exit-code scheme, one argument walk, one parser for the flags both
//! binaries take,
//! one builder from those flags to a [`PimAlignerConfig`], and one boot —
//! a checked reference load (which `pimalign index build` calls too)
//! followed by [`Platform::new`] or [`Platform::from_artifact`].

use std::path::Path;

use bioseq::PackedSeq;
use fmindex::FmIndex;
use pim_aligner::{sa_rate_for_budget, IndexArtifact, PimAlignerConfig, Platform};

/// A CLI failure, classified so scripts can tell a typo (fix the
/// command) from a bad input file (fix the data) from a runtime fault
/// (look at the environment).
pub enum CliError {
    /// Bad flags or arguments: exit 2.
    Usage(String),
    /// Unreadable or malformed input files: exit 3.
    Input(String),
    /// A failure while the run was underway (write errors, alignment
    /// errors): exit 4.
    Runtime(String),
}

impl CliError {
    /// The message to print.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Input(m) | CliError::Runtime(m) => m,
        }
    }

    /// The process exit code.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::Runtime(_) => 4,
        }
    }
}

/// Steps `i` past `flag` and parses its value; the error names the flag.
pub fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    *i += 1;
    args.get(*i)
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("invalid {flag}: {e}"))
}

/// The positionals and the flags both binaries take: `--index`, `--pd`,
/// `--max-diffs`, `--no-indels`, `--single-strand`, `--threads`,
/// `--metrics-out` and `--trace-out`.
pub struct Args {
    /// The non-flag arguments, in order.
    pub positional: Vec<String>,
    /// The artifact to boot from instead of a FASTA.
    pub index: Option<String>,
    pub pd: usize,
    pub max_diffs: u8,
    /// Cleared by `--no-indels`.
    pub indels: bool,
    /// Cleared by `--single-strand`.
    pub both_strands: bool,
    pub threads: usize,
    pub metrics_out: Option<String>,
    pub trace_out: Option<String>,
}

/// Walks `args`: every `--flag` goes to `flag`, which consumes its value
/// through [`parse_flag`] and returns `Ok(false)` for a flag it does not
/// know; the rest are the positionals, returned in order.
pub fn parse_args(
    args: &[String],
    mut flag: impl FnMut(&[String], &mut usize) -> Result<bool, String>,
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if !args[i].starts_with("--") {
            positional.push(args[i].clone());
        } else if !flag(args, &mut i)? {
            return Err(format!("unknown option {}", args[i]));
        }
        i += 1;
    }
    Ok(positional)
}

impl Args {
    /// Parses `args` with `threads` as the `--threads` default; a flag
    /// that is not shared goes to `own`, as in [`parse_args`].
    pub fn parse(
        args: &[String],
        threads: usize,
        mut own: impl FnMut(&[String], &mut usize) -> Result<bool, String>,
    ) -> Result<Args, String> {
        let mut cli = Args {
            positional: Vec::new(),
            index: None,
            pd: 1,
            max_diffs: 2,
            indels: true,
            both_strands: true,
            threads,
            metrics_out: None,
            trace_out: None,
        };
        cli.positional = parse_args(args, |args, i| {
            match args[*i].as_str() {
                "--index" => cli.index = Some(parse_flag(args, i, "--index")?),
                "--pd" => {
                    cli.pd = parse_flag(args, i, "--pd")?;
                    if cli.pd == 0 {
                        return Err("invalid --pd: parallelism degree must be at least 1".into());
                    }
                }
                "--max-diffs" => {
                    cli.max_diffs = parse_flag(args, i, "--max-diffs")?;
                    if cli.max_diffs > 8 {
                        return Err(format!(
                            "invalid --max-diffs: {} exceeds the platform maximum of 8",
                            cli.max_diffs
                        ));
                    }
                }
                "--no-indels" => cli.indels = false,
                "--single-strand" => cli.both_strands = false,
                "--threads" => {
                    cli.threads = parse_flag(args, i, "--threads")?;
                    if cli.threads == 0 {
                        return Err("invalid --threads: at least one worker thread required".into());
                    }
                }
                "--metrics-out" => cli.metrics_out = Some(parse_flag(args, i, "--metrics-out")?),
                "--trace-out" => cli.trace_out = Some(parse_flag(args, i, "--trace-out")?),
                _ => return own(args, i),
            }
            Ok(true)
        })?;
        Ok(cli)
    }

    /// The positionals after the reference FASTA — all of them under
    /// `--index`, whose artifact holds the reference — or `None` when
    /// neither a reference nor `--index` was given.
    pub fn operands(&self) -> Option<&[String]> {
        match (&self.index, self.positional.as_slice()) {
            (Some(_), all) => Some(all),
            (None, [_, rest @ ..]) => Some(rest),
            (None, []) => None,
        }
    }

    /// The platform configuration the flags set.
    pub fn config(&self) -> PimAlignerConfig {
        PimAlignerConfig::baseline()
            .with_pd(self.pd)
            .with_max_diffs(self.max_diffs)
            .with_indels(self.indels)
    }

    /// Boots the platform and names its reference: from the `--index`
    /// artifact, else from the reference FASTA — through an artifact
    /// built in-process at the densest sampling rate `budget` holds, or
    /// by [`Platform::new`] without one.
    ///
    /// # Panics
    ///
    /// Panics if neither `--index` nor a positional was given; check
    /// [`Args::operands`] first.
    pub fn boot(
        &self,
        budget: Option<usize>,
        config: PimAlignerConfig,
    ) -> Result<(Platform, String), CliError> {
        if let Some(path) = &self.index {
            // The platform shares the artifact's index and reference, so
            // dropping the artifact here frees nothing the platform holds.
            let artifact = load_artifact(path)?;
            let name = artifact.reference_name().to_owned();
            return Ok((Platform::from_artifact(&artifact, config, true), name));
        }
        let (name, reference, rate) =
            load_reference(&self.positional[0], budget).map_err(CliError::Input)?;
        let platform = match rate {
            Some(rate) => {
                Platform::from_artifact(&IndexArtifact::new(&name, reference, rate), config, false)
            }
            None => Platform::new(reference, config),
        };
        Ok((platform, name))
    }
}

/// Reads a FASTA file that must hold exactly one record of at least one
/// and at most [`FmIndex::MAX_REFERENCE_LEN`] bases — a reference the
/// platform can index — as its name and its bases, packed line by line
/// as they are read, with the densest suffix-array sampling rate whose
/// index fits `budget` bytes when one is given. The error is the message
/// of an input error.
pub fn load_reference(
    path: &str,
    budget: Option<usize>,
) -> Result<(String, PackedSeq, Option<u32>), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records =
        bioseq::fasta::read(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    if records.len() != 1 {
        return Err(format!(
            "{path}: expected exactly one reference record, found {}",
            records.len()
        ));
    }
    let record = records.pop().expect("exactly one record");
    let (bases, max) = (record.seq().len(), FmIndex::MAX_REFERENCE_LEN);
    if bases == 0 {
        return Err(format!("{path}: no bases to index"));
    }
    if bases > max {
        return Err(format!(
            "{path}: {bases} bases exceeds the u32 position bound ({max} bases max); \
             split the reference across separate artifacts"
        ));
    }
    let rate = match budget {
        Some(budget) => Some(sa_rate_for_budget(bases, budget).ok_or_else(|| {
            format!(
                "--index-memory-budget {budget} bytes cannot hold the index for {bases} bases \
                 at any supported sampling rate"
            )
        })?),
        None => None,
    };
    Ok((record.id().to_owned(), record.into_seq(), rate))
}

/// Loads (and thereby checksum-verifies) the index artifact at `path`.
pub fn load_artifact(path: &str) -> Result<IndexArtifact, CliError> {
    IndexArtifact::load_from_path(Path::new(path))
        .map_err(|e| CliError::Input(format!("{path}: {e}")))
}
