//! `sfa` — command-line front end for the SFA construction library.
//!
//! ```text
//! sfa compile  --prosite 'N-{P}-[ST]-{P}.'            # pattern → Grail+ DFA
//! sfa build    --regex 'RG' --threads 4               # construct the SFA
//! sfa build    --rn 500 --threads 8 --compress 64M    # the paper's r500
//! sfa match    --prosite 'R-G-D.' --random 1000000    # parallel matching
//! sfa survey   --rn 200                               # codec survey (E6)
//! sfa verify   --regex 'R[GA]N'                       # seq vs par cross-check
//! sfa workloads                                       # embedded PROSITE list
//! ```
//!
//! Run `sfa help` for the full option list.

use sfa_automata::grail;
use sfa_automata::pipeline::Pipeline;
use sfa_automata::Alphabet;
use sfa_core::prelude::*;
use sfa_core::sfa::CodecChoice;
use std::process::ExitCode;

/// `println!` for the CLI's output: see [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod commands;

use args::Parsed;

/// Write to stdout. A closed stdout (`sfa … | head`) is the end of the
/// output, as for other Unix tools: later writes are dropped and the
/// command still finishes its work, where `println!` would panic.
pub(crate) fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match std::io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            panic!("failed printing to stdout: {e}")
        }
        _ => {}
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        print_help();
        return Ok(());
    };
    if command == "artifact" {
        // `sfa artifact <verb> …` carries a positional verb the generic
        // parser rejects; route it before parsing.
        return commands::artifact(&argv[1..]);
    }
    let run: fn(&Parsed) -> Result<(), String> = match command.as_str() {
        "compile" => commands::compile,
        "build" => commands::build,
        "match" => commands::do_match,
        "serve" => commands::serve,
        "survey" => commands::survey,
        "verify" => commands::verify,
        "workloads" => commands::workloads,
        "metrics" => commands::metrics,
        "dot" => commands::dot,
        "help" | "--help" | "-h" => {
            print_help();
            return Ok(());
        }
        other => return Err(format!("unknown command {other:?}; try `sfa help`")),
    };
    run(&Parsed::parse(command, &argv[1..])?)
}

/// The help text, and the one list of the options `sfa` accepts:
/// [`Parsed::parse`] reads each `--name`, whether it takes a value, and
/// the commands that accept it (named by the heading above it) from here.
const HELP: &str = "sfa — simultaneous finite automata toolkit

USAGE:
    sfa <COMMAND> [OPTIONS]

COMMANDS:
    compile     compile a pattern to a minimal DFA (Grail+ text on stdout)
    build       construct the SFA of a pattern; print statistics
    match       match text against a pattern via parallel SFA matching
    serve       run the multi-tenant match daemon (binary + HTTP faces)
    survey      run the codec survey over sampled SFA states
    verify      cross-check parallel vs sequential construction
    workloads   list the embedded PROSITE pattern sample
    metrics     display a Prometheus snapshot written by --metrics-out
    dot         render the pattern's DFA as a Graphviz digraph
    artifact    inspect persisted artifacts: `sfa artifact verify --file <p>`
    help        show this message

Each heading below names the commands that accept its options; any
other option is a usage error.

PATTERN OPTIONS (compile, dot, build, match, survey, verify):
    --regex <r>      regular expression over the amino-acid alphabet
    --prosite <p>    PROSITE-syntax pattern
    --rn <n>         synthetic exact-string pattern of length n (r500 family)
    --grail <file>   read a Grail+ DFA from a file
                     (give exactly one of these four sources)
    --exact          do not wrap the pattern in Σ*·r·Σ*

CONSTRUCTION OPTIONS (build, match, survey, verify):
    --threads <n>        worker threads for construction and for the match
                         pool (default 4)
    --budget <n>         SFA state cap, on every engine (default 4194304)
    --compress <bytes>   memory watermark for the compression phase
                         (accepts suffixes K/M/G; `always`/`never`)
    --codec <name>       deflate | lz77 | rle | store | hybrid (default deflate)
    --scheduler <name>   stealing | global | mpmc (default stealing)
    --blocks <n>         symbol blocks per work item (1 = coarse-grained)
    --probabilistic      fingerprint-only state identity (Rabin, dense
                         random modulus); big peak-memory saving

LIMIT OPTIONS (build, match):
    --deadline-ms <n>    abort construction after n milliseconds (typed
                         error; `match` degrades down the tier ladder
                         lazy/speculative/sequential instead, and a match
                         past the deadline is answered sequentially)
    --max-bytes <b>      cap stored mapping-payload bytes (suffixes K/M/G);
                         with --spill-dir, crossing it demotes states
                         instead of failing the build

BUILD OPTIONS (build):
    --seq <variant>      sequential engine: baseline | pointer-tree | hashing |
                         transposed
    --spill-dir <dir>    parallel engine: spill cold states to segment files
                         in this directory once payloads exceed --max-bytes;
                         the result is byte-identical to an uncapped build
                         (use --threads 1, not --seq)
    --validate           check the SFA against the DFA
    --out <path>         write the SFA as a checksummed artifact
    --checkpoint <path>  parallel engine: snapshot construction state to
                         this artifact, also when a budget stops the build
                         (use --threads 1, not --seq)
    --checkpoint-every <n>  states between snapshots (default 1024)
    --resume             parallel engine: continue from the --checkpoint
                         artifact if it exists (byte-identical result at any
                         thread count; fresh build otherwise)

MATCH OPTIONS (match):
    --lazy               start on the lazy tier: construct SFA states on
                         demand while matching
    --tier <policy>      auto | sequential | speculative | require_full.
                         `sequential` and `speculative` build no SFA:
                         speculative chunks run on the raw DFA from
                         predicted entry states with seam verification
                         (mispredicted suffixes re-run). `require_full`
                         fails unless the full SFA tier answers.
    --random <len>       generate protein-like text of this length
    --text <string>      literal text
    --text-file <path>   read text from a file
    --fasta <path>       read a FASTA protein file
    --stream <path>      stream a file in fixed-size blocks (whitespace
                         skipped; never materializes the whole input)
    --block-bytes <b>    streaming block size (suffixes K/M/G; default 8M)
    --interleave <k>     chunk chains scanned per worker loop
                         (1 | 2 | 4 | 8; default 4)
    --oversubscribe <n>  chunk tasks per worker thread, so stragglers
                         rebalance on the pool (default 4)

REPORT OPTIONS (build, metrics, artifact):
    --json               machine-readable output

METRICS OPTIONS (build, match, serve):
    --metrics-out <path> scrape the process-global metrics registry to a
                         Prometheus text snapshot on exit (display it
                         with `sfa metrics --file <path>`)

FILE OPTIONS (metrics, artifact):
    --file <path>        the snapshot or artifact to read

DOT OPTIONS (dot):
    --name <id>          the digraph's name (default dfa)

SERVE OPTIONS (serve):
    --patterns-dir <d>   directory of <id>.pat pattern files (required);
                         compiled SFAs are cached in <d>/artifacts/
    --listen <addr>      bind address (default 127.0.0.1:7878; port 0
                         picks an ephemeral port)
    --tenants <list>     comma-separated name=<bytes|unlimited> quotas
                         (K/M/G suffixes; default: one unlimited tenant
                         named `default`)
    --workers <n>        event-loop workers (default: one per core)
    --state-budget <n>   SFA state cap per pattern; larger patterns
                         serve on the sequential tier (default 1048576)
    --match-threads <n>  match-pool threads (default: one per core)";

fn print_help() {
    outln!("{HELP}");
}

/// Build the DFA from whichever pattern source was given.
pub(crate) fn dfa_from_args(parsed: &Parsed) -> Result<sfa_automata::Dfa, String> {
    let alpha = Alphabet::amino_acids();
    let pipeline = if parsed.flag("exact") {
        Pipeline::exact(alpha)
    } else {
        Pipeline::search(alpha)
    };
    let sources = [
        parsed.opt("regex").is_some(),
        parsed.opt("prosite").is_some(),
        parsed.opt("rn").is_some(),
        parsed.opt("grail").is_some(),
    ]
    .iter()
    .filter(|&&x| x)
    .count();
    if sources != 1 {
        return Err("give exactly one of --regex, --prosite, --rn, --grail".into());
    }
    if let Some(r) = parsed.opt("regex") {
        return pipeline.compile_str(r).map_err(|e| e.to_string());
    }
    if let Some(p) = parsed.opt("prosite") {
        return pipeline.compile_prosite(p).map_err(|e| e.to_string());
    }
    if let Some(n) = parsed.opt("rn") {
        let n: usize = n.parse().map_err(|_| "--rn expects a number")?;
        return Ok(sfa_automata::random::rn(n));
    }
    let path = parsed.opt("grail").unwrap();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    grail::read_dfa(&text, None).map_err(|e| e.to_string())
}

/// Assemble the construction [`Budget`] from `--deadline-ms` and
/// `--max-bytes` (unlimited when neither is given).
pub(crate) fn budget_from_args(parsed: &Parsed) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    if let Some(ms) = parsed.opt("deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("--deadline-ms expects milliseconds, got {ms:?}"))?;
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(b) = parsed.opt("max-bytes") {
        budget = budget.with_max_payload_bytes(args::parse_bytes(b)? as u64);
    }
    Ok(budget)
}

pub(crate) fn parallel_options(parsed: &Parsed) -> Result<ParallelOptions, String> {
    let mut opts = ParallelOptions::with_threads(parsed.num("threads", 4)?);
    opts.state_budget = parsed.num("budget", 1 << 22)?;
    if let Some(c) = parsed.opt("compress") {
        opts.compression = match c {
            "never" => CompressionPolicy::Never,
            "always" => CompressionPolicy::FromStart,
            other => CompressionPolicy::WhenMemoryExceeds(args::parse_bytes(other)?),
        };
    }
    if let Some(c) = parsed.opt("codec") {
        opts.codec = match c {
            "deflate" => CodecChoice::Deflate,
            "lz77" => CodecChoice::Lz77,
            "rle" => CodecChoice::Rle,
            "store" => CodecChoice::Store,
            "hybrid" => CodecChoice::Hybrid,
            other => return Err(format!("unknown codec {other:?}")),
        };
    }
    opts.symbol_blocks = parsed.num("blocks", 1)?;
    if parsed.flag("probabilistic") {
        opts.probabilistic = true;
        opts.fingerprint = sfa_core::parallel::FingerprintAlgo::Rabin;
    }
    if let Some(s) = parsed.opt("scheduler") {
        opts.scheduler = match s {
            "stealing" => Scheduler::WorkStealing,
            "global" => Scheduler::GlobalOnly,
            "mpmc" => Scheduler::SharedMpmc,
            other => return Err(format!("unknown scheduler {other:?}")),
        };
    }
    Ok(opts)
}
