//! Minimal `--flag` / `--key value` argument parsing (no external deps).

use sfa_serve::tenant::TenantSpec;
use std::collections::BTreeMap;

/// Parsed command-line options.
#[derive(Debug, Default)]
pub struct Parsed {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Every option the help text defines, as `(name, takes a value,
/// heading)`: a line `    --name <value>  …` or `    --name  …` defines
/// it, and the heading above that line names the commands accepting it.
fn documented() -> impl Iterator<Item = (&'static str, bool, &'static str)> {
    let mut heading = "";
    crate::HELP.lines().filter_map(move |line| {
        if !line.starts_with(' ') {
            heading = line;
        }
        let def = line.strip_prefix("    --")?;
        let (name, rest) = def.split_once(' ').unwrap_or((def, ""));
        Some((name, rest.trim_start().starts_with('<'), heading))
    })
}

/// Does `heading`, such as `BUILD OPTIONS (build):`, name `command`?
fn accepts(heading: &str, command: &str) -> bool {
    heading
        .split_once('(')
        .and_then(|(_, rest)| rest.split_once(')'))
        .is_some_and(|(commands, _)| commands.split(',').any(|c| c.trim() == command))
}

impl Parsed {
    /// Parse the `--key value` pairs and bare `--flag`s of `sfa
    /// <command>`. An option the help text does not list, or lists for
    /// other commands only, is a usage error naming it, so a typo (or a
    /// retired option) never runs a command with the option ignored.
    pub fn parse(command: &str, argv: &[String]) -> Result<Parsed, String> {
        let mut out = Parsed::default();
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            let (_, takes_value, heading) = documented()
                .find(|&(n, ..)| n == name)
                .ok_or_else(|| format!("unknown option {arg}; try `sfa help`"))?;
            if !accepts(heading, command) {
                return Err(format!(
                    "{arg} is not an option of `sfa {command}`; try `sfa help`"
                ));
            }
            if takes_value {
                let value = args
                    .next()
                    .ok_or_else(|| format!("--{name} expects a value"))?;
                out.values.insert(name.to_string(), value.clone());
            } else {
                out.flags.push(name.to_string());
            }
        }
        Ok(out)
    }

    /// Value of `--name`, if present.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// Was the bare flag `--name` given?
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Numeric option with default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}")),
        }
    }
}

/// Parse a byte size with optional K/M/G suffix ("64M" → 67108864).
///
/// Every malformed input is a typed usage error, never a panic or a
/// silent wrap: `20000000G` used to overflow-wrap in release builds and
/// hand a tiny cap to the budget; `0` and bare suffixes (`M`) were
/// accepted or reported confusingly.
pub fn parse_bytes(s: &str) -> Result<usize, String> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'K') | Some(b'k') => (&s[..s.len() - 1], 1usize << 10),
        Some(b'M') | Some(b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G') | Some(b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    if digits.is_empty() {
        return Err(format!(
            "bad byte size {s:?}: a suffix needs digits (e.g. \"64M\")"
        ));
    }
    let v = digits
        .parse::<usize>()
        .map_err(|_| format!("bad byte size {s:?}"))?;
    if v == 0 {
        return Err(format!("bad byte size {s:?}: must be positive"));
    }
    v.checked_mul(mult)
        .ok_or_else(|| format!("byte size {s:?} overflows the addressable range"))
}

/// Parse a `--tenants` list: comma-separated `name=<bytes|unlimited>`
/// items, with quotas read by [`parse_bytes`].
pub fn parse_tenants(list: &str) -> Result<Vec<TenantSpec>, String> {
    let mut specs = Vec::new();
    for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (name, quota) = item
            .split_once('=')
            .ok_or_else(|| format!("tenant spec {item:?} must be name=<bytes|unlimited>"))?;
        let (name, quota) = (name.trim(), quota.trim());
        if name.is_empty() {
            return Err(format!("tenant spec {item:?} has an empty name"));
        }
        specs.push(if quota.eq_ignore_ascii_case("unlimited") {
            TenantSpec::unlimited(name)
        } else {
            TenantSpec::limited(name, parse_bytes(quota)? as u64)
        });
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let p = Parsed::parse(
            "build",
            &argv(&["--regex", "RG", "--json", "--threads", "8"]),
        )
        .unwrap();
        assert_eq!(p.opt("regex"), Some("RG"));
        assert!(p.flag("json"));
        assert_eq!(p.num("threads", 1).unwrap(), 8);
        assert_eq!(p.num("budget", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_positional_and_dangling() {
        assert!(Parsed::parse("build", &argv(&["positional"])).is_err());
        assert!(Parsed::parse("build", &argv(&["--threads"])).is_err());
    }

    #[test]
    fn rejects_options_the_help_does_not_list() {
        for bad in [
            "--thread",
            "--max-states",
            "--memory-cap",
            "--",
            "--threads-x",
        ] {
            let err = Parsed::parse("build", &argv(&[bad, "8"])).unwrap_err();
            assert!(err.contains(&format!("unknown option {bad};")), "{err}");
        }
    }

    #[test]
    fn each_command_accepts_exactly_its_options() {
        const PATTERN: &str = "regex prosite rn grail exact";
        const CONSTRUCTION: &str = "threads budget compress codec scheduler blocks probabilistic";
        let build = format!(
            "{PATTERN} {CONSTRUCTION} deadline-ms max-bytes seq spill-dir validate out \
             checkpoint checkpoint-every resume json metrics-out"
        );
        let do_match = format!(
            "{PATTERN} {CONSTRUCTION} deadline-ms max-bytes lazy tier random text \
             text-file fasta stream block-bytes interleave oversubscribe metrics-out"
        );
        let survey = format!("{PATTERN} {CONSTRUCTION}");
        let table = [
            ("compile", PATTERN.to_string()),
            ("dot", format!("{PATTERN} name")),
            ("build", build),
            ("match", do_match),
            ("survey", survey.clone()),
            ("verify", survey),
            ("metrics", "file json".to_string()),
            ("artifact", "file json".to_string()),
            (
                "serve",
                "patterns-dir listen tenants workers state-budget match-threads metrics-out"
                    .to_string(),
            ),
            ("workloads", String::new()),
        ];
        let flags = [
            "exact",
            "probabilistic",
            "validate",
            "resume",
            "json",
            "lazy",
        ];
        for (command, options) in &table {
            let options: Vec<&str> = options.split_whitespace().collect();
            for (name, takes_value, _) in documented() {
                assert_eq!(takes_value, !flags.contains(&name), "--{name}");
                let arg = format!("--{name}");
                let args = [arg.as_str(), "1"];
                let parsed = Parsed::parse(command, &argv(&args[..1 + usize::from(takes_value)]));
                if options.contains(&name) {
                    assert!(parsed.is_ok(), "`sfa {command}` refused {arg}");
                } else {
                    let err = parsed.unwrap_err();
                    let want = format!("{arg} is not an option of `sfa {command}`");
                    assert!(err.starts_with(&want), "{err}");
                }
            }
        }
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(parse_bytes("123").unwrap(), 123);
        assert_eq!(parse_bytes("4K").unwrap(), 4096);
        assert_eq!(parse_bytes("2M").unwrap(), 2 << 20);
        assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
        assert!(parse_bytes("abc").is_err());
    }

    #[test]
    fn byte_size_rejects_overflow_zero_and_bare_suffix() {
        // Would wrap to a tiny cap via unchecked `v * mult` in release.
        let err = parse_bytes("20000000000000000G").unwrap_err();
        assert!(err.contains("overflow"), "got: {err}");
        // usize::MAX parses but cannot take any suffix.
        assert!(parse_bytes(&format!("{}K", usize::MAX)).is_err());
        // Zero is not a usable cap.
        let err = parse_bytes("0").unwrap_err();
        assert!(err.contains("positive"), "got: {err}");
        assert!(parse_bytes("0M").is_err());
        // A suffix with no digits is not a quantity.
        let err = parse_bytes("G").unwrap_err();
        assert!(err.contains("digits"), "got: {err}");
        assert!(parse_bytes("").is_err());
        // The boundary itself still parses.
        assert_eq!(parse_bytes(&usize::MAX.to_string()).unwrap(), usize::MAX);
    }

    #[test]
    fn tenant_specs() {
        assert_eq!(
            parse_tenants("alpha=unlimited, bravo=4K,,c=123").unwrap(),
            vec![
                TenantSpec::unlimited("alpha"),
                TenantSpec::limited("bravo", 4096),
                TenantSpec::limited("c", 123),
            ]
        );
        assert!(parse_tenants("no-equals").is_err());
        assert!(parse_tenants("=5").is_err());
        assert!(parse_tenants("x=notbytes").is_err());
        // An overflowing quota is an error, not an unlimited tenant.
        let err = parse_tenants("x=20000000000000000G").unwrap_err();
        assert!(err.contains("overflow"), "got: {err}");
    }
}
