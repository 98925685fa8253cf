//! Minimal `--flag` / `--key value` argument parsing (no external deps).

use sfa_serve::tenant::TenantSpec;
use std::collections::BTreeMap;

/// Options that never take a value.
const FLAGS: &[&str] = &[
    "exact",
    "json",
    "validate",
    "probabilistic",
    "lazy",
    "resume",
];

/// Parsed command-line options.
#[derive(Debug, Default)]
pub struct Parsed {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Does the help text list `--name`? Reading the names from it keeps
/// one list of the options `sfa` accepts.
fn documented(name: &str) -> bool {
    !name.is_empty()
        && crate::HELP
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .any(|word| word.strip_prefix("--") == Some(name))
}

impl Parsed {
    /// Parse `--key value` pairs and bare `--flag`s. An option the help
    /// text does not list is a usage error naming it, so a typo (or a
    /// retired option) never runs a command with the option ignored.
    pub fn parse(argv: &[String]) -> Result<Parsed, String> {
        let mut out = Parsed::default();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            if !documented(name) {
                return Err(format!("unknown option {arg}; try `sfa help`"));
            }
            if FLAGS.contains(&name) {
                out.flags.push(name.to_string());
                i += 1;
            } else {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} expects a value"))?;
                out.values.insert(name.to_string(), value.clone());
                i += 2;
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
        let p = Parsed::parse(&argv(&["--regex", "RG", "--json", "--threads", "8"])).unwrap();
        assert_eq!(p.opt("regex"), Some("RG"));
        assert!(p.flag("json"));
        assert_eq!(p.num("threads", 1).unwrap(), 8);
        assert_eq!(p.num("budget", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_positional_and_dangling() {
        assert!(Parsed::parse(&argv(&["positional"])).is_err());
        assert!(Parsed::parse(&argv(&["--threads"])).is_err());
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
            let err = Parsed::parse(&argv(&[bad, "8"])).unwrap_err();
            assert!(err.contains(&format!("unknown option {bad};")), "{err}");
        }
        // Every flag is listed, so none can be refused as unknown.
        for flag in FLAGS {
            assert!(documented(flag), "--{flag} missing from the help text");
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
