#!/usr/bin/env python3
"""Lint a Prometheus text-exposition snapshot written by `--metrics-out`.

Checks (stdlib only, exit 1 on the first batch of violations):
  * every non-comment line is `name[{k="v",...}] value` with a finite value
  * metric names match the Prometheus charset `[a-zA-Z_:][a-zA-Z0-9_:]*`
  * every sample belongs to a family declared by a `# TYPE` line, and no
    family is declared twice
  * counter families end in `_total` and never decrease below zero
  * histogram families expose `_bucket` (cumulative, non-decreasing,
    ending in `le="+Inf"`), `_sum`, and `_count`, with +Inf == _count
  * with --require-prefix PFX (default `sfa_`), every family name carries
    the repo naming scheme prefix

Usage: promlint.py <snapshot.prom> [--require-prefix sfa_] [--allow-empty]
"""

import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def parse_sample(line):
    """Return (name, labels-dict, value) or raise ValueError."""
    body, _, value_str = line.rpartition(" ")
    if not body:
        raise ValueError("no value")
    if value_str == "+Inf":
        value = math.inf
    else:
        value = float(value_str)  # raises on junk
    if "{" in body:
        name, _, rest = body.partition("{")
        if not rest.endswith("}"):
            raise ValueError("unterminated label block")
        labels = dict(LABEL_RE.findall(rest[:-1]))
    else:
        name, labels = body, {}
    if not NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name, labels, value


def base_family(name, families):
    """Family a sample series belongs to, honouring histogram suffixes."""
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if families.get(base) == "histogram":
                return base
    return None


def lint(text, require_prefix, allow_empty):
    errors = []
    families = {}  # name -> type
    samples = []  # (name, labels, value, lineno)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                name, mtype = parts[2], parts[3]
                if name in families:
                    errors.append(f"line {lineno}: duplicate TYPE for {name}")
                if mtype not in ("counter", "gauge", "histogram"):
                    errors.append(f"line {lineno}: unknown type {mtype!r}")
                families[name] = mtype
            continue
        try:
            name, labels, value = parse_sample(line)
        except ValueError as e:
            errors.append(f"line {lineno}: {e}: {line!r}")
            continue
        if not math.isfinite(value) and labels.get("le") != "+Inf":
            # Only the +Inf bucket bound may be non-finite, and that
            # lives in the label; sample values must be finite.
            errors.append(f"line {lineno}: non-finite value in {name}")
        samples.append((name, labels, value, lineno))

    if not samples and not allow_empty:
        errors.append("no samples")

    seen_families = set()
    for name, labels, value, lineno in samples:
        family = base_family(name, families)
        if family is None:
            errors.append(f"line {lineno}: sample {name} has no # TYPE declaration")
            continue
        seen_families.add(family)
        if families[family] == "counter":
            if not family.endswith("_total"):
                errors.append(f"{family}: counter name must end in _total")
            if value < 0:
                errors.append(f"line {lineno}: negative counter {name}={value}")

    for family in families:
        if require_prefix and not family.startswith(require_prefix):
            errors.append(f"{family}: missing required prefix {require_prefix!r}")
        if family not in seen_families:
            errors.append(f"{family}: declared by # TYPE but has no samples")

    # Histogram coherence.
    for family, mtype in families.items():
        if mtype != "histogram":
            continue
        buckets = [
            (labels.get("le"), value, lineno)
            for name, labels, value, lineno in samples
            if name == f"{family}_bucket"
        ]
        counts = [v for n, _, v, _ in samples if n == f"{family}_count"]
        sums = [v for n, _, v, _ in samples if n == f"{family}_sum"]
        if len(counts) != 1 or len(sums) != 1:
            errors.append(f"{family}: expected exactly one _sum and one _count")
            continue
        if not buckets:
            errors.append(f"{family}: no _bucket series")
            continue
        if buckets[-1][0] != "+Inf":
            errors.append(f"{family}: last bucket must be le=\"+Inf\"")
        prev = -1.0
        for le, value, lineno in buckets:
            if le is None:
                errors.append(f"line {lineno}: {family}_bucket without le label")
            if value < prev:
                errors.append(
                    f"line {lineno}: {family}_bucket not cumulative "
                    f"({value} after {prev})"
                )
            prev = value
        if buckets[-1][1] != counts[0]:
            errors.append(
                f"{family}: +Inf bucket {buckets[-1][1]} != _count {counts[0]}"
            )
    return errors


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    path = argv[0]
    require_prefix = "sfa_"
    allow_empty = False
    i = 1
    while i < len(argv):
        if argv[i] == "--require-prefix":
            require_prefix = argv[i + 1]
            i += 2
        elif argv[i] == "--allow-empty":
            allow_empty = True
            i += 1
        else:
            print(f"unknown option {argv[i]!r}", file=sys.stderr)
            return 2
    with open(path, encoding="utf-8") as f:
        text = f.read()
    errors = lint(text, require_prefix, allow_empty)
    for e in errors:
        print(f"promlint: {e}", file=sys.stderr)
    if errors:
        return 1
    families = len(re.findall(r"(?m)^# TYPE ", text))
    print(f"promlint: ok ({families} metric families)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
