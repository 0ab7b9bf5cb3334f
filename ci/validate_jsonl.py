#!/usr/bin/env python3
"""Shared CI validation for experiment reports and telemetry sinks.

Globs the experiment JSON reports, recursively walks them for NaN/inf, checks
that the JSONL telemetry sink exists and parses. Gates on *what* a run
recorded live in the workspace's tests, not here.

Usage:
    python3 ci/validate_jsonl.py \
        --json 'target/experiments/*.json' \
        --jsonl target/experiments/telemetry.jsonl

Checks performed:
  * every --json argument (path or glob) matches at least one file, and
    every value in every matched file is finite (no NaN, no inf)
  * every --jsonl sink exists, parses line-by-line, and is NaN/inf-free

Exits nonzero with a per-failure message if any check fails.
"""

import argparse
import glob
import json
import math
import pathlib
import sys

failures = []


def fail(msg):
    print(f"FAIL: {msg}")
    failures.append(msg)


def walk(node, path):
    """Recursively flag any non-finite float anywhere in a JSON document."""
    if isinstance(node, dict):
        for k, v in node.items():
            walk(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            walk(v, f"{path}[{i}]")
    elif isinstance(node, float) and (math.isnan(node) or math.isinf(node)):
        fail(f"non-finite value at {path}: {node}")


def check_json(patterns):
    n = 0
    for pattern in patterns:
        matched = sorted(glob.glob(pattern))
        if not matched:
            fail(f"no JSON report matches {pattern}")
            continue
        for name in matched:
            p = pathlib.Path(name)
            try:
                walk(json.loads(p.read_text()), p.name)
            except json.JSONDecodeError as e:
                fail(f"{p.name} is not valid JSON: {e}")
            n += 1
    return n


def load_events(sinks):
    events = []
    for name in sinks:
        p = pathlib.Path(name)
        if not p.exists():
            fail(f"telemetry sink {name} was not written")
            continue
        for ln, line in enumerate(p.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                e = json.loads(line)
            except json.JSONDecodeError as err:
                fail(f"{p.name}:{ln} is not valid JSON: {err}")
                continue
            walk(e, f"{p.name}:{ln}")
            events.append(e)
    return events


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="append", default=[], metavar="PATH_OR_GLOB")
    ap.add_argument("--jsonl", action="append", default=[], metavar="PATH")
    args = ap.parse_args()

    n_json = check_json(args.json)
    events = load_events(args.jsonl)

    if failures:
        sys.exit(1)
    print(f"validated {n_json} JSON reports and {len(events)} telemetry events")


if __name__ == "__main__":
    main()
