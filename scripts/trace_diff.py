#!/usr/bin/env python3
"""Compare two Chrome trace_event files event by event.

    scripts/trace_diff.py OLD NEW [--ignore-repeated-counters]

Prints the event count of each file, the first event at which they
diverge (index and both events), and the change in event count per
(name, ph) pair. When both sides have the same event count, it also
prints how many same-index events differ only in "args" and how many
differ in name/ph/ts/tid/dur (or any other field but "args"); a change
that only rewrites event payloads shows 0 in the second count. With
--ignore-repeated-counters, both sides first drop every counter sample
("ph": "C") that repeats the previous sample on its track: same name,
timestamp and value. The exit status is 0 when the (filtered) event
lists are identical, 1 otherwise.

A trace golden (tests/golden/*.sha256) stores only a digest; its ctest
keeps the full trace of the current build as <NAME>.out in the build's
tests/ directory. Diff that against the same command's output from a
parent checkout to see what moved.
"""

import argparse
import collections
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def drop_repeated_counters(events):
    last = {}
    kept = []
    for e in events:
        if e.get("ph") == "C":
            key = (e.get("pid"), e.get("tid"), e.get("name"))
            sample = (e.get("ts"), e.get("args"))
            if last.get(key) == sample:
                continue
            last[key] = sample
        kept.append(e)
    return kept


def split_changes(old, new):
    """(args-only, other) counts of differing same-index events."""
    def strip(e):
        return {k: v for k, v in e.items() if k != "args"}

    args_only = other = 0
    for a, b in zip(old, new):
        if a == b:
            continue
        if strip(a) == strip(b):
            args_only += 1
        else:
            other += 1
    return args_only, other


def show(e):
    return json.dumps(e, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--ignore-repeated-counters", action="store_true",
                    help="drop counter samples that repeat their track's "
                         "previous sample before comparing")
    args = ap.parse_args()

    old, new = load(args.old), load(args.new)
    print("events: %d -> %d" % (len(old), len(new)))
    if args.ignore_repeated_counters:
        old, new = drop_repeated_counters(old), drop_repeated_counters(new)
        print("without repeated counter samples: %d -> %d"
              % (len(old), len(new)))

    if len(old) == len(new):
        args_only, other = split_changes(old, new)
        print("events differing only in args: %d" % args_only)
        print("events differing in name/ph/ts/tid/dur: %d" % other)

    first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                 None)
    if first is None and len(old) != len(new):
        first = min(len(old), len(new))
    if first is None:
        print("identical")
        return 0
    print("first divergence at event %d:" % first)
    print("  old: %s" % (show(old[first]) if first < len(old) else "<end>"))
    print("  new: %s" % (show(new[first]) if first < len(new) else "<end>"))

    before = collections.Counter((e.get("name"), e.get("ph")) for e in old)
    after = collections.Counter((e.get("name"), e.get("ph")) for e in new)
    moved = sorted((k for k in before.keys() | after.keys()
                    if before[k] != after[k]), key=str)
    print("count change per (name, ph):")
    for name, ph in moved:
        print("  %-24s %-2s %+d" % (name, ph, after[(name, ph)] -
                                    before[(name, ph)]))
    return 1


if __name__ == "__main__":
    sys.exit(main())
