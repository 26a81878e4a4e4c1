"""Run one goa CLI command with every public goa function wrapped in a span.

Usage: python3 perfbench/trace_child.py OUT.json [goa CLI arguments...]

The command's stdout and exit code are those of `python3 -m goa.cli`.
OUT.json receives, per wrapped function, its call count and self time
(span duration minus the time covered by its child spans), plus the
counts of extra_counters().  Spans are aggregated in memory and written
once the command has returned.
"""

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("cli", "digraphs", "identities", "incidence", "linalg", "operators",
           "partition", "perms", "poly", "recon", "srp", "terwilliger")

# Helpers called millions of times stay unwrapped, so their cost lands in
# their callers' self time instead of being swamped by span overhead.
# `subsets` is left out of MODULES for the same reason, and in `cli` only
# `main` is wrapped, so that its self time covers argument parsing, file
# reading and report printing.
SKIP = {"perms.compose", "perms.action_table", "perms.act_on_subset",
        "perms.identity_perm"}
CLI_WRAPPED = {"main"}
METHODS = {
    "partition": {"Partition": ("from_blocks",)},
    "poly": {"Poly": ("to_basis", "__mul__", "__eq__")},
    "operators": {"LinearOperator": ("__call__",)},
}


class Tracer:
    """Per-name call counts and self times, from a stack of open spans."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.extra = {}
        self._stack = []  # child time accumulated by each open span

    def wrap(self, name, fn, extra=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                calls[name] += 1
                self_s[name] += duration - children
            if extra is not None:
                extra(self.extra, args, result)
            return result

        return functools.wraps(fn)(span)

    def report(self):
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.extra)
        return out


def extra_counters():
    """Counts beyond calls and self time, keyed by span name: each updates
    the counts dict from one call's arguments and result."""
    partitions = set()

    def add(key, value):
        def count(counts, args, result):
            counts[key] = counts.get(key, 0) + value(args, result)
        return count

    def coeff_matrix(counts, args, result):
        partitions.add(args[0])
        counts["partition.coeff_matrix.distinct"] = len(partitions)

    return {
        "partition.coeff_matrix": coeff_matrix,
        "perms.orbit_partition": add("perms.orbit_partition.generators",
                                     lambda a, r: len(a[0].generators or a[0].elements)),
        "perms.partition_stabilizer": add("perms.partition_stabilizer.order",
                                          lambda a, r: r.order),
        "srp.enumerate_strongly_regular": add("srp.enumerate_strongly_regular.partitions",
                                              lambda a, r: len(r[0])),
    }


def install(tracer):
    """Wrap the public goa functions and rebind every goa module's reference
    to each, since modules import them by name (`from goa.x import f`)."""
    modules = {short: importlib.import_module(f"goa.{short}") for short in MODULES}
    extras = extra_counters()
    holders = [m for name, m in sys.modules.items() if name == "goa" or name.startswith("goa.")]
    for short, module in modules.items():
        for attr, fn in list(vars(module).items()):
            name = f"{short}.{attr}"
            if (not inspect.isfunction(fn) or fn.__module__ != module.__name__
                    or attr.startswith("_") or name in SKIP
                    or (short == "cli" and attr not in CLI_WRAPPED)):
                continue
            wrapped = tracer.wrap(name, fn, extras.get(name))
            for holder in holders:
                for held, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, held, wrapped)
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(module, cls_name)
            for attr in methods:
                name = f"{short}.{cls_name}.{attr}"
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, tracer.wrap(name, raw))


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["goa.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as f:
            json.dump(tracer.report(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
