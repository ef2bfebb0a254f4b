"""Span tracing of bigraded's public functions, installed from outside the library.

`install` wraps every public module-level function of each bigraded module,
plus `Matrix.__init__` and `Workspace.space`, in a recorder.  Each call
becomes a span (name, start, end, parent) kept in memory; `dump` writes the
spans out when the traced process ends, and `layer_metrics` derives each
span's self time: its duration minus the time covered by its child spans.

Run as a script, it is the traced stand-in for the `bigraded` command:

    python3 bench/spans.py SPANS_STEM report FILE --rmax 4

installs the wrappers, runs `bigraded.cli.main` on the remaining arguments,
then writes SPANS_STEM.json (names, counters, per-name totals) and
SPANS_STEM.bin (the raw spans).
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("cli", "bicomplex", "linalg", "spectral", "bca", "zigzag",
           "models", "hodge", "pairing")


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = [-1]
        self.active = [True]  # cleared while the benchmark checks outputs
        self.counters = {"linalg.rref.entries": 0, "spectral.space.hits": 0,
                         "spectral.space.built": 0}

    def span(self, label, fn, before=None):
        """`fn` wrapped so that every call records one span named `label`."""
        nid = len(self.names)
        self.names.append(label)
        name, start, end, parent, stack, active = (
            self.name, self.start, self.end, self.parent, self.stack, self.active)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return wrapper

    def layer_metrics(self):
        """Per span name: calls, summed self time and summed span time; plus the counters."""
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - covered[i]
            total_s[nid] += end[i] - start[i]
        by_name = {label: {"calls": calls[k], "self_s": self_s[k], "total_s": total_s[k]}
                   for k, label in enumerate(self.names) if calls[k]}
        return {"spans": by_name, "counters": dict(self.counters)}

    def dump(self, stem):
        """Write STEM.bin (name ids, starts, ends, parents) and STEM.json."""
        with open(f"{stem}.bin", "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)
        header = {"format": "four arrays of len `spans` in turn: int64 name ids, "
                            "float64 starts, float64 ends, int64 parent indices (-1 = root); "
                            "native byte order; times from time.perf_counter",
                  "spans": len(self.start), "names": self.names,
                  "metrics": self.layer_metrics()}
        with open(f"{stem}.json", "w") as fh:
            json.dump(header, fh)


def install():
    """Import bigraded, wrap its public functions and return the tracer."""
    tracer = Tracer()
    mods = {short: importlib.import_module(f"bigraded.{short}") for short in MODULES}
    counters = tracer.counters

    def count_rref(m, *args, **kwargs):
        counters["linalg.rref.entries"] += m.rows * m.cols

    def count_space(ws, kind, r, p, q):
        if (kind, r, p, q) in ws.spaces:
            counters["spectral.space.hits"] += 1

    hooks = {"linalg.rref": count_rref}
    wrapped = {}
    for short, mod in mods.items():
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            label = f"{short}.{attr}"
            wrapped[fn] = tracer.span(label, fn, hooks.get(label))
    # `from bigraded.x import f` copies f into other modules: rebind every copy
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])

    linalg, spectral = mods["linalg"], mods["spectral"]
    linalg.Matrix.__init__ = tracer.span("linalg.matrix_init", linalg.Matrix.__init__)
    spectral.Workspace.space = tracer.span("spectral.space", spectral.Workspace.space,
                                           count_space)
    build_space = spectral._build_space

    def counted_build_space(*args):
        if tracer.active[0]:
            counters["spectral.space.built"] += 1
        return build_space(*args)

    spectral._build_space = counted_build_space
    return tracer


def main(argv):
    stem, cli_args = argv[0], argv[1:]
    tracer = install()
    from bigraded import cli
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(stem)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
