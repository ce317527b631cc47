"""Run one detorbit operation in a fresh interpreter, the way a user runs it.

run.py starts one process per operation:

    python3 child.py cli <detorbit CLI arguments...>   # same as `detorbit ...`
    python3 child.py lib <name> <JSON keyword arguments>

When PERFBENCH_RESULT names a file, the process writes to it, as it ends,
the moment the CLI parser was first built (the end of set-up).  With
PERFBENCH_TRACE=1 it first wraps the public functions of detorbit's modules
and also writes their spans, aggregated per (parent span, function) as a call
count, total time and self time, plus a few work counters read off the
results.  Nothing is written while the operation runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

MODULES = ("latin", "tensors", "invariant", "orbit", "kronecker", "cli")


class _Node:
    """Aggregated span: every call of one function under one parent span."""

    __slots__ = ("calls", "total", "covered", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.covered = 0.0  # time spent in wrapped callees
        self.children: dict[str, _Node] = {}


def _count_tally(counters, result, **_):
    counters["latin.leaves"] += result.total()
    counters["latin.patterns"] += len(result.counts)


def _count_reused(counters, result, **_):
    counters["latin.blocks_reused"] += len(result)


def _count_terms(counters, result, **_):
    counters["tensors.symmetrizer_terms"] += result.nnz()


def _count_candidates(counters, result, kwargs):
    scanned = kwargs.get("max_candidates", 40)
    if result is not None:
        scanned = result.schedule_index + 1
    counters["orbit.candidates"] += scanned


# Work counters read off return values; call counts and times come from spans.
OBSERVERS = {
    "latin.signed_tally": _count_tally,
    "latin.column_order_tally": _count_tally,
    "latin.load_checkpoint": _count_reused,
    "tensors.apply_symmetrizer": _count_terms,
    "orbit.witness_search": _count_candidates,
}


class Tracer:
    def __init__(self, budget_error: type):
        self.root = _Node()
        self.stack = [self.root]
        self.counters = dict.fromkeys(
            [
                "latin.leaves",
                "latin.patterns",
                "latin.blocks_reused",
                "tensors.symmetrizer_terms",
                "tensors.budget_refusals",
                "orbit.candidates",
            ],
            0,
        )
        self.budget_error = budget_error

    def wrap(self, fn, name: str):
        stack = self.stack
        counters = self.counters
        observe = OBSERVERS.get(name)
        refusals = name.split(".")[0] + ".budget_refusals"
        budget_error = self.budget_error

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = _Node()
            stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                # Count a refusal once, in the innermost wrapped function.
                if not getattr(exc, "perfbench_counted", False):
                    exc.perfbench_counted = True
                    counters[refusals] = counters.get(refusals, 0) + 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                node.calls += 1
                node.total += dt
                parent.covered += dt
            if observe is not None:
                observe(counters, result=result, kwargs=kwargs)
            return result

        return functools.update_wrapper(wrapper, fn)

    def spans(self) -> list[dict]:
        out: list[dict] = []

        def walk(node: _Node, path: str) -> None:
            for name, child in node.children.items():
                out.append(
                    {
                        "parent": path,
                        "name": name,
                        "calls": child.calls,
                        "total_s": child.total,
                        "self_s": child.total - child.covered,
                    }
                )
                walk(child, f"{path}/{name}" if path else name)

        walk(self.root, "")
        return out


def install_tracer() -> Tracer:
    """Wrap the public functions of every module, wherever they are bound."""
    import detorbit
    from detorbit.errors import BudgetExceeded

    modules = {name: importlib.import_module(f"detorbit.{name}") for name in MODULES}
    tracer = Tracer(BudgetExceeded)
    wrapped: dict[int, tuple] = {}
    for short, mod in modules.items():
        for name in getattr(mod, "__all__", ["main"]):
            fn = getattr(mod, name)
            # A generator's span would close before its caller iterates it.
            if (
                inspect.isfunction(fn)
                and not inspect.isgeneratorfunction(fn)
                and fn.__module__ == mod.__name__
            ):
                wrapped[id(fn)] = (fn, tracer.wrap(fn, f"{short}.{name}"))
    # Rebind in every namespace, so calls between modules (orbit imports
    # det_power_invariant by name) and within a module go through the wrapper.
    for mod in (detorbit, *modules.values()):
        for attr, value in list(vars(mod).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
    return tracer


def _stamp_setup(cli, state: dict) -> None:
    """Record when the CLI parser is first built: the end of set-up."""
    build_parser = cli.build_parser

    def stamped():
        parser = build_parser()
        if state["setup_done"] is None:
            state["setup_done"] = perf_counter()
        return parser

    cli.build_parser = stamped


def _lib_sk_positivity(m: int, d: int) -> dict:
    from detorbit import kronecker

    rep = kronecker.rectangle_sk_positivity(m, d, max_n=m * d)
    return {
        "n": rep.n,
        "entries": rep.to_json_list(),
        "all_positive": rep.all_positive,
    }


def _lib_content_coefficients(matrices: list[str], contents: list[list[int]]) -> dict:
    from detorbit import orbit

    out = []
    for path in matrices:
        with open(path, encoding="utf-8") as fh:
            A = orbit.matrix_from_csv(fh.read())
        out.append([str(orbit.content_coefficient(A, d)) for d in contents])
    return {"coefficients": out}


LIBRARY_OPS = {
    "sk_positivity": _lib_sk_positivity,
    "content_coefficients": _lib_content_coefficients,
}


def main(argv: list[str]) -> int:
    from detorbit import cli

    state: dict = {"setup_done": None}
    _stamp_setup(cli, state)
    tracer = install_tracer() if os.environ.get("PERFBENCH_TRACE") == "1" else None
    mode, rest = argv[0], argv[1:]
    code = 0
    try:
        if mode == "cli":
            code = cli.main(rest)
        elif mode == "lib":
            result = LIBRARY_OPS[rest[0]](**json.loads(rest[1]))
            sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        path = os.environ.get("PERFBENCH_RESULT")
        if path:
            record: dict = {"setup_done": state["setup_done"]}
            if tracer is not None:
                record["spans"] = tracer.spans()
                record["counters"] = tracer.counters
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
