"""Per-module timing spans for one qmeas CLI job, and the span arithmetic.

Run as a script, this file is the traced stand-in for the ``qmeas`` console
script:

    python3 perfbench/tracer.py SPANS.json -- truncate --N 1000 ...

It imports ``qmeas.cli``, installs timing wrappers around the public functions
and public class methods of every qmeas module (patching each name wherever
another qmeas module imported it, e.g. ``vn_entropy`` inside ``cli`` and
``equilibrium``), runs ``qmeas.cli.main`` on the given argv and, when main
returns, writes every span it kept in memory to SPANS.json.

A layer is a module.  A wrapped call opens a span only when it crosses into
the module from another one; calls inside a module belong to the span that
entered it.  A generator returned across a module boundary (the oracle's
``iter_sector_blocks``) opens a span each time it is resumed, because that is
when its work happens.  Spans opened in ``ThreadPoolExecutor`` workers take
the submitting span as their parent.

The parent process (``run.py``) imports only the pure functions below.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

LAYER_MODULES = ("cli", "kernels", "curie_weiss", "oracle", "equilibrium",
                 "qstate", "contextuality", "runs", "ambiguity")


class _Recorder:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.spans = []       # [name, module, start, end, parent_index, kind]
        self.counters = {}
        self.local = threading.local()
        self.lock = threading.Lock()

    def stack(self) -> list:
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def open(self, name: str, module: str, kind: str) -> int:
        st = self.stack()
        parent = st[-1] if st else None
        with self.lock:
            idx = len(self.spans)
            self.spans.append([name, module, time.perf_counter(), None, parent, kind])
        st.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack().pop()

    def current_module(self):
        st = self.stack()
        return self.spans[st[-1]][1] if st else None

    def count(self, key: str, amount) -> None:
        with self.lock:
            self.counters[key] = self.counters.get(key, 0) + int(amount)


def _kernel_counts(rec, args, result):
    rec.count("kernels.factor_points", _size(args[0]) * _size(result))


def _oracle_block_counts(rec, block):
    rec.count("oracle.points", 1)
    rec.count("oracle.block_bytes_computed", sum(b.nbytes for b in block.blocks.values()))


def _size(x) -> int:
    return int(getattr(x, "size", 1))


# counters recorded at the boundary where the work happens: on return for
# calls, on each yielded item for generators
_CALL_HOOKS = {"kernels.trig_product": _kernel_counts}
_YIELD_HOOKS = {"oracle.iter_sector_blocks": _oracle_block_counts}


def _traced_generator(rec, gen, name, module):
    hook = _YIELD_HOOKS.get(name)
    while True:
        idx = rec.open(name, module, "resume")
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, item)
        yield item


def _wrap(rec, fn, name, module):
    hook = _CALL_HOOKS.get(name)
    is_gen = inspect.isgeneratorfunction(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.current_module() == module:
            return fn(*args, **kwargs)
        idx = rec.open(name, module, "call")
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, result)
        if is_gen:
            return _traced_generator(rec, result, name, module)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def install(rec: _Recorder) -> None:
    """Wrap every public function and public class method of the qmeas
    layer modules, in place, under every name any qmeas module binds it to."""
    import importlib
    from concurrent.futures import ThreadPoolExecutor

    mods = {m: importlib.import_module(f"qmeas.{m}") for m in LAYER_MODULES}
    replace = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replace[id(obj)] = _wrap(rec, obj, f"{short}.{attr}", short)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (not meth.startswith("_")
                                                   or meth in ("__init__", "__post_init__")):
                        setattr(obj, meth, _wrap(rec, fn, f"{short}.{attr}.{meth}", short))
    for name, mod in list(sys.modules.items()):
        if name != "qmeas" and not name.startswith("qmeas."):
            continue
        for attr, obj in list(vars(mod).items()):
            wrapped = replace.get(id(obj))
            if wrapped is not None and wrapped.__perfbench_original__ is obj:
                setattr(mod, attr, wrapped)

    submit = ThreadPoolExecutor.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        st = rec.stack()
        base = [st[-1]] if st else []

        def run(*a, **kw):
            rec.local.stack = list(base)
            try:
                return fn(*a, **kw)
            finally:
                rec.local.stack = []

        return submit(self, run, *args, **kwargs)

    ThreadPoolExecutor.submit = traced_submit


def _main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <qmeas argv>", file=sys.stderr)
        return 2
    out_path, job_argv = argv[0], argv[2:]
    rec = _Recorder()
    from qmeas import cli

    install(rec)
    try:
        code = cli.main(job_argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters}, fh)
    return code


# ------------------------------------------------------------ span arithmetic


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    out = []
    for idx, (_, _, start, end, _, _) in enumerate(spans):
        kids = [(max(k[2], start), min(k[3], end)) for k in children.get(idx, ())]
        out.append((end - start) - _union_length([k for k in kids if k[1] > k[0]]))
    return out


def summarize_job(trace: dict) -> dict:
    """Self time per span name and per module, call counts, counters, and
    the wall time the spans cover (for the residual against the job time)."""
    # a span still open when main returned counts as empty; keeping it keeps
    # the parent indices valid
    spans = [s if s[3] is not None else s[:3] + [s[2]] + s[4:] for s in trace["spans"]]
    by_name, by_module, calls = {}, {}, {}
    for s, t in zip(spans, self_times(spans)):
        by_name[s[0]] = by_name.get(s[0], 0.0) + t
        by_module[s[1]] = by_module.get(s[1], 0.0) + t
        if s[5] == "call":
            calls[s[0]] = calls.get(s[0], 0) + 1
    covered = _union_length([(s[2], s[3]) for s in spans])
    return {"self_by_name": by_name, "self_by_module": by_module, "calls": calls,
            "counters": dict(trace["counters"]), "covered_s": covered}


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
