"""In-memory span tracer that wraps eigsmooth's public functions from outside.

The library binds many names with ``from .spectral import ...``, so a
function is reachable from several module namespaces at once (for example
``smoothing.lanczos_leading`` and ``optimize.lanczos_leading``). `Tracer`
replaces every such binding in every loaded ``eigsmooth`` module and
restores them all on exit. Methods are patched on their class.

Each span records: id, parent id, run id, name, start, end, whether an
exception escaped, and an optional work count taken from the call.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, attribute) of each traced callable and the work count it reports.
# The self time of a span excludes only traced children, so this list also
# fixes what each layer's self time contains: sample_fk and sample_shifts are
# deliberately untraced, leaving the Gaussian draws and per-sample generators
# inside gradient_oracle and monte_carlo_gap.
TRACED = {
    ("spectral", "check_symmetric"): None,
    ("spectral", "lanczos_leading"): lambda args, kwargs, out: out.matvecs,
    ("spectral", "full_eig"): None,
    ("spectral", "secular_shifts_batch"): lambda args, kwargs, out: len(out),
    ("smoothing", "gradient_oracle"): lambda args, kwargs, out: out.cost_eigvecs,
    ("optimize", "StochasticOracle.evaluate"): None,
    ("optimize", "prox_map_euclidean"): None,
    ("optimize", "acsa_linesearch_run"): None,
    ("optimize", "nesterov_smooth_baseline"): None,
    ("optimize", "softmax_smoothed"): None,
    ("problems", "synthetic_covariance"): None,
    ("problems", "dspca_problem"): None,
    ("problems", "BoxProblem.true_objective"): None,
    ("phase", "monte_carlo_gap"): None,
}

# The monitor is reported as a problems-layer metric, whatever the class.
SPAN_NAMES = {"problems.BoxProblem.true_objective": "problems.true_objective"}


class Tracer:
    """Context manager that patches the traced callables and records spans."""

    def __init__(self):
        self.spans = []      # [id, parent, run, name, start, end, error, count]
        self.missing = []    # traced names absent from the library
        self._stack = []
        self._run = None
        self._undo = []

    @contextlib.contextmanager
    def run(self, run_id):
        """Tag every span opened inside the block with `run_id`."""
        prev, self._run = self._run, run_id
        try:
            yield
        finally:
            self._run = prev

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, self._run, name,
                    time.perf_counter(), None, False, None]
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[7] = count(args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("eigsmooth.")]
        for (mod_name, attr), count in TRACED.items():
            mod = sys.modules.get(f"eigsmooth.{mod_name}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            name = SPAN_NAMES.get(f"{mod_name}.{attr}", f"{mod_name}.{attr}")
            wrapper = self._wrap(name, original, count)
            if owner_name:
                self._patch(owner, leaf, original, wrapper)
                continue
            # every import site: any eigsmooth module bound to the same object
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, key, original, wrapper)
        return self

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False

    def unpatched_sites(self):
        """Import sites still bound to an original traced function (should be
        empty while the tracer is active)."""
        originals = {id(orig) for _, _, orig in self._undo}
        return sorted(
            f"{k}.{key}"
            for k, m in sys.modules.items() if k.startswith("eigsmooth.")
            for key, value in vars(m).items() if id(value) in originals
        )


def layer_totals(spans, run=None):
    """Per span name: calls, inclusive seconds, self seconds (inclusive minus
    direct traced children), summed work count, and errors. With `run` set,
    only spans of that run are counted."""
    child_time = [0.0] * len(spans)
    for sid, parent, _, _, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for sid, _, run_id, name, start, end, error, count in spans:
        if run is not None and run_id != run:
            continue
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0.0, "errors": 0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[sid]
        row["count"] += count or 0
        row["errors"] += int(error)
    return out
