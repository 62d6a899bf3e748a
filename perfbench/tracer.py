"""Out-of-program tracing for the traced pass.

The tracer replaces every public function of the ``qshift`` modules with a
timing wrapper, under each name that binds it: ``from .coefficients import
rank_rational`` gives ``qshift.cohomology`` its own reference, so patching
only the defining module would miss those calls.  A span stack turns the
nested wall times into self times (a span's duration minus the durations of
the wrapped calls it made).  ``HSeries.__init__`` gets a counting wrapper
with no clock, for ``coefficients.HSeries.created``.

``install`` and ``restore`` are the only entry points that touch the
program's modules; ``assert_pristine`` shows that a pass timed for the
end-to-end metrics runs on the program's own functions.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict


def _matrix_stats(rows):
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "nnz": sum(1 for row in rows for v in row if v)}


def _on_entry_matrix(args, kwargs):
    return _matrix_stats(args[0] if args else kwargs["rows"])


def _on_exit_solve(result):
    return {"unsolvable": 1 if result is None else 0}


def _on_exit_element_keys(result):
    return {"keys": sum(len(keys) for keys in result.values())}


def _on_exit_operator_keys(result):
    return {"keys": len(result)}


# Extra counts taken at kernel entry (matrix shape and fill) or from the
# result, keyed by span name.
ON_ENTRY = {
    "coefficients.rank_rational": _on_entry_matrix,
    "coefficients.solve_rational": _on_entry_matrix,
}
ON_EXIT = {
    "coefficients.solve_rational": _on_exit_solve,
    "cohomology.element_keys_in_window": _on_exit_element_keys,
    "quantise.operator_keys_in_window": _on_exit_operator_keys,
}

_MARK = "__perfbench_wrapped__"
PACKAGE = "qshift"


def program_modules():
    """The loaded modules of the package, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))]


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                and obj.__module__.startswith(PACKAGE + ".")):
            yield attr, obj


class Tracer:
    """Self time, call counts and kernel shapes per public function."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.active = False
        self._stack = []
        self._patched = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn):
        name = _span_name(fn)
        stats = self.stats[name]
        stack = self._stack
        on_entry = ON_ENTRY.get(name)
        on_exit = ON_EXIT.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                if on_entry is not None:
                    for key, value in on_entry(args, kwargs).items():
                        stats[key] += value
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stats["self_s"] += elapsed - stack.pop()
                stats["calls"] += 1
                if stack:
                    stack[-1] += elapsed
            if on_exit is not None:
                for key, value in on_exit(result).items():
                    stats[key] += value
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, fn)
        return wrapper

    def _counting_init(self, init):
        stats = self.stats["coefficients.HSeries"]
        tracer = self

        def __init__(obj, *args, **kwargs):
            if tracer.active:
                stats["created"] += 1
            init(obj, *args, **kwargs)

        setattr(__init__, _MARK, init)
        return __init__

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every public function under every module name binding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        assert_pristine()
        wrappers = {}
        for module in program_modules():
            for attr, fn in list(_public_functions(module)):
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._patch(module, attr, wrappers[fn])
        hseries = sys.modules[PACKAGE + ".coefficients"].HSeries
        self._patch(hseries, "__init__", self._counting_init(hseries.__init__))

    def restore(self):
        """Put every original back, then prove that none is left wrapped."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        assert_pristine()

    def call(self, fn):
        """Run ``fn()`` traced.  Returns ``(error, result, seconds, None)``,
        the shape of ``SpeedProbe.call``."""
        error = out = None
        self.active = True
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the caller counts it as a failed job
            error = exc
        finally:
            elapsed = time.perf_counter() - t0
            self.active = False
        return error, out, elapsed, None

    def finish(self, times, spans):
        """No reference seconds for a traced pass."""
        return None

    # -- results ----------------------------------------------------------

    def flat(self):
        """``{"<module>.<function>.<stat>": value}`` for every span."""
        return {f"{name}.{stat}": value
                for name, stats in self.stats.items()
                for stat, value in stats.items()}

    def self_time_by_module(self):
        out = defaultdict(float)
        for name, stats in self.stats.items():
            out[name.split(".", 1)[0]] += stats.get("self_s", 0.0)
        return dict(out)


def assert_pristine():
    """Raise unless every public function and ``HSeries.__init__`` of the
    package is the program's own object, not a tracing wrapper."""
    wrapped = [f"{module.__name__}.{attr}"
               for module in program_modules()
               for attr, fn in _public_functions(module)
               if hasattr(fn, _MARK)]
    hseries = sys.modules[PACKAGE + ".coefficients"].HSeries
    if hasattr(hseries.__init__, _MARK):
        wrapped.append("HSeries.__init__")
    if wrapped:
        raise RuntimeError(f"tracing wrappers still installed: {wrapped[:5]}")
