"""Outside-in call tracing for the dremnet layers.

The package carries no spans of its own yet, so the benchmark times its
public functions from outside: every module-global name in ``dremnet.*``
that refers to a traced function is rebound to a timing wrapper, which also
catches the calls the package makes internally (``harness`` calls
``step_tables`` and ``extend`` through its own globals). ``uninstall``
restores the original objects, so untraced operations pay nothing.

Per function the tracer keeps the call count, the inclusive time and the
self time (inclusive time minus the time of traced callees). Spans are
aggregated per function instead of stored one by one, because the per-step
functions are called hundreds of thousands of times per operation.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs; metric names are "<module>.<function>.{calls,s,self_s}"
TARGETS = (
    ("harness", "run_monte_carlo"),
    ("harness", "run_single"),
    ("harness", "step_tables"),
    ("harness", "check_scenario"),
    ("harness", "export_csv"),
    ("model", "noise_block"),
    ("model", "sample_noise"),
    ("model", "regressor_at"),
    ("drem", "extend"),
    ("drem", "drem_transform"),
    ("estimator", "node_step"),
    ("topology", "in_neighbors"),
    ("topology", "out_neighbors"),
    ("topology", "closed_in_neighborhood"),
    ("excitation", "find_certificate"),
    ("excitation", "local_pe_check"),
    ("excitation", "single_sensor_pe"),
    ("analysis", "theorem_check"),
    ("analysis", "moments"),
    ("analysis", "step_coefficients"),
    ("analysis", "mean_recursion"),
    ("analysis", "covariance_recursion"),
    ("analysis", "export_oracle_csv"),
)

NOISE_DRAWS = "model.noise.draws"


def _noise_block_draws(args, kwargs) -> int:
    steps = kwargs["steps"] if "steps" in kwargs else args[2]
    return max(int(steps), 0)


def _one_draw(args, kwargs) -> int:
    return 1


# functions whose arguments give a work count besides the call count
_DRAW_COUNTERS = {"model.noise_block": _noise_block_draws, "model.sample_noise": _one_draw}


def function_names() -> tuple[str, ...]:
    return tuple(f"{m}.{f}" for m, f in TARGETS)


class Tracer:
    """Counts and times calls into the traced dremnet functions."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in function_names()}
        self.draws = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for st in self.stats.values():
            st[0], st[1], st[2] = 0, 0.0, 0.0
        self.draws = 0

    def snapshot(self) -> dict:
        """Per-function (calls, s, self_s) since reset."""
        return {name: tuple(st) for name, st in self.stats.items()}

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "dremnet" or name.startswith("dremnet."))
        ]
        for mod_name, fn_name in TARGETS:
            home = sys.modules[f"dremnet.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            m, attr, original = self._patches.pop()
            setattr(m, attr, original)
        self._stack.clear()

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        draws = _DRAW_COUNTERS.get(name)

        def traced(*args, **kwargs):
            if draws is not None:
                self.draws += draws(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
                if stack:
                    stack[-1] += dt

        return traced
