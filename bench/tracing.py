"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each qident layer in every
module namespace that binds them, so calls made through `from .x import f`
bindings are traced too.  Each wrapper records a span on a per-thread stack:
calls, self time (span minus the spans of traced callees) and a few counts
read from the arguments or the result.  Nothing inside `src/` changes.

Self time is wall time.  On the worker threads of `cli.run` it includes time
spent waiting for the interpreter lock.
"""

from __future__ import annotations

import resource
import threading
import time

# (layer, function) pairs whose calls and self time are reported.
TIMED = {
    "qcore": ("poch_int", "poch_inf", "theta", "epoch", "pair_poch_ratio"),
    "series": ("eval_phi", "eval_psi"),
    "partitions": ("subpartitions", "horizontal_strip_predecessors",
                   "interlacing_vectors"),
    "wfunc": ("w_skew_single", "w_multi", "zw_skew_single", "zw_multi",
              "w_degree", "theta_quotient", "zw_multi_reg"),
    "identities": ("sample_params", "run_case", "mlat_3psi3_summand",
                   "mlat_finite_summand"),
    "cli": ("run", "report_json", "write_csv"),
}

ALL_CASES = ("jackson8phi7", "bailey10phi9", "bailey6psi6", "ramanujan1psi1",
             "c1macdonald", "flippedsummand", "bilateralfinite", "3psi3delta0",
             "3psi3delta1", "multijackson", "simplifiedjackson", "duality", "flip",
             "weyldegree", "multilateralfinite", "multilateral3psi3",
             "summandinvariance")


def per_layer_spec():
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for f in TIMED["qcore"]:
        spec += [(f"qcore.{f}.calls", "count", "lower"),
                 (f"qcore.{f}.self_ms", "ms", "lower")]
    for f in TIMED["series"]:
        spec += [(f"series.{f}.calls", "count", "lower"),
                 (f"series.{f}.self_ms", "ms", "lower"),
                 (f"series.{f}.terms", "count", "lower")]
    for f in TIMED["partitions"]:
        spec += [(f"partitions.{f}.calls", "count", "lower"),
                 (f"partitions.{f}.self_ms", "ms", "lower")]
    for f in ("w_skew_single", "w_multi", "zw_skew_single", "zw_multi", "w_degree"):
        spec += [(f"wfunc.{f}.calls", "count", "lower"),
                 (f"wfunc.{f}.self_ms", "ms", "lower")]
    spec += [("wfunc.theta_quotient.calls", "count", "lower"),
             ("wfunc.theta_quotient.self_ms", "ms", "lower"),
             ("wfunc.theta_quotient.args", "count", "lower"),
             ("wfunc.zw_multi_reg.calls", "count", "lower"),
             ("wfunc.zw_multi_reg.fallbacks", "count", "lower"),
             ("identities.sample_params.self_ms", "ms", "lower"),
             ("identities.run_case.self_ms", "ms", "lower")]
    for f in ("mlat_3psi3_summand", "mlat_finite_summand"):
        spec += [(f"identities.{f}.calls", "count", "lower"),
                 (f"identities.{f}.nonzero", "count", "lower"),
                 (f"identities.{f}.self_ms", "ms", "lower")]
    spec.append(("identities.multilateral3psi3.points", "count", "lower"))
    spec += [(f"identities.{c}.ms", "ms", "lower") for c in ALL_CASES]
    spec += [("cli.run.wall_ms", "ms", "lower"),
             ("cli.run.busy_ms", "ms", "lower"),
             ("cli.run.parallel_efficiency", "ratio", "higher"),
             ("cli.report_json.self_ms", "ms", "lower"),
             ("cli.write_csv.self_ms", "ms", "lower"),
             ("trace.samples_per_s", "1/s", "higher")]
    return spec


def _cpu_s():
    """CPU seconds of this process plus its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class Tracer:
    """Span stack per thread; statistics per thread, merged on read."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats = []
        self._pole_errors = ()

    def _state(self):
        loc = self._local
        try:
            return loc.stack, loc.stats
        except AttributeError:
            loc.stack, loc.stats = [], {}
            with self._lock:
                self._thread_stats.append(loc.stats)
            return loc.stack, loc.stats

    def _wrap(self, key, fn, post=None):
        """Wrap fn; post(stat, frame, args, result, elapsed_s) adds
        counts.  A frame is [child_seconds, key, flag]."""
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack, stats = self._state()
            frame = [0.0, key, False]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except self._pole_errors:
                if key == "wfunc.zw_multi" and len(stack) > 1 \
                        and stack[-2][1] == "wfunc.zw_multi_reg":
                    stack[-2][2] = True  # zw_multi_reg falls back to Richardson
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = stats.get(key)
                if st is None:
                    st = stats[key] = {"calls": 0, "self_s": 0.0}
                st["calls"] += 1
                st["self_s"] += dt - frame[0]
            if post is not None:
                post(st, frame, args, result, dt)
            return result

        return traced

    def install(self, modules):
        """Replace each traced function in every module of `modules` (name ->
        module object) that binds it."""
        self._pole_errors = (modules["wfunc"].PoleCancellationError, ZeroDivisionError)
        posts = {
            "series.eval_phi": _post_terms,
            "series.eval_psi": _post_terms,
            "wfunc.theta_quotient": _post_args,
            "wfunc.zw_multi_reg": _post_fallback,
            "identities.mlat_3psi3_summand": _post_nonzero,
            "identities.mlat_finite_summand": _post_nonzero,
            "identities.run_case": _post_run_case,
        }
        for layer, names in TIMED.items():
            home = modules[layer]
            for name in names:
                original = getattr(home, name)
                key = f"{layer}.{name}"
                if key == "cli.run":
                    wrapped = self._wrap_cli_run(original)
                else:
                    wrapped = self._wrap(key, original, posts.get(key))
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def _wrap_cli_run(self, fn):
        inner = self._wrap("cli.run", fn)

        def traced_run(configs, parallelism=1, *args, **kwargs):
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                return inner(configs, parallelism, *args, **kwargs)
            finally:
                wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
                _, stats = self._state()
                st = stats["cli.run"]
                st["wall_s"] = st.get("wall_s", 0.0) + wall
                st["cpu_s"] = st.get("cpu_s", 0.0) + cpu
                st["capacity_s"] = st.get("capacity_s", 0.0) + wall * parallelism

        return traced_run

    # -- read-out -----------------------------------------------------------

    def merged(self):
        """Statistics of all threads, summed per key."""
        out = {}
        with self._lock:
            all_stats = list(self._thread_stats)
        for stats in all_stats:
            for key, st in stats.items():
                agg = out.setdefault(key, {})
                for field, v in st.items():
                    if field == "cases":
                        cases = agg.setdefault("cases", {})
                        for c, rec in v.items():
                            cur = cases.setdefault(c, [0, 0.0, 0])
                            for i in range(3):
                                cur[i] += rec[i]
                    else:
                        agg[field] = agg.get(field, 0) + v
        return out

    def metrics(self, samples_per_s):
        """Every metric of per_layer_spec(), from the merged statistics."""
        m = self.merged()

        def get(key, field, scale=1.0):
            return m.get(key, {}).get(field, 0) * scale

        values = {}
        for name, _, _ in per_layer_spec():
            key, field = name.rsplit(".", 1)
            if field == "self_ms":
                values[name] = get(key, "self_s", 1e3)
            elif field in ("calls", "terms", "args", "fallbacks", "nonzero"):
                values[name] = int(get(key, field))

        cases = m.get("identities.run_case", {}).get("cases", {})
        for c in ALL_CASES:
            rec = cases.get(c)
            values[f"identities.{c}.ms"] = rec[1] / rec[0] * 1e3 if rec else 0.0
        rec = cases.get("multilateral3psi3")
        values["identities.multilateral3psi3.points"] = rec[2] / rec[0] if rec else 0.0

        run = m.get("cli.run", {})
        # Busy time is CPU time of the process (and reaped children) while
        # cli.run is active; capacity is wall time times the requested
        # parallelism, so threads serialised by the interpreter lock give ~1/p.
        values["cli.run.wall_ms"] = run.get("wall_s", 0.0) * 1e3
        values["cli.run.busy_ms"] = run.get("cpu_s", 0.0) * 1e3
        cap = run.get("capacity_s", 0.0)
        values["cli.run.parallel_efficiency"] = run.get("cpu_s", 0.0) / cap if cap else 0.0
        values["trace.samples_per_s"] = samples_per_s
        missing = [name for name, _, _ in per_layer_spec() if name not in values]
        if missing:
            raise RuntimeError(f"per-layer metrics without a value: {missing}")
        return values


def _post_run_case(st, frame, args, result, dt):
    rec = st.setdefault("cases", {}).setdefault(args[0], [0, 0.0, 0])
    rec[0] += 1  # samples
    rec[1] += dt  # inclusive seconds
    rec[2] += result.terms_used


def _post_terms(st, frame, args, result, dt):
    st["terms"] = st.get("terms", 0) + result.terms_used


def _post_args(st, frame, args, result, dt):
    st["args"] = st.get("args", 0) + len(args[0]) + len(args[1])


def _post_fallback(st, frame, args, result, dt):
    if frame[2]:
        st["fallbacks"] = st.get("fallbacks", 0) + 1


def _post_nonzero(st, frame, args, result, dt):
    if result != 0:
        st["nonzero"] = st.get("nonzero", 0) + 1
