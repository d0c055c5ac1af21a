"""Spans around the calls into datarecon's layers, and the per-layer figures
derived from them.

``install`` wraps the package's public functions and the model methods,
from the outside: nothing in the package changes. Each call becomes a span
(name, start, end, parent) held in memory and written out once, at the end
of the process. ``layer_metrics`` turns a spans file into the per-layer
figures the benchmark reports.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict

# (module attribute, span name) pairs wrapped in each module's namespace.
# A function imported by name into another module is wrapped there too,
# since that is where the caller looks it up.
MODULE_FUNCTIONS = {
    "cli": [("load_config", "cli.load_config"), ("build_model", "cli.build_model"),
            ("rwm_draws", "samplers.rwm_draws"), ("load_dataset", "measures.load_dataset"),
            ("run_attack", "attack.run_attack"), ("save_measure", "measures.save_measure"),
            ("recon_statistics", "measures.recon_statistics")],
    "attack": [("initialize_pseudo", "attack.initialize_pseudo"),
               ("draw_slices", "attack.draw_slices"), ("adam_update", "attack.adam_update"),
               ("objective_value", "attack.objective_value"),
               ("recon_statistics", "measures.recon_statistics"),
               ("stat_errors", "measures.stat_errors"),
               ("build_measure", "measures.build_measure")],
}

MODEL_METHODS = (
    "check_theta", "check_draws", "log_lik_batch", "log_prior",
    "score_batch", "trace_batch", "quad_batch", "jac_score_batch",
    "grad_trace_batch", "grad_quad_batch",
    "prior_score_batch", "prior_trace_batch", "prior_quad_batch",
    "predict_mean", "noise_scale",
    "grad_theta_batch", "jac_data_batch", "reg_grad",
)

MODEL_CLASSES = ("GaussianMeanLocation", "BayesLinReg", "KidScoreModel",
                 "SquaredErrorLoss", "LogisticLoss")

LAYERS = ("cli", "samplers", "models", "attack", "measures")


class Tracer:
    """In-memory span recorder. Spans nest through a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.out_bytes: list[int] = []
        self._open = [-1]

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1])
            self.starts.append(0)
            self.ends.append(0)
            self.out_bytes.append(0)
            self._open.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._open.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
            self.out_bytes[idx] = getattr(out, "nbytes", 0)
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["name", "start_ns", "end_ns", "parent", "out_bytes"])
            w.writerows(zip(self.names, self.starts, self.ends, self.parents,
                            self.out_bytes))


def install(tracer: Tracer) -> None:
    """Wrap datarecon's public functions and model methods with spans."""
    from datarecon import attack, cli, models

    modules = {"cli": cli, "attack": attack}
    for mod_name, pairs in MODULE_FUNCTIONS.items():
        mod = modules[mod_name]
        for attr, span in pairs:
            setattr(mod, attr, tracer.wrap(span, getattr(mod, attr)))
    cli.attack.callback = tracer.wrap("cli.attack", cli.attack.callback)
    attack.AttackTrace.write_csv = tracer.wrap("attack.trace_write",
                                               attack.AttackTrace.write_csv)
    for cls_name in MODEL_CLASSES:
        cls = getattr(models, cls_name)
        for meth in MODEL_METHODS:
            fn = getattr(cls, meth, None)
            if fn is not None:
                setattr(cls, meth, tracer.wrap(f"models.{meth}", fn))


# --- aggregation -----------------------------------------------------------

def read_spans(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(r[0], int(r[1]), int(r[2]), int(r[3]), int(r[4])) for r in rows]


def layer_metrics(spans, iters: int, rwm_steps: int, import_ms: float) -> dict:
    """Per-layer figures of one traced process.

    Model-callback times are means per call over the calls made by the
    attack's iteration loop (spans whose parent is ``attack.run_attack``);
    ``per iteration`` figures divide loop totals by ``iters``.
    """
    n = len(spans)
    child_ns = [0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0

    incl = defaultdict(float)        # inclusive ns per name
    calls = defaultdict(int)
    self_layer = defaultdict(float)  # self ns per layer
    loop_ns = defaultdict(float)     # inclusive ns of the loop's direct calls
    loop_calls = defaultdict(int)
    loop_bytes = 0
    run_idx = next(i for i, s in enumerate(spans) if s[0] == "attack.run_attack")
    for i, (name, t0, t1, parent, nbytes) in enumerate(spans):
        dur = t1 - t0
        incl[name] += dur
        calls[name] += 1
        self_layer[name.split(".")[0]] += dur - child_ns[i]
        if parent == run_idx:
            loop_ns[name] += dur
            loop_calls[name] += 1
            if name.startswith("models."):
                loop_bytes += nbytes

    def per_call(name, scale, table=incl, counts=calls):
        return table[name] / counts[name] / scale if counts[name] else 0.0

    def loop_mean(meth, scale):
        return per_call(f"models.{meth}", scale, loop_ns, loop_calls)

    run_ns = incl["attack.run_attack"]
    iteration_ns = (run_ns - incl["attack.initialize_pseudo"]
                    - incl["attack.objective_value"]) / iters
    prior_ns = sum(loop_ns[f"models.prior_{k}_batch"] for k in ("score", "trace", "quad"))
    record_ns = loop_ns["measures.recon_statistics"] + loop_ns["measures.stat_errors"]
    checkpoints = loop_calls["measures.recon_statistics"]
    model_loop_calls = sum(c for k, c in loop_calls.items() if k.startswith("models."))
    run_self_ns = (run_ns - child_ns[run_idx]) / iters
    rwm_ns = incl["samplers.rwm_draws"]
    m = {
        "samplers.rwm_draws_s": rwm_ns / 1e9,
        "samplers.rwm_step_us": rwm_ns / rwm_steps / 1e3 if rwm_steps else 0.0,
        "models.log_lik_batch_us": per_call("models.log_lik_batch", 1e3),
        "models.score_batch_ms": loop_mean("score_batch", 1e6),
        "models.jac_score_batch_ms": loop_mean("jac_score_batch", 1e6),
        "models.quad_batch_ms": loop_mean("quad_batch", 1e6),
        "models.grad_quad_batch_ms": loop_mean("grad_quad_batch", 1e6),
        "models.trace_batch_ms": loop_mean("trace_batch", 1e6),
        "models.grad_trace_batch_ms": loop_mean("grad_trace_batch", 1e6),
        "models.prior_ms": prior_ns / iters / 1e6,
        "models.grad_theta_batch_us": loop_mean("grad_theta_batch", 1e3),
        "models.jac_data_batch_us": loop_mean("jac_data_batch", 1e3),
        "models.callback_out_mb_per_iter": loop_bytes / iters / 1e6,
        "attack.iteration_ms": iteration_ns / 1e6,
        "attack.objective_self_ms": run_self_ns / 1e6,
        "attack.initialize_pseudo_ms": incl["attack.initialize_pseudo"] / 1e6,
        "attack.draw_slices_ms": per_call("attack.draw_slices", 1e6),
        "attack.adam_update_us": per_call("attack.adam_update", 1e3),
        "attack.record_us": record_ns / checkpoints / 1e3 if checkpoints else 0.0,
        "attack.model_calls_per_iter": model_loop_calls / iters,
        "attack.trace_write_ms": incl["attack.trace_write"] / 1e6,
        "measures.load_dataset_ms": incl["measures.load_dataset"] / 1e6,
        "measures.save_measure_ms": incl["measures.save_measure"] / 1e6,
        "cli.import_ms": import_ms,
        "cli.load_config_ms": incl["cli.load_config"] / 1e6,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_layer[layer] / 1e6
    return m
