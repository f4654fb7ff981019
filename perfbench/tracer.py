"""Per-layer spans for the benchmark, recorded from outside the program.

Each target is a public kweave function or method. `Tracer.installed()`
replaces it with a timing wrapper at every binding a caller can look it up
through: the defining module, every kweave module that from-imported it,
and the class that owns a method. Patching only the defining module would
miss callers such as `mkl` (its own from-import of `kspace.sample_batch`)
or `baselines` (its own `select_C`), and would record zero calls for them.
`check_structure` then compares every wrapper's call count with the count
the protocol implies, so a wrapper that misses its target fails the run.

Layer times are inclusive: a span covers its children (`mkl.hinge_s`
contains the `kspace.scores_s` it causes). `experiment.self_s` is the one
exclusive figure: the root span minus the spans directly under it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager


def _rows(args, kwargs, batch):
    return {"rows": batch.z.shape[0], "p": batch.z.shape[1]}


def _kset(args, kwargs, kset):
    return {"pairs": len(kset), "p": kset.stack.shape[0], "n": kset.stack.shape[1]}


def _balanced(args, kwargs, kset):
    return {"pairs": len(kset)}


def _lambda_failures(args, kwargs, result):
    _, records = result
    return {"failed": sum(1 for r in records if r["val_hinge"] is None)}


def _pegasos(args, kwargs, model):
    return {"steps": model.steps_run}


def _smo(args, kwargs, model):
    return {"iterations": model.iterations, "nonconverged": int(not model.converged)}


def _jitter(args, kwargs, ovr):
    return {"jitter": int(kwargs.get("jitter", 0.0) > 0.0)}


def _bank(args, kwargs, bank):
    return {"grams": bank.p, "bytes": bank.p * bank.n * bank.n * 8}


def _dropped(args, kwargs, result):
    return {"dropped": len(result[1])}


# (module, function or Class.method, span name, probe of the return value)
TARGETS = (
    ("kweave.kspace", "sample_batch", "kspace.gather", _rows),
    ("kweave.kspace", "KExampleSet.scores", "kspace.scores", None),
    ("kweave.kspace", "make_kexamples", "kspace.build", _kset),
    ("kweave.kspace", "balance", "kspace.balance", _balanced),
    ("kweave.mkl", "select_lambda", "mkl.select_lambda", _lambda_failures),
    ("kweave.mkl", "pegasos_train", "mkl.pegasos", _pegasos),
    ("kweave.mkl", "hinge_loss", "mkl.hinge", None),
    ("kweave.svm", "select_C", "svm.select_C", None),
    ("kweave.svm", "ovr_train", "svm.ovr", _jitter),
    ("kweave.svm", "smo_train", "svm.smo", _smo),
    ("kweave.kernels", "build_kernel_bank", "kernels.bank_build", _bank),
    ("kweave.kernels", "center_bank", "kernels.center", _dropped),
    ("kweave.kernels", "compute_cross_gram", "kernels.cross_gram", None),
    ("kweave.kernels", "center_standardize_apply", "kernels.cross_center", None),
    ("kweave.kernels", "combine", "kernels.combine", None),
    ("kweave.kernels", "combine_cross", "kernels.combine_cross", None),
    ("kweave.baselines", "best_kernel", "baselines.best_kernel", None),
    ("kweave.data", "holdout_split", "data.holdout_split", None),
    ("kweave.data", "kfold_plan", "data.kfold_plan", None),
    ("kweave.data", "FeatureScaler.fit", "data.scaler_fit", None),
    ("kweave.data", "FeatureScaler.apply", "data.scaler_apply", None),
)

# The K-space counting-law check needs only this one wrapper; it is all an
# untraced run installs (one call per split).
PAIR_COUNTER = tuple(t for t in TARGETS if t[2] == "kspace.build")

ROOT = "experiment.run_experiment"


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = {}


class Tracer:
    """Records nested spans of the wrapped targets while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list = []

    def _enter(self, name) -> Span:
        span = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        s = self._enter(name)
        try:
            yield s
        finally:
            self._exit(s)

    def _wrap(self, fn, name, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(s)
            if probe is not None:
                s.info = probe(args, kwargs, result)
            return result

        return traced

    def _patch(self, holder, attr, value):
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def _install_one(self, modname, qualname, name, probe):
        module = importlib.import_module(modname)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, probe)))
            else:
                self._patch(cls, attr, self._wrap(raw, name, probe))
            return
        fn = getattr(module, qualname)
        traced = self._wrap(fn, name, probe)
        for modkey, mod in list(sys.modules.items()):
            if mod is None or not (modkey == "kweave" or modkey.startswith("kweave.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, traced)

    @contextmanager
    def installed(self):
        try:
            for target in self.targets:
                self._install_one(*target)
            yield self
        finally:
            while self._patches:
                holder, attr, original = self._patches.pop()
                setattr(holder, attr, original)

    def by_name(self) -> dict:
        groups: dict = {t[2]: [] for t in self.targets}
        for s in self.spans:
            groups.setdefault(s.name, []).append(s)
        return groups


def _within(spans, span, name) -> bool:
    i = span.parent
    while i is not None:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer times (s), counts and computed byte counts of one split."""
    spans = tracer.spans
    by = tracer.by_name()

    def total(name, keep=lambda s: True):
        return sum(s.end - s.start for s in by[name] if keep(s))

    def info(name, key):
        return sum(s.info.get(key, 0) for s in by[name])

    root = next(i for i, s in enumerate(spans) if s.name == ROOT)
    children = sum(s.end - s.start for s in spans if s.parent == root)
    rows = info("kspace.gather", "rows")
    steps = info("mkl.pegasos", "steps")
    pair_steps = info("svm.smo", "iterations")
    return {
        "kspace.gather_s": total("kspace.gather"),
        "kspace.gather_calls": len(by["kspace.gather"]),
        "kspace.gather_rows": rows,
        "kspace.gather_bytes": sum(
            s.info.get("rows", 0) * s.info.get("p", 0) * 8 for s in by["kspace.gather"]
        ),
        "kspace.gather_rows_per_s": _rate(rows, total("kspace.gather")),
        "kspace.scores_s": total("kspace.scores"),
        "kspace.build_s": total("kspace.build"),
        "kspace.pairs": info("kspace.build", "pairs"),
        "kspace.balanced_pairs": info("kspace.balance", "pairs"),
        "kspace.stack_bytes": sum(
            s.info.get("p", 0) * s.info.get("n", 0) ** 2 * 8 for s in by["kspace.build"]
        ),
        "mkl.select_lambda_s": total("mkl.select_lambda"),
        "mkl.final_s": total(
            "mkl.pegasos", lambda s: not _within(spans, s, "mkl.select_lambda")
        ),
        "mkl.pegasos_runs": len(by["mkl.pegasos"]),
        "mkl.pegasos_steps": steps,
        "mkl.steps_per_s": _rate(steps, total("mkl.pegasos")),
        "mkl.hinge_s": total("mkl.hinge"),
        "mkl.failed_lambdas": info("mkl.select_lambda", "failed"),
        "svm.select_C_s": total("svm.select_C"),
        "svm.final_ovr_s": total("svm.ovr", lambda s: not _within(spans, s, "svm.select_C")),
        "svm.smo_fits": len(by["svm.smo"]),
        "svm.smo_pair_steps": pair_steps,
        "svm.pair_steps_per_s": _rate(pair_steps, total("svm.smo")),
        "svm.nonconverged": info("svm.smo", "nonconverged"),
        "svm.jitter_retries": info("svm.ovr", "jitter"),
        "kernels.bank_build_s": total("kernels.bank_build"),
        "kernels.center_s": total("kernels.center"),
        "kernels.cross_s": total("kernels.cross_gram") + total("kernels.cross_center"),
        "kernels.combine_s": total("kernels.combine") + total("kernels.combine_cross"),
        "kernels.grams": info("kernels.bank_build", "grams"),
        "kernels.dropped": info("kernels.center", "dropped"),
        "kernels.bank_bytes": info("kernels.bank_build", "bytes"),
        "baselines.best_kernel_s": total("baselines.best_kernel"),
        "data.split_s": sum(
            total(n)
            for n in ("data.holdout_split", "data.kfold_plan", "data.scaler_fit",
                      "data.scaler_apply")
        ),
        "experiment.self_s": (spans[root].end - spans[root].start) - children,
    }


def check_structure(tracer, layers, method, n_classes, n_lambdas, n_C, folds, p) -> list:
    """Problems found comparing each wrapper's call count with the protocol.

    p is the number of kernels kept after centering, taken from the report
    rather than from a wrapper. One split runs, for tsmkl: |lambda grid| + 1
    Pegasos fits, one gather per Pegasos step, and n_classes * (|C grid| *
    folds + 1) SMO fits; for best_kernel: no K-space work and n_classes *
    (|C grid| * folds * (p + 1) + 1) SMO fits. A jitter retry adds
    n_classes fits.
    """
    final_fits = n_classes * (1 + layers["svm.jitter_retries"])
    expect = {
        "data.holdout_split": 1,
        "data.scaler_fit": 1,
        "data.scaler_apply": 2,
        "kernels.bank_build": 1,
        "kernels.center": 1,
        "kernels.cross_gram": p,
        "kernels.cross_center": p,
        "kernels.combine": 1,
        "kernels.combine_cross": 1,
    }
    if method == "tsmkl":
        expect.update({
            "kspace.build": 1,
            "kspace.balance": 1,
            "mkl.select_lambda": 1,
            "mkl.pegasos": n_lambdas + 1,
            "mkl.hinge": 2 * n_lambdas + 1,
            "kspace.scores": 2 * n_lambdas + 1,
            "kspace.gather": layers["mkl.pegasos_steps"],
            "baselines.best_kernel": 0,
            "svm.select_C": 1,
            "svm.ovr": n_C * folds + 1 + layers["svm.jitter_retries"],
            "svm.smo": n_classes * n_C * folds + final_fits,
            "data.kfold_plan": 1,
        })
    elif method == "best_kernel":
        expect.update({
            "kspace.build": 0,
            "kspace.balance": 0,
            "mkl.select_lambda": 0,
            "mkl.pegasos": 0,
            "mkl.hinge": 0,
            "kspace.scores": 0,
            "kspace.gather": 0,
            "baselines.best_kernel": 1,
            "svm.select_C": p + 1,
            "svm.ovr": n_C * folds * (p + 1) + 1 + layers["svm.jitter_retries"],
            "svm.smo": n_classes * n_C * folds * (p + 1) + final_fits,
            "data.kfold_plan": 2,
        })
    else:
        return [f"no call-count structure for method {method!r}"]
    problems = []
    missing = {t[2] for t in tracer.targets} - set(expect)
    if missing:
        problems.append(f"no expected count for wrappers {sorted(missing)}")
    by = tracer.by_name()
    for name, want in sorted(expect.items()):
        got = len(by.get(name, ()))
        if got != want:
            problems.append(f"{name}: {got} calls, protocol implies {want}")
    if layers["mkl.failed_lambdas"]:
        problems.append(f"{layers['mkl.failed_lambdas']} lambda values failed")
    return problems
