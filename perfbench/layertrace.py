"""Per-layer trace of an in-process CLI run, installed from outside the library.

The tracer replaces public functions of entroproj's modules with timing
wrappers, on every module binding of each name (``entroproj.cli.calibrate``
and ``entroproj.tritree.calibrate`` alike), so calls between functions of
one module are seen too. A function defined outside entroproj, such as
scipy's ``linprog``, is wrapped only on the one module binding named.
Each span's self time is its duration minus the spans it contains.
"""
import functools
import math
import time
from collections import defaultdict

MODULES = ("cli", "iproj", "gibbs", "measures", "bridge", "tritree")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _exact_conditional_counts(args, kwargs, result, exc):
    if exc is None:
        classes = result.n_trials
    else:
        alpha, n = _arg(args, kwargs, 0, "alpha"), _arg(args, kwargs, 1, "n")
        m = len(alpha.space)
        classes = math.comb(n + m - 1, m - 1)
    return {"classes": classes, "failed": int(exc is not None)}


def _mc_counts(args, kwargs, result, exc):
    n, trials = _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 4, "trials")
    accepted = 0 if exc is not None else round(result.acceptance_rate * trials)
    return {"trials": trials, "accepted": accepted, "draws": trials * n}


def _sinkhorn_counts(args, kwargs, result, exc):
    return {"iterations": 0 if exc is not None else len(result.history)}


def _build_tree_counts(args, kwargs, result, exc):
    return {"nodes": (_arg(args, kwargs, 1, "spec").n + 1) ** 2}


# (layer name, module, attribute, work counter)
LAYERS = (
    ("cli.run", "cli", "run", None),
    ("iproj.solve_dual", "iproj", "solve_dual", None),
    ("iproj.log_laplace", "iproj", "log_laplace", None),
    ("iproj.linprog", "iproj", "linprog", None),
    ("gibbs.exact_conditional", "gibbs", "exact_conditional", _exact_conditional_counts),
    ("gibbs.conditional_tv_curve", "gibbs", "conditional_tv_curve", None),
    ("gibbs.product_law", "gibbs", "product_law", None),
    ("gibbs.run_conditional_mc", "gibbs", "run_conditional_mc", _mc_counts),
    ("measures.covering_number", "measures", "covering_number", None),
    ("measures.tv_distance", "measures", "tv_distance", None),
    ("bridge.sinkhorn", "bridge", "sinkhorn", _sinkhorn_counts),
    ("bridge.gaussian_reference", "bridge", "gaussian_reference", None),
    ("bridge.bridge_entropy", "bridge", "bridge_entropy", None),
    ("tritree.build_tree", "tritree", "build_tree", _build_tree_counts),
    ("tritree.expectation", "tritree", "expectation", None),
    ("tritree.tree_entropy_chain", "tritree", "tree_entropy_chain", None),
    ("tritree.calibrate", "tritree", "calibrate", None),
    ("tritree.dl_gap", "tritree", "dl_gap", None),
    ("tritree.I_rate", "tritree", "I_rate", None),
    ("tritree.VolSurface.constant", "tritree", "VolSurface.constant", None),
)


class Tracer:
    """Collects calls, inclusive and self time and work counts per layer.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.
    """

    def __init__(self, package):
        self.package = package
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_s = []
        self._saved = []

    def reset(self):
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.counts.clear()

    def _wrap(self, layer, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            exc = result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span = time.perf_counter() - start
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += span
                self.calls[layer] += 1
                self.total_s[layer] += span
                self.self_s[layer] += span - child
                if count is not None:
                    for key, value in count(args, kwargs, result, exc).items():
                        self.counts[f"{layer}.{key}"] += value
        return traced

    def _modules(self):
        return [self.package] + [getattr(self.package, name) for name in MODULES]

    def _bindings(self, module_name, attr):
        """(namespace, attribute, original) for every binding to wrap."""
        owner = getattr(self.package, module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            return [(cls, method, cls.__dict__[method])]
        original = getattr(owner, attr)
        if not getattr(original, "__module__", "").startswith(self.package.__name__):
            return [(owner, attr, original)]
        return [(module, attr, original) for module in self._modules()
                if module.__dict__.get(attr) is original]

    def __enter__(self):
        for layer, module_name, attr, count in LAYERS:
            for namespace, name, original in self._bindings(module_name, attr):
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(layer, original.__func__, count))
                else:
                    wrapped = self._wrap(layer, original, count)
                self._saved.append((namespace, name, original))
                setattr(namespace, name, wrapped)
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            namespace, name, original = self._saved.pop()
            setattr(namespace, name, original)
        return False

    def restored(self, snapshot):
        """True when every binding in ``snapshot`` is the original object again."""
        return all(namespace.__dict__[name] is original
                   for namespace, name, original in snapshot)

    def snapshot(self):
        """The bindings the tracer would wrap, taken before installing it."""
        return [binding for _, module_name, attr, _ in LAYERS
                for binding in self._bindings(module_name, attr)]
