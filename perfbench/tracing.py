"""Spans and counts at dualdeg's layer boundaries, taken from outside the
program: each public function named in LAYERS is replaced by a timing
wrapper wherever it is bound, including names other modules bound with
`from ... import`.  Spans stay in memory and are written once at the end.
"""

import time
from collections import Counter
from functools import wraps

LAYERS = {
    "tableaux": ("determinant", "enumerate_ssyt"),
    "dualpair": ("count_Q_determinant", "enumerate_Q", "in_Q_definition"),
    "diagrams": ("count_P_product", "enumerate_P", "c_statistic", "numerator_polynomial"),
    "posets": ("width", "enumerate_facets", "theta", "theta_inverse", "corners"),
    "jellyfish": ("enumerate_maximal_F", "enumerate_jellyfish"),
    "repdims": ("dim_F_lambda", "dim_weyl"),
    "degree": ("bernstein_degree", "hilbert_report", "verify_all"),
}
COUNT_ITEMS = {"enumerate_ssyt", "enumerate_Q", "enumerate_P", "enumerate_facets", "enumerate_jellyfish"}
BY_FAMILY = {"count_Q_determinant"}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op index, self seconds)
        self.stack = []  # [span index, seconds covered by children]
        self.items = Counter()
        self.op = 0
        self._ssyt = None

    def wrap(self, name, fn, count_items=False, by_family=False):
        spans, stack, items = self.spans, self.stack, self.items

        @wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{args[0].family}" if by_family else name
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[frame[0]] = (label, t0, t1, parent, self.op, t1 - t0 - frame[1])
            if count_items:
                items[name] += len(result)
            return result

        return traced

    def install(self):
        import dualdeg
        from dualdeg import cli, degree, diagrams, dualpair, jellyfish, posets, repdims, tableaux

        modules = [dualdeg, cli, degree, diagrams, dualpair, jellyfish, posets, repdims, tableaux]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        self._ssyt = tableaux.enumerate_ssyt
        for modname, funcs in LAYERS.items():
            for func in funcs:
                original = getattr(by_name[modname], func)
                traced = self.wrap(f"{modname}.{func}", original, func in COUNT_ITEMS, func in BY_FAMILY)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
        for suite, fn in list(degree.SUITES.items()):
            degree.SUITES[suite] = self.wrap(f"degree.suite.{suite}", fn)
        degree._suite_random = self.wrap("degree.suite.random-determinant", degree._suite_random)

    def stats(self, factors):
        """Per-layer totals; seconds are scaled by each operation's calibration factor."""
        out = Counter()
        for label, t0, t1, _, op, self_s in self.spans:
            if label.startswith("degree.suite."):
                out[f"{label}.s"] += (t1 - t0) * factors[op]
                continue
            base = label.rsplit(".", 1)[0] if label.split(".")[1] in BY_FAMILY else label
            out[f"{base}.calls"] += 1
            out[f"{label}.self_s"] += self_s * factors[op]
        for name, n in self.items.items():
            out[f"{name}.items"] = n
        out["tableaux.enumerate_ssyt.cache_hits"] = self._ssyt.cache_info().hits
        return dict(out)

    def write(self, path):
        """All spans as tab-separated lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for label, t0, t1, parent, _, _ in self.spans:
                fh.write(f"{label}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
