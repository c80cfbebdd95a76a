"""Per-layer tracing of the package from outside it.

``Tracer.install`` wraps every public function of each layer module, plus
``SparseEchelon.add``, ``FanModel.is_cartier`` and ``FanModel.monomial_degree``,
and puts each wrapper at every import binding of the original in the
package (``ideals``, ``apolarity``, ``secant`` and ``cli`` import ``basis``
by name, and the package re-exports most functions).  A wrapper records a
span ``[name, start, end, parent, job]`` while the tracer is active and
calls straight through otherwise.  Spans stay in memory; ``metrics``
derives the per-layer figures from them and ``write`` dumps them.

``FanModel.monomial_degree`` runs once per candidate exponent vector in the
graded-basis walk (hundreds of thousands of times per job), so it is
counted, not spanned.  ``ring.monomial_key`` is a sort key called per
comparison and is left unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("cli", "fan", "abelian", "ring", "apolarity", "bounds", "ideals",
          "linalg", "secant")
METHODS = (("linalg", "SparseEchelon", "add"),
           ("fan", "FanModel", "is_cartier"))
UNWRAPPED = {"ring.monomial_key"}
BASIS = {"ring.basis", "ring.monomial_basis"}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = "setup"
        self.active = False
        self.extra = {}          # span index -> value recorded by a hook
        self.in_basis = 0
        self.candidates = 0
        self._last_cat = None    # (form, degree) of the last catalecticant
        self._seen_basis = weakref.WeakKeyDictionary()
        self._rank_keys = set()
        self.basis_distinct = 0
        self.basis_monomials = 0
        self.rank_distinct = 0

    # -- installation ------------------------------------------------------

    def install(self, package: str = "toric_apolarity"):
        layers = {layer: importlib.import_module(f"{package}.{layer}")
                  for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        replace = {}
        for layer, mod in layers.items():
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")
                        and f"{layer}.{name}" not in UNWRAPPED):
                    replace[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(layers[layer], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        fan_cls = layers["fan"].FanModel
        fan_cls.monomial_degree = self._count_candidates(
            fan_cls.__dict__["monomial_degree"])

    def _count_candidates(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_basis and self.active:
                self.candidates += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        is_basis = name in BASIS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(rec)
            stack.append(idx)
            if is_basis:
                self.in_basis += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if is_basis:
                    self.in_basis -= 1
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result
        return wrapper

    def start_job(self, job_id):
        self.job = job_id
        self._rank_keys = set()

    # -- hooks: shape data read from arguments and results -----------------

    def _basis_request(self, idx, fan, degree, result):
        parent = self.spans[idx][3]
        if parent >= 0 and self.spans[parent][0] in BASIS:
            return                     # inner call of an outer basis span
        self.extra[idx] = "outer"
        seen = self._seen_basis.setdefault(fan, set())
        if degree not in seen:
            seen.add(degree)
            self.basis_distinct += 1
            self.basis_monomials += len(result)

    def _hook_ring_basis(self, idx, args, kwargs, result):
        self._basis_request(idx, _arg(args, kwargs, 0, "fan"),
                            _arg(args, kwargs, 1, "degree"), result)

    def _hook_ring_monomial_basis(self, idx, args, kwargs, result):
        self._basis_request(idx, _arg(args, kwargs, 0, "fan"),
                            _arg(args, kwargs, 2, "degree"), result)

    def _hook_apolarity_catalecticant_entries(self, idx, args, kwargs, result):
        form = _arg(args, kwargs, 0, "form")
        self._last_cat = (form, _arg(args, kwargs, 1, "degree"))
        rows, cols, _ = result
        self.extra[idx] = len(rows) * len(cols)

    def _hook_apolarity_exact_rank(self, idx, args, kwargs, result):
        if self._last_cat is None:
            return
        form, degree = self._last_cat
        key = (id(form), frozenset((degree, form.degree - degree)))
        if key not in self._rank_keys:
            self._rank_keys.add(key)
            self.rank_distinct += 1

    def _hook_linalg_rank_bareiss(self, idx, args, kwargs, result):
        rows = _arg(args, kwargs, 0, "rows")
        self.extra[idx] = len(rows) * (len(rows[0]) if rows else 0)

    def _rows(self, idx, args, kwargs, result):
        self.extra[idx] = len(_arg(args, kwargs, 0, "rows"))

    _hook_linalg_rank_mod = _rows
    _hook_linalg_det_mod = _rows
    _hook_linalg_det_bareiss = _rows

    def _hook_linalg_SparseEchelon_add(self, idx, args, kwargs, result):
        self.extra[idx] = bool(result)

    def _hook_ideals_length_estimate(self, idx, args, kwargs, result):
        self.extra[idx] = len(result.samples)

    def _hook_secant_terracini_probe(self, idx, args, kwargs, result):
        self.extra[idx] = result.trials

    # -- derived metrics -----------------------------------------------------

    def metrics(self, scale: float) -> dict:
        """Per-layer figures; ``scale`` converts raw seconds to the
        benchmark's calibrated seconds."""
        spans = self.spans
        children = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        by_name = defaultdict(list)
        for idx, span in enumerate(spans):
            by_name[span[0]].append(idx)

        def dur(idx):
            return spans[idx][2] - spans[idx][1]

        def outer_total(names):
            names = set(names)
            total = 0.0
            for name in names:
                for idx in by_name[name]:
                    parent = spans[idx][3]
                    while parent >= 0 and spans[parent][0] not in names:
                        parent = spans[parent][3]
                    if parent < 0:
                        total += dur(idx)
            return total * scale

        def self_time(layer):
            prefix = layer + "."
            return scale * sum(dur(i) - children[i]
                               for i, s in enumerate(spans)
                               if s[0].startswith(prefix))

        def count(name):
            return len(by_name[name])

        def extra_sum(name):
            return sum(self.extra.get(i, 0) for i in by_name[name])

        def under(idx, prefix):
            parent = spans[idx][3]
            while parent >= 0:
                if spans[parent][0].startswith(prefix):
                    return True
                parent = spans[parent][3]
            return False

        basis_outer = [i for n in BASIS for i in by_name[n]
                       if self.extra.get(i) == "outer"]
        rank_calls = count("apolarity.exact_rank")
        prescreened = hits = 0
        kids = defaultdict(set)
        for name in ("linalg.rank_mod", "linalg.rank_bareiss"):
            for i in by_name[name]:
                kids[spans[i][3]].add(name)
        for i in by_name["apolarity.exact_rank"]:
            if "linalg.rank_mod" in kids[i]:
                prescreened += 1
                hits += "linalg.rank_bareiss" not in kids[i]
        adds = by_name["linalg.SparseEchelon.add"]
        useful = sum(1 for i in adds if self.extra.get(i))
        tangent_rows = sum(self.extra.get(i, 0)
                           for n in ("linalg.rank_mod", "linalg.det_mod",
                                     "linalg.det_bareiss")
                           for i in by_name[n] if under(i, "secant."))
        return {
            "ring.basis_s": outer_total(BASIS),
            "ring.basis_calls": len(basis_outer),
            "ring.basis_distinct": self.basis_distinct,
            "ring.basis_monomials": self.basis_monomials,
            "ring.candidates": self.candidates,
            "ring.basis_useful_ratio":
                self.basis_monomials / self.candidates if self.candidates else 1.0,
            "ring.parse_s": outer_total(["ring.parse_poly"]),
            "ring.certificate_s": outer_total(["ring.find_certificate",
                                               "ring.default_certificate"]),
            "apolarity.rank_calls": rank_calls,
            "apolarity.rank_distinct": self.rank_distinct,
            "apolarity.rank_redundancy":
                rank_calls / self.rank_distinct if self.rank_distinct else 1.0,
            "apolarity.prescreen_hit_ratio":
                hits / prescreened if prescreened else 1.0,
            "apolarity.cat_entries_s":
                outer_total(["apolarity.catalecticant_entries"]),
            "apolarity.cat_entries": extra_sum("apolarity.catalecticant_entries"),
            "apolarity.contract_s": outer_total(["apolarity.contract"]),
            "linalg.bareiss_s": outer_total(["linalg.rank_bareiss"]),
            "linalg.bareiss_calls": count("linalg.rank_bareiss"),
            "linalg.bareiss_cells": extra_sum("linalg.rank_bareiss"),
            "linalg.mat_mod_s": outer_total(["linalg.mat_mod"]),
            "linalg.rank_mod_s": outer_total(["linalg.rank_mod"]),
            "linalg.rank_mod_calls": count("linalg.rank_mod"),
            "linalg.det_s": outer_total(["linalg.det_bareiss", "linalg.det_mod"]),
            "linalg.echelon_s": outer_total(["linalg.SparseEchelon.add"]),
            "linalg.echelon_rows": len(adds),
            "linalg.echelon_useful_ratio": useful / len(adds) if adds else 1.0,
            "ideals.self_s": self_time("ideals"),
            "ideals.length_samples": extra_sum("ideals.length_estimate"),
            "secant.self_s": self_time("secant"),
            "secant.parametrize_s": outer_total(["secant.parametrize"]),
            "secant.trials": extra_sum("secant.terracini_probe"),
            "secant.tangent_rows": tangent_rows,
            "fan.load_s": outer_total(["fan.load_fan"]),
            "fan.cartier_s": outer_total(["fan.FanModel.is_cartier"]),
            "fan.cartier_calls": count("fan.FanModel.is_cartier"),
            "abelian.snf_s": outer_total(["abelian.smith_normal_form"]),
            "abelian.snf_calls": count("abelian.smith_normal_form"),
            "cli.self_s": self_time("cli"),
        }

    def write(self, path):
        """Dump the spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
