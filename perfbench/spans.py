"""In-memory span recorder for the traced run, fed by wrapping quantlab.

Each wrapped function records a span (name, start, end, parent, item id)
while the recorder is active.  Modules bind imported functions under
their own names (``vlab.verify`` holds its own ``commutator`` and
``apply_to_polynomial``), so a wrapper replaces the original in every
quantlab module that holds it.  A name that is not found leaves its
metrics absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (layer, module, attribute); "Class.method" patches a class attribute.
_RENDER = ("render", "quantlab.vlab.report")
TARGETS = [
    ("verify.oracle", "quantlab.vlab.verify", "commutator_matches_action"),
    ("weylalgebra.apply", "quantlab.weylalgebra", "apply_to_polynomial"),
    ("weylalgebra.op_mul", "quantlab.weylalgebra", "op_mul"),
    ("weylalgebra.commutator", "quantlab.weylalgebra", "commutator"),
    ("quantizer.quantize", "quantlab.quantizer", "quantize"),
    ("quantizer.quantize_ladder", "quantlab.quantizer", "quantize_ladder"),
    ("generators.build", "quantlab.generators", "hamiltonian"),
    ("generators.build", "quantlab.generators", "k_integral"),
    ("generators.build", "quantlab.generators", "ladder_integrals"),
    ("phasepoly.poisson", "quantlab.phasepoly", "poisson"),
    ("vlab.parser.parse", "quantlab.vlab.parser", "parse_polynomial"),
    *(
        _RENDER + (name,)
        for name in (
            "coefficient_json",
            "operator_json",
            "record_json",
            "record_text",
            "record_latex",
            "render_record",
            "sweep_json",
            "sweep_text",
            "render_sweep",
        )
    ),
    ("render", "quantlab.weylalgebra", "differential_text"),
    ("render", "quantlab.weylalgebra", "differential_latex"),
    ("render", "quantlab.weylalgebra", "Operator.text"),
    ("render", "quantlab.weylalgebra", "Operator.latex"),
    ("render", "quantlab.phasepoly", "PhasePoly.text"),
    ("render", "quantlab.phasepoly", "PhasePoly.latex"),
]

# Counted, not spanned: a span per ring multiply would swamp the trace.
RING_MUL = ("quantlab.coeffring", "Coefficient", ("__mul__", "__rmul__"))

ITEM = "item"


class Recorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item: str | None = None
        self.active = False
        self.found: set[str] = set()  # layers and counters that were wrapped
        self.oracle_comm = None  # commutator checked by the running oracle call

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.item]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, before=None):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def run_item(self, key: str, fn, *args):
        """Run one item under a root span that carries its id."""
        self.item = key
        self.active = True
        span = self._open(ITEM)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.active = False
            self.item = None

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- hooks that count work at a layer boundary ---------------------------

    def _count_op_mul(self, args) -> None:
        left, right = args[0], args[1]
        self.counts["weylalgebra.op_mul.term_pairs"] += len(left.terms) * len(right.terms)

    def _note_oracle(self, args) -> None:
        # commutator_matches_action(left, right, comm): remember comm.
        self.oracle_comm = args[2] if len(args) > 2 else None

    def _count_probe(self, args) -> None:
        # The oracle applies the commutator under test once per probe monomial.
        if self.parent_name() == "verify.oracle" and args[0] is self.oracle_comm:
            self.counts["verify.oracle.probes"] += 1

    def install(self) -> list[str]:
        """Wrap every target found; return the targets that were missing."""
        hooks = {
            "verify.oracle": self._note_oracle,
            "weylalgebra.op_mul": self._count_op_mul,
            "weylalgebra.apply": self._count_probe,
        }
        missing = []
        for layer, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, name = module, attr
                if "." in attr:
                    cls_name, name = attr.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(layer, original, hooks.get(layer))
            if owner is module:
                _replace_everywhere(original, wrapper)
            else:
                setattr(owner, name, wrapper)
            self.found.add(layer)
        missing += self._install_ring_counter()
        return missing

    def _install_ring_counter(self) -> list[str]:
        module_name, cls_name, names = RING_MUL
        try:
            cls = getattr(importlib.import_module(module_name), cls_name)
            originals = {name: getattr(cls, name) for name in names}
        except (ImportError, AttributeError):
            return [f"{module_name}.{cls_name}.{'/'.join(names)}"]
        counts = self.counts

        def counted(fn):
            def wrapper(left, right):
                if self.active:
                    counts["coeffring.mul.calls"] += 1
                    other = len(right.terms) if isinstance(right, cls) else 1
                    counts["coeffring.mul.term_pairs"] += len(left.terms) * other
                return fn(left, right)

            return wrapper

        for name, original in originals.items():
            setattr(cls, name, counted(original))
        self.found.add("coeffring.mul")
        return []

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Per span name: number of spans and summed self time.

        Self time is a span's duration minus the durations of its direct
        children, so nested spans of one layer are not counted twice.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls, self_s = Counter(), Counter()
        for index, span in enumerate(self.spans):
            calls[span[0]] += 1
            self_s[span[0]] += span[2] - span[1] - child[index]
        return calls, self_s

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent, item in self.spans:
                out.write(
                    json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, item])
                    + "\n"
                )


def _replace_everywhere(original, wrapper) -> None:
    """Swap ``original`` for ``wrapper`` wherever a quantlab module binds it."""
    for name, module in list(sys.modules.items()):
        if name != "quantlab" and not name.startswith("quantlab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
