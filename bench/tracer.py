"""Run-time spans around qfalab's public functions, for per-layer metrics.

The tracer replaces each traced function wherever callers look it up: every
binding of it in any ``qfalab`` module (``from .numeric import mat_mul``
makes a second one), and, for validation and oracle calls, the class
attribute that dispatches them.  The package's source is never edited, and
``Tracer.uninstall`` puts every original object back.

A span is ``(group, start, end, parent, op, outermost, extra, raised)``:
``group`` indexes ``GROUPS``, ``parent`` is the index of the enclosing span
(-1 at top level), ``op`` is the benchmark operation that was running,
``outermost`` tells whether no span of the same group encloses it, and
``extra`` carries a group-specific value (operand kind and scalar products
for numeric kernels, states built for constructions, bits of an exact value
for enumeration).
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

# Span groups, each named <layer>.<group> after the module it covers.
GROUPS = (
    "numeric.vec",
    "numeric.matmul",
    "automata.validate",
    "automata.eval",
    "cutpoint.classify",
    "cutpoint.equiv",
    "cutpoint.audit",
    "constructions.pipeline",
    "constructions.closure",
    "languages.oracle",
    "verify.enum",
    "verify.check",
    "cli.main",
    "cli.load",
    "cli.save",
)
_G = {name: i for i, name in enumerate(GROUPS)}

# Module-level functions: (group, module, names).  A name the package does not
# define (yet, or any more) is skipped, so the benchmark keeps running while
# the package's internals change.
FUNCTIONS = (
    ("numeric.vec", "numeric", ("row_times_mat", "mat_times_col", "dot")),
    ("numeric.matmul", "numeric", ("mat_mul", "mat_add", "mat_pow", "kron", "direct_sum")),
    (
        "automata.eval",
        "automata",
        ("acceptance_value", "gpfa_value", "pfa_accept_prob", "mcqfa_accept_prob", "kwqfa_run"),
    ),
    ("cutpoint.classify", "cutpoint", ("classify_value",)),
    ("cutpoint.equiv", "cutpoint", ("equivalent_under_separation_bounded",)),
    ("cutpoint.audit", "cutpoint", ("one_sided_zero_check",)),
    ("constructions.pipeline", "constructions", ("extend_pfa", "unitary_complete", "pfa_to_nqfa")),
    ("verify.enum", "verify", ("enumerate_values",)),
    ("verify.check", "verify", ("enumerate_agreement", "check_value_identity")),
    ("cli.main", "cli", ("main",)),
    ("cli.load", "cli", ("load_machine", "parse_document")),
    ("cli.save", "cli", ("save_machine", "serialize_machine")),
)

# Class attributes looked up on every call: (group, module, class, attribute).
METHODS = (
    ("automata.validate", "automata", "Pfa", "__post_init__"),
    ("automata.validate", "automata", "Gpfa", "__post_init__"),
    ("automata.validate", "automata", "Kwqfa", "__post_init__"),
    ("automata.validate", "automata", "Mcqfa", "__post_init__"),
    ("languages.oracle", "languages", "LanguageOracle", "__call__"),
)

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = {
    "numeric.vec_calls": "count",
    "numeric.vec_mults": "count",
    "numeric.rational_s": "s",
    "numeric.float_s": "s",
    "numeric.matmul_calls": "count",
    "numeric.matmul_s": "s",
    "automata.validate_calls": "count",
    "automata.validate_s": "s",
    "automata.eval_calls": "count",
    "automata.eval_s": "s",
    "cutpoint.classify_calls": "count",
    "cutpoint.classify_s": "s",
    "cutpoint.equiv_s": "s",
    "cutpoint.audit_s": "s",
    "constructions.pipeline_s": "s",
    "constructions.closure_s": "s",
    "constructions.states_out": "count",
    "constructions.failed": "count",
    "languages.oracle_calls": "count",
    "languages.oracle_s": "s",
    "verify.words": "count",
    "verify.self_s": "s",
    "verify.max_value_bits": "bits",
    "cli.load_s": "s",
    "cli.save_s": "s",
    "cli.self_s": "s",
}

# Metrics that must repeat exactly for one seed; the rest are times.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit in ("count", "bits")
)


def _closure_names(constructions) -> tuple[str, ...]:
    names = [n for n in vars(constructions or object) if n.startswith("gpfa_")]
    return tuple(sorted(names)) + ("shift_cutpoint", "add_epsilon")


# Scalar products a vector kernel computes, from its operand shapes.
_PRODUCTS = {
    "dot": lambda args: len(args[0]),
    "row_times_mat": lambda args: args[1].rows * args[1].cols,
    "mat_times_col": lambda args: args[0].rows * args[0].cols,
}


def _numeric_info(name: str):
    """(operand kind, scalar products) of a kernel call; a signature the
    tracer does not know counts as kind "other" with no products."""
    products = _PRODUCTS.get(name, lambda args: 0)

    def info(args, result):
        try:
            return args[0].kind, products(args)
        except (AttributeError, IndexError, TypeError):
            return "other", 0

    return info


def _value_bits(item) -> int:
    value = item[1]
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack = [-1]
        self._open = [0] * len(GROUPS)
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of every qfalab module already imported."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "qfalab" or name.startswith("qfalab."))
        ]
        targets = list(FUNCTIONS) + [
            ("constructions.closure", "constructions", _closure_names(sys.modules.get("qfalab.constructions")))
        ]
        for group, module_name, names in targets:
            module = sys.modules.get(f"qfalab.{module_name}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(group, name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
        for group, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(f"qfalab.{module_name}"), cls_name, None)
            if cls is not None and attr in vars(cls):
                self._patch(cls, attr, self._wrap(group, attr, vars(cls)[attr]))

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans --------------------------------------------------------------

    def _wrap(self, group: str, name: str, fn):
        g = _G[group]
        if group == "verify.enum":
            return self._wrap_generator(g, fn)
        if group.startswith("numeric."):
            extra = _numeric_info(name)
        elif group.startswith("constructions."):
            def extra(args, result):
                return getattr(result, "n", 0)
        else:
            extra = None
        spans, stack, open_, clock = self.spans, self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            outermost = open_[g] == 0
            open_[g] += 1
            result = None
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                open_[g] -= 1
                stack.pop()
                info = extra(args, result) if extra is not None else None
                spans[idx] = (g, t0, t1, parent, self.op, outermost, info, raised)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, g: int, fn):
        """One span per resumption of the generator, so consumer code that
        runs between two items is never counted as enumeration time."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                item = None
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    bits = None if item is None else _value_bits(item)
                    spans[idx] = (g, t0, t1, parent, self.op, True, bits, False)
                yield item

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write the spans as JSON: the group names and one row per span."""
        with open(path, "w") as fh:
            json.dump({"groups": GROUPS, "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children are clipped to their parent's interval and overlaps between
    children are counted once.
    """
    cover = [0.0] * len(spans)
    reach: dict[int, float] = {}
    order = sorted(range(len(spans)), key=lambda i: spans[i][1])
    for i in order:
        _, t0, t1, parent = spans[i][:4]
        if parent < 0:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        start = max(t0, p_start, reach.get(parent, p_start))
        end = min(t1, p_end)
        if end > start:
            cover[parent] += end - start
            reach[parent] = end
    return [s[2] - s[1] - c for s, c in zip(spans, cover)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass.

    ``*_calls`` counts every call, nested ones included; a plain ``<group>_s``
    is the time inside the group's outermost spans; ``self_s``,
    ``rational_s`` and ``float_s`` are self times.
    """
    n = len(GROUPS)
    calls = [0] * n
    inclusive = [0.0] * n
    own = [0.0] * n
    by_kind = {"rational": 0.0, "float": 0.0}
    vec_mults = states_out = failed = words = max_bits = 0
    for span, self_t in zip(spans, self_times(spans)):
        g, t0, t1, _, _, outermost, extra, raised = span
        calls[g] += 1
        own[g] += self_t
        if outermost:
            inclusive[g] += t1 - t0
        group = GROUPS[g]
        if group.startswith("numeric."):
            kind, products = extra
            by_kind[kind] = by_kind.get(kind, 0.0) + self_t
            vec_mults += products
        elif group.startswith("constructions.") and outermost:
            failed += raised
            states_out += extra
        elif group == "verify.enum" and extra is not None:
            words += 1
            max_bits = max(max_bits, extra)

    def c(group):
        return calls[_G[group]]

    def t(group):
        return inclusive[_G[group]]

    return {
        "numeric.vec_calls": c("numeric.vec"),
        "numeric.vec_mults": vec_mults,
        "numeric.rational_s": by_kind["rational"],
        "numeric.float_s": by_kind["float"],
        "numeric.matmul_calls": c("numeric.matmul"),
        "numeric.matmul_s": t("numeric.matmul"),
        "automata.validate_calls": c("automata.validate"),
        "automata.validate_s": t("automata.validate"),
        "automata.eval_calls": c("automata.eval"),
        "automata.eval_s": t("automata.eval"),
        "cutpoint.classify_calls": c("cutpoint.classify"),
        "cutpoint.classify_s": t("cutpoint.classify"),
        "cutpoint.equiv_s": t("cutpoint.equiv"),
        "cutpoint.audit_s": t("cutpoint.audit"),
        "constructions.pipeline_s": t("constructions.pipeline"),
        "constructions.closure_s": t("constructions.closure"),
        "constructions.states_out": states_out,
        "constructions.failed": failed,
        "languages.oracle_calls": c("languages.oracle"),
        "languages.oracle_s": t("languages.oracle"),
        "verify.words": words,
        "verify.self_s": own[_G["verify.enum"]] + own[_G["verify.check"]],
        "verify.max_value_bits": max_bits,
        "cli.load_s": t("cli.load"),
        "cli.save_s": t("cli.save"),
        "cli.self_s": own[_G["cli.main"]],
    }
