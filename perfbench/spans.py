"""In-memory spans around the package's layer boundaries.

The tracer replaces, at run time, public functions of the qpke modules and
numpy's kron/eigh/eigvalsh with wrappers that record one span per call:
group name, parent span, start, end and an optional size. Nothing in the
package itself is edited. A call made while a span of the same group is
open (qmat.kron calling np.kron, apply_hk calling apply_mask) belongs to
the open span and records nothing, so `calls` counts entries into a layer.

Spans stay in memory while the pass runs; `write` dumps them afterwards and
`layer_metrics` reduces them to the per-layer numbers.
"""
from __future__ import annotations

import csv
import gzip
import sys
from collections import defaultdict
from time import perf_counter

ANALYZE_TARGETS = (
    "sigma-bound",
    "channel-identity",
    "scheme-a-cipher",
    "scheme-b-cipher",
    "scheme-m1-cipher",
    "scheme-m2-cipher",
    "pubkey-leakage",
    "multicopy",
    "pan10-bounds",
)

# Report functions of qpke.analysis, keyed to the `qpke analyze` target
# whose rows they produce.
_TARGET_FUNCS = {
    "sigma_bound_report": "sigma-bound",
    "channel_identity_report": "channel-identity",
    "pubkey_mixture_A": "pubkey-leakage",
    "pubkey_mixture_B": "pubkey-leakage",
    "multicopy_distance": "multicopy",
    "pan10_mixture_distance": "pan10-bounds",
}

# Functions that assemble density operators from enumerated states,
# including the report functions that sum their mixtures inline.
_ENSEMBLE_FUNCS = (
    "identity_mixture", "sigma_b", "_protocol_cipher_average", "cipher_mixture_A",
    "cipher_mixture_A_sampled", "cipher_mixture_uniform", "pubkey_mixture_fixed_k",
    "pubkey_mixture_A", "pubkey_mixture_B", "channel_e1", "channel_e2",
    "_b_cipher_state", "_b_pubkey_state", "_joint_state", "multicopy_distance",
    "pan10_rho_k", "pan10_mixture_distance",
)


class Tracer:
    def __init__(self):
        # Each span is [group, parent index, start, end, size]; -1 is the root.
        self.spans: list[list] = []
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, group, fn, size=None):
        """Wrapper of fn recording a span of `group` (a name, or a function
        of the call's arguments giving one)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            name = group(*args, **kwargs) if callable(group) else group
            parent = stack[-1]
            if parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            rec = [name, parent, perf_counter(), 0.0,
                   size(*args, **kwargs) if size else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "start_s", "end_s", "size"))
            for i, (name, parent, t0, t1, size) in enumerate(self.spans):
                out.writerow((i, parent, name, f"{t0:.9f}", f"{t1:.9f}", size))


def _replace_everywhere(original, replacement) -> None:
    """Point every qpke module attribute bound to `original` at `replacement`
    (covers `from .x import f` copies as well as the defining module)."""
    for name, mod in list(sys.modules.items()):
        if name != "qpke" and not name.startswith("qpke."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap_function(tracer, module, name, group, size=None) -> None:
    fn = getattr(module, name, None)
    if fn is not None:
        _replace_everywhere(fn, tracer.wrap(group, fn, size))


def _wrap_method(tracer, cls, name, group, size=None) -> None:
    fn = cls.__dict__.get(name)
    if fn is not None:
        setattr(cls, name, tracer.wrap(group, fn, size))


def _cipher_target(scheme, *args, **kwargs) -> str:
    return f"analysis.target.scheme-{getattr(scheme, 'value', scheme)}-cipher"


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported qpke with `tracer`."""
    import numpy as np

    from qpke import analysis, attacks, bits, boolfn, cli, qmat, qsym, schemes

    for fn_name in _ENSEMBLE_FUNCS:
        _wrap_function(tracer, analysis, fn_name, "analysis.ensemble")
    # Target spans go outside the ensemble spans of the same functions.
    for fn_name, target in _TARGET_FUNCS.items():
        _wrap_function(tracer, analysis, fn_name, f"analysis.target.{target}")
    _wrap_function(tracer, analysis, "cipher_distance_report", _cipher_target)

    for cls in (qsym.QubitSymbol, qsym.ProductState, qsym.TwoTermState):
        for meth in ("to_vector", "to_density"):
            _wrap_method(tracer, cls, meth, "qsym.to_vector")
        for meth in ("apply_mask", "apply_hk", "apply_yj", "apply_zall"):
            _wrap_method(tracer, cls, meth, "qsym.apply_mask")

    _wrap_function(tracer, qmat, "kron", "qmat.kron")
    _wrap_function(tracer, qmat, "kron_all", "qmat.kron")
    np.kron = tracer.wrap("qmat.kron", np.kron)
    dim = lambda a, *args, **kwargs: int(np.shape(a)[-1])  # noqa: E731
    np.linalg.eigh = tracer.wrap("qmat.eig", np.linalg.eigh, dim)
    np.linalg.eigvalsh = tracer.wrap("qmat.eig", np.linalg.eigvalsh, dim)

    for fn_name in ("generate_random", "generate_balanced_f2"):
        _wrap_function(tracer, boolfn, fn_name, "boolfn.generate")
    _wrap_method(tracer, boolfn.AnfFunction, "evaluate", "boolfn.evaluate")
    _wrap_method(tracer, boolfn.RandomOracle, "__call__", "boolfn.oracle")
    bits.rand_bits = tracer.counter("bits.rand_bits", bits.rand_bits)

    keys_issued = lambda sk, count, *args, **kwargs: count  # noqa: E731
    _wrap_function(tracer, schemes, "keygen", "schemes.keygen")
    _wrap_function(tracer, schemes, "issue_public_keys", "schemes.issue", keys_issued)
    _wrap_function(tracer, schemes, "encrypt", "schemes.encrypt")
    _wrap_function(tracer, schemes, "decrypt", "schemes.decrypt")

    _wrap_function(tracer, attacks, "pan10_measure_equation", "attacks.measure")
    _wrap_function(tracer, attacks, "owt_inversion_baseline", "attacks.owt")
    _wrap_function(tracer, attacks, "ciphertext_distinguisher", "attacks.distinguish")

    _wrap_function(tracer, cli, "main", "cli.main")


# (group, statistic) pairs reported for every workload, in BENCHMARK.json order.
LAYER_STATS = (
    ("qsym.to_vector", ("calls", "self_s")),
    ("qsym.apply_mask", ("calls", "self_s")),
    ("qmat.kron", ("calls", "self_s")),
    ("qmat.eig", ("calls", "self_s", "max_dim")),
    ("analysis.ensemble", ("calls", "self_s")),
    *((f"analysis.target.{t}", ("busy_s",)) for t in ANALYZE_TARGETS),
    ("boolfn.generate", ("calls", "self_s")),
    ("boolfn.evaluate", ("calls", "self_s", "per_key")),
    ("boolfn.oracle", ("calls", "self_s")),
    ("schemes.keygen", ("calls", "busy_s")),
    ("schemes.issue", ("calls", "busy_s")),
    ("schemes.encrypt", ("calls", "busy_s")),
    ("schemes.decrypt", ("calls", "busy_s")),
    ("attacks.measure", ("calls", "self_s")),
    ("attacks.owt", ("self_s",)),
    ("attacks.distinguish", ("busy_s",)),
    ("cli.main", ("calls", "self_s")),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-group calls, busy time (span length), self time (span length
    minus the time covered by its child spans) and size statistics."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    size_max: dict[str, int] = defaultdict(int)
    size_sum: dict[str, int] = defaultdict(int)
    child = [0.0] * len(tracer.spans)
    for name, parent, t0, t1, _ in tracer.spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for i, (name, parent, t0, t1, size) in enumerate(tracer.spans):
        calls[name] += 1
        busy[name] += t1 - t0
        self_s[name] += t1 - t0 - child[i]
        size_max[name] = max(size_max[name], size)
        size_sum[name] += size

    out: dict[str, float] = {}
    for group, stats in LAYER_STATS:
        for stat in stats:
            if stat == "calls":
                value = calls[group]
            elif stat == "self_s":
                value = self_s[group]
            elif stat == "busy_s":
                value = busy[group]
            elif stat == "max_dim":
                value = size_max[group]
            else:  # per_key: evaluations per public key issued
                keys = size_sum["schemes.issue"]
                value = calls[group] / keys if keys else 0.0
            out[f"{group}.{stat}"] = value
    out["bits.rand_bits.calls"] = tracer.counts["bits.rand_bits"]
    return out
