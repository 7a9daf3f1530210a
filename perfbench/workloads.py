"""One pass of each workload, driven through qpke's public API.

A pass returns one record per operation: its kind, its start and end on
the perf_counter clock and, if it failed, why. An operation that raises is
timed up to the raise, counted as failed and the pass goes on. Every
workload is a closed loop with one client: an operation starts when the
previous one has ended. The pass's wall time runs from `Pass.start` to its
end.

Inputs come from the workload seed only. roundtrip, keyserver and attacks
draw each pass's inputs from (seed, pass), so a run averages over several
key draws; sweep is `qpke sweep --seed S` in every pass.
"""
from __future__ import annotations

import contextlib
import io
import itertools
from time import perf_counter

import numpy as np

from qpke import analysis, attacks, cli, schemes
from qpke.schemes import SchemeId

import checks


class Pass:
    def __init__(self):
        self.start = perf_counter()
        self.ops: list[tuple[str, float, float, str | None]] = []
        self.problems: list[str] = []
        self.extra: dict = {}

    def op(self, kind: str, fn) -> None:
        t0 = perf_counter()
        try:
            problems = fn()
        except Exception as exc:  # one failed operation never aborts the pass
            failure = type(exc).__name__
        else:
            failure = "wrong output" if problems else None
            self.problems.extend(problems)
        self.ops.append((kind, t0, perf_counter(), failure))


def _message(rng: np.random.Generator, scheme: str, n: int) -> int:
    width = schemes.message_width(SchemeId(scheme), n)
    nbytes = (width + 7) // 8
    return int.from_bytes(rng.bytes(nbytes), "big") >> (8 * nbytes - width)


@contextlib.contextmanager
def on_report(callback):
    """Call callback(report) as each SecurityReport is made, i.e. as each
    report row is finished."""
    init = analysis.SecurityReport.__init__

    def hooked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        callback(self)

    analysis.SecurityReport.__init__ = hooked
    try:
        yield
    finally:
        analysis.SecurityReport.__init__ = init


def sweep(seed: int, pass_index: int) -> Pass:
    """`qpke sweep --seed S` in process; one operation per report row, timed
    from the previous row's report to this one's (the two rows of a
    pan10-bounds call come from one computation, so the second is short)."""
    p = Pass()
    reference = checks.load_sweep_reference()
    stamps: list[float] = []
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with on_report(lambda _: stamps.append(perf_counter())), \
                contextlib.redirect_stdout(out):
            code = cli.main(["sweep", "--seed", str(seed)])
        error = None
    except Exception as exc:
        code, error = None, type(exc).__name__
    t_end = perf_counter()

    per_row, extra = checks.sweep_rows(checks.parse_sweep_csv(out.getvalue()), reference)
    p.problems.extend(extra)
    if error is None:
        p.problems.extend(checks.sweep_exit(code))
    # A row the sweep never reached after a raise fails with that exception;
    # the first such row is timed up to the raise, the rest take no time.
    marks = [t0, *stamps, t_end]
    for i, (ref, problems) in enumerate(zip(reference, per_row)):
        start, end = marks[i:i + 2] if i + 1 < len(marks) else (t_end, t_end)
        if error and i >= len(stamps):
            failure = error
        elif problems:
            failure = "wrong output"
            p.problems.extend(problems)
        else:
            failure = None
        p.ops.append((ref["quantity"], start, end, failure))
    return p


# (scheme, n, m); m=None is the default 2n. b and enh are a fifth of the ops
# and draw their balanced F2 at m=10: at the default m=16 one draw takes a
# geometric number of 2^16-entry candidates (about 320, standard deviation as
# large), which no run of a few seconds can average out.
ROUNDTRIP_CYCLE = (("a", 32, None), ("m1", 32, None), ("m2", 32, None),
                   ("pan10", 32, None), ("b", 8, 10), ("a", 32, None), ("m1", 32, None),
                   ("m2", 32, None), ("pan10", 32, None), ("enh", 8, 10))
ROUNDTRIP_CYCLES = 20


def roundtrip(seed: int, pass_index: int) -> Pass:
    """Fresh key per operation: keygen(count=1), encrypt a random message,
    decrypt and compare."""
    p = Pass()
    rng = np.random.default_rng([seed, pass_index])

    def one(scheme: str, n: int, m: int | None):
        sk, (pk,) = schemes.keygen(SchemeId(scheme), n, rng, m=m, count=1)
        message = _message(rng, scheme, n)
        ct = schemes.encrypt(pk, message, rng)
        return checks.decryption(message, schemes.decrypt(sk, ct))

    for scheme, n, m in ROUNDTRIP_CYCLE * ROUNDTRIP_CYCLES:
        p.op(f"{scheme} n={n}", lambda: one(scheme, n, m))
    return p


KEYSERVER_SCHEMES = (("a", 64), ("m1", 64), ("m2", 64), ("pan10", 64), ("b", 8), ("enh", 8))
KEYSERVER_ROUNDS = 100


def keyserver(seed: int, pass_index: int) -> Pass:
    """One private key per scheme, then per operation issue one public key,
    encrypt and decrypt; schemes take turns, with equal op counts.

    The server's key generation comes before the pass's timed part: b and
    enh draw a balanced F2 at m=16, whose cost is heavy-tailed (0.03 s to
    1.5 s a draw), and would swamp the serving time that this workload is
    for. roundtrip times key generation; keygen_s records it here."""
    p = Pass()
    rng = np.random.default_rng([seed, pass_index])
    keys = {}
    for scheme, n in KEYSERVER_SCHEMES:
        try:
            keys[scheme] = schemes.keygen(SchemeId(scheme), n, rng, count=0)[0]
        except Exception as exc:
            keys[scheme] = exc
    served = perf_counter()
    p.extra["keygen_s"] = served - p.start
    p.start = served

    def one(scheme: str, n: int):
        sk = keys[scheme]
        if isinstance(sk, Exception):
            raise sk
        (pk,) = schemes.issue_public_keys(sk, 1, rng)
        message = _message(rng, scheme, n)
        ct = schemes.encrypt(pk, message, rng)
        return checks.decryption(message, schemes.decrypt(sk, ct))

    for _ in range(KEYSERVER_ROUNDS):
        for scheme, n in KEYSERVER_SCHEMES:
            p.op(f"{scheme} n={n}", lambda: one(scheme, n))
    return p


# pan10 key recovery at n=8 and n=12, where the cached dense H^(x)12 is 256 MB;
# n=12 runs are about a fifth of the ops so that p90 falls among them. The
# rounds interleave the two sizes, so that each is timed all through the pass.
ATTACK_ROUND = (8, 8, 8, 8, 12)
ATTACK_ROUNDS = 10
OWT_N, OWT_TRIALS = 8, 20_000
DISTINGUISH_GAMES = (("a", 4), ("b", 4), ("m2", 3))
DISTINGUISH_SAMPLES = 2_000


def attacks_pass(seed: int, pass_index: int) -> Pass:
    """Key recoveries, the collision baseline and the distinguishing games;
    each call is one operation."""
    p = Pass()
    rng = np.random.default_rng([seed, pass_index])
    copies: list[int] = []

    def recover(n: int):
        stream = attacks.pan10_shared_key_stream(n, rng)
        first = next(stream)
        outcome = attacks.pan10_key_recovery(itertools.chain([first], stream), 4 * n, rng)
        copies.append(outcome.copies_used)
        problems = checks.key_recovery(outcome, first.quantum.k)
        checks.verdict(outcome.success or bool(problems),
                       f"no key after {outcome.copies_used} copies")
        return problems

    def owt():
        return checks.collision_rate(
            attacks.owt_inversion_baseline(OWT_N, OWT_TRIALS, rng), OWT_TRIALS)

    def distinguish(scheme: str, n: int):
        outcome = attacks.ciphertext_distinguisher(SchemeId(scheme), n,
                                                   DISTINGUISH_SAMPLES, rng)
        problems = checks.distinguisher(scheme, n, outcome.analytic)
        checks.verdict(outcome.success or bool(problems),
                       f"empirical {outcome.empirical} outside 3 sigma")
        return problems

    for _ in range(ATTACK_ROUNDS):
        for n in ATTACK_ROUND:
            p.op(f"pan10-key n={n}", lambda: recover(n))
    p.op(f"owt-baseline n={OWT_N}", owt)
    for scheme, n in DISTINGUISH_GAMES:
        p.op(f"distinguish {scheme} n={n}", lambda: distinguish(scheme, n))
    p.extra["copies_per_recovery"] = sum(copies) / len(copies) if copies else 0.0
    return p


RUNNERS = {"sweep": sweep, "roundtrip": roundtrip, "keyserver": keyserver,
           "attacks": attacks_pass}
