"""Command line front end.

Subcommands: keygen, encrypt, decrypt, roundtrip, analyze, attack, sweep.
All randomness flows from --seed, so reruns with the same arguments write
byte-identical files. Every subcommand exits 0 when its run is done, 1
when a result misses its bound or target, and 2 when an input is rejected.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, attacks, bits, schemes
from .analysis import SecurityReport
from .schemes import SchemeId


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _parse_range(text: str) -> list[int]:
    """'4' -> [4]; '1..8' -> [1, 2, ..., 8]."""
    match = re.fullmatch(r"(-?\d+)(?:\.\.(-?\d+))?", text)
    if not match:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}")
    lo, hi = int(match[1]), int(match[2] or match[1])
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _range_arg(low: int):
    """argparse type: reject a malformed range, or one reaching below low, at
    parse time, and keep the text (the run's config records it as given)."""
    def check(text: str) -> str:
        if _parse_range(text)[0] < low:
            raise argparse.ArgumentTypeError(f"values must be >= {low}, got {text!r}")
        return text
    return check


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _dump_json(obj: dict, out: str | Path | None) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _write_text(text: str, out: str | Path | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load(path: str, loader):
    """Read, parse and load one key or ciphertext record. A file that cannot
    be read, is not JSON or fails the loader's checks is a rejected input
    whose error names the path."""
    try:
        return loader(json.loads(Path(path).read_text()))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _reject_unread(args, reads: tuple[str, ...], names: tuple[str, ...]) -> None:
    """Reject any option in names that was given but is not in reads."""
    for name in names:
        if getattr(args, name) is not None and name not in reads:
            raise ValueError(f"--{name.replace('_', '-')} is not read by "
                             f"--target {args.target}")


def _provenance(args, **config) -> dict:
    return {"seed": args.seed, "version": __version__, "config": config}


# ---------------------------------------------------------------------------


def cmd_keygen(args) -> int:
    rng = _rng(args.seed)
    sk, pks = schemes.keygen(SchemeId(args.scheme), args.n, rng, m=args.m,
                             count=args.count)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{outdir}: {exc.strerror}") from None
    priv = schemes.private_key_to_json(sk, seed=args.seed)
    priv["version"] = __version__
    _dump_json(priv, outdir / "private.json")
    for idx, pk in enumerate(pks):
        pub = schemes.public_key_to_json(pk, seed=args.seed)
        pub["version"] = __version__
        _dump_json(pub, outdir / f"pub_{idx:04d}.json")
    digest = hashlib.sha256((outdir / "private.json").read_bytes()).hexdigest()[:12]
    print(f"scheme={sk.scheme.value} n={sk.n} m={sk.m} count={len(pks)} "
          f"seed={args.seed} private_fingerprint={digest}")
    return 0


def cmd_encrypt(args) -> int:
    pk = _load(args.pub, schemes.public_key_from_json)
    message, width = bits.from_str(args.message)
    expected = schemes.message_width(pk.scheme, pk.n)
    if width != expected:
        raise ValueError(f"message must be {expected} bit(s) for scheme {pk.scheme.value}")
    rng = _rng(args.seed)
    ct = schemes.encrypt(pk, message, rng, allow_reuse=args.allow_reuse)
    obj = schemes.ciphertext_to_json(ct, seed=args.seed)
    obj["version"] = __version__
    _dump_json(obj, args.out)
    return 0


def cmd_decrypt(args) -> int:
    sk = _load(args.priv, schemes.private_key_from_json)
    ct = _load(args.ct, schemes.ciphertext_from_json)
    message = schemes.decrypt(sk, ct)
    print(bits.to_str(message, schemes.message_width(sk.scheme, sk.n)))
    return 0


def cmd_roundtrip(args) -> int:
    rng = _rng(args.seed)
    scheme = SchemeId(args.scheme)
    width = schemes.message_width(scheme, args.n)
    correct = 0
    for _ in range(args.trials):
        sk, (pk,) = schemes.keygen(scheme, args.n, rng, m=args.m, count=1)
        message = bits.rand_bits(rng, width)
        ct = schemes.encrypt(pk, message, rng)
        correct += schemes.decrypt(sk, ct) == message
    print(f"scheme={scheme.value} n={args.n} trials={args.trials} correct={correct}")
    return 0 if correct == args.trials else 1


# ---------------------------------------------------------------------------

def _cipher(scheme: SchemeId):
    return lambda n, ts, opts, rng: [analysis.cipher_distance_report(scheme, n)]


def _multicopy(n, ts, opts, rng):
    return [analysis.multicopy_distance(
        n, t, reuse=opts.reuse, key_model=opts.key_model, samples=opts.samples,
        rng=rng, seed=opts.seed) for t in ts]


def _points(ns, ts=(1,), **opts):
    return [(n, ts, opts) for n in ns]


# The analysis rows' options when not given, in `analyze` and in every sweep point.
ROW_DEFAULTS = {"key_model": "uniform_k", "reuse": "fresh_s", "samples": 0}

# Analysis target -> (rows(n, ts, opts, rng) for one n and the copy counts ts,
# the sweep's points (n, ts, options over the analyze defaults)). Rows look
# their analysis function up at call time, so a wrapper installed on the
# module sees every call.
TARGETS = {
    "sigma-bound": (lambda n, ts, opts, rng: [analysis.sigma_bound_report(n)],
                    _points(range(1, 9))),
    "channel-identity": (lambda n, ts, opts, rng: [analysis.channel_identity_report(n)],
                         _points(range(1, 6))),
    "scheme-a-cipher": (_cipher(SchemeId.A), _points(range(1, 7))),
    "scheme-b-cipher": (_cipher(SchemeId.B), _points(range(2, 6))),
    "scheme-m1-cipher": (_cipher(SchemeId.M1), _points(range(2, 6))),
    "scheme-m2-cipher": (_cipher(SchemeId.M2), _points(range(2, 6))),
    "pubkey-leakage": (lambda n, ts, opts, rng: [analysis.pubkey_mixture_A(n),
                                                 analysis.pubkey_mixture_B(n)],
                       _points(range(1, 6))),
    "multicopy": (_multicopy, [point for n, t in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
                               for reuse in ("fresh_s", "shared_s")
                               for point in _points((n,), (t,), reuse=reuse)]),
    "pan10-bounds": (lambda n, ts, opts, rng: [r for t in ts
                                               for r in analysis.pan10_mixture_distance(n, t)],
                     [(n, tuple(t for t in (1, 2) if n * t <= 10), {}) for n in range(3, 7)]),
}

# Analysis target -> the row options it reads; every other target reads none.
# They default to None, so a given option that its target does not read is
# rejected; the defaults (t = 1 and ROW_DEFAULTS) are filled in after.
TARGET_OPTIONS = {"multicopy": ("t", "key_model", "reuse", "samples"),
                  "pan10-bounds": ("t",)}


def _emit_reports(reports: list[SecurityReport], args, config: dict) -> int:
    if args.format == "csv":
        prov = {"seed": args.seed, "version": __version__,
                "config": json.dumps(config, sort_keys=True)}
        _write_text(analysis.reports_to_csv(reports, prov), args.out)
    else:
        rows = [{name: getattr(r, name) for name in SecurityReport.FIELDS} for r in reports]
        _dump_json({**_provenance(args, **config), "reports": rows}, args.out)
    bad = [r for r in reports if not analysis.report_ok(r)]
    for r in bad:
        print(f"BOUND VIOLATED: {r.quantity} scheme={r.scheme} n={r.n} t={r.t} "
              f"computed={r.computed} bound={r.bound}", file=sys.stderr)
    return 1 if bad else 0


def cmd_analyze(args) -> int:
    defaults = {"t": "1", **ROW_DEFAULTS}
    _reject_unread(args, TARGET_OPTIONS.get(args.target, ()), tuple(defaults))
    if args.samples is not None and args.key_model != "sampled_anf":
        raise ValueError("--samples is read only with --key-model sampled_anf")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    rng = _rng(args.seed)
    ns, ts = _parse_range(args.n), _parse_range(args.t)
    reports = [r for n in ns for r in TARGETS[args.target][0](n, ts, args, rng)]
    config = {"target": args.target, "n": args.n, "t": args.t,
              "key_model": args.key_model, "reuse": args.reuse}
    return _emit_reports(reports, args, config)


def cmd_sweep(args) -> int:
    """The full default battery: every target's sweep points, in TARGETS order."""
    rng = _rng(args.seed)
    reports = [r for rows, points in TARGETS.values() for n, ts, opts in points
               for r in rows(n, ts, argparse.Namespace(**{**vars(args), **opts}), rng)]
    return _emit_reports(reports, args, {"target": "sweep"})


# ---------------------------------------------------------------------------

# Attack target -> the options it reads beyond --n, --seed, --out and
# --format, checked like TARGET_OPTIONS; the target fills in its own defaults.
ATTACK_OPTIONS = {"pan10-key": ("m", "runs", "max_copies"),
                  "owt-baseline": ("samples",),
                  "distinguish": ("scheme", "samples")}


def _outcomes_csv(outcomes) -> str:
    return "\n".join([outcomes[0].csv_header(), *(o.to_csv_row() for o in outcomes)]) + "\n"


def cmd_attack(args) -> int:
    _reject_unread(args, ATTACK_OPTIONS[args.target],
                   ("scheme", "m", "runs", "samples", "max_copies"))
    if args.target == "owt-baseline" and args.format == "csv":
        raise ValueError("owt-baseline has no CSV form; use --format json")
    rng = _rng(args.seed)
    if args.target == "pan10-key":
        runs = args.runs or 100
        max_copies = args.max_copies or 4 * args.n
        outcomes = [attacks.pan10_key_recovery(
            attacks.pan10_shared_key_stream(args.n, rng, m=args.m), max_copies, rng,
            seed=args.seed) for _ in range(runs)]
        rate = sum(o.success for o in outcomes) / len(outcomes)
        mean_copies = sum(o.copies_used for o in outcomes) / len(outcomes)
        if args.format == "csv":
            _write_text(_outcomes_csv(outcomes), args.out)
        else:
            _dump_json({**_provenance(args, target=args.target, n=args.n,
                                      runs=runs, max_copies=max_copies),
                        "success_rate": rate, "mean_copies": mean_copies,
                        "runs": [o.to_json() for o in outcomes]}, args.out)
        print(f"pan10-key n={args.n} runs={runs} success_rate={rate:.4f} "
              f"mean_copies={mean_copies:.3f}", file=sys.stderr)
        return 0 if rate >= 0.99 else 1

    samples = args.samples or 20000
    if args.target == "owt-baseline":
        try:
            rate = attacks.owt_inversion_baseline(args.n, samples, rng)
        except AssertionError as exc:  # the rate missed its 3-sigma band
            print(f"{args.target} FAILED: {exc}", file=sys.stderr)
            return 1
        _dump_json({**_provenance(args, target=args.target, n=args.n,
                                  trials=samples),
                    "rate": rate, "expected": 0.5 ** args.n}, args.out)
        return 0

    scheme = args.scheme or "a"
    outcome = attacks.ciphertext_distinguisher(SchemeId(scheme), args.n,
                                               samples, rng, seed=args.seed)
    if args.format == "csv":
        _write_text(_outcomes_csv([outcome]), args.out)
    else:
        _dump_json({**_provenance(args, target=args.target, n=args.n,
                                  scheme=scheme, samples=samples),
                    **outcome.to_json()}, args.out)
    return 0 if outcome.success else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qpke", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=out_default)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("keygen", help="draw a private key and issue public keys")
    p.add_argument("--scheme", required=True, choices=[s.value for s in SchemeId])
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt one message under a public key file")
    p.add_argument("--pub", required=True)
    p.add_argument("--message", required=True, help="bitstring, e.g. 1 or 01101")
    p.add_argument("--allow-reuse", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--priv", required=True)
    p.add_argument("--ct", required=True)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("roundtrip", help="keygen/encrypt/decrypt loops")
    p.add_argument("--scheme", required=True, choices=[s.value for s in SchemeId])
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("analyze", help="compute security quantities and check bounds")
    p.add_argument("--target", required=True, choices=tuple(TARGETS))
    p.add_argument("--n", required=True, type=_range_arg(1),
                   help="value or range, e.g. 3 or 1..8")
    p.add_argument("--t", type=_range_arg(0),
                   help="copy count or range (multicopy, pan10)")
    p.add_argument("--key-model", dest="key_model", choices=("uniform_k", "sampled_anf"))
    p.add_argument("--reuse", choices=("fresh_s", "shared_s"))
    p.add_argument("--samples", type=_positive_int, help="ANF sample count")
    common(p, out_default=None)
    p.set_defaults(func=cmd_analyze, format="csv")

    p = sub.add_parser("attack", help="run an attack or baseline")
    p.add_argument("--target", required=True, choices=tuple(ATTACK_OPTIONS))
    p.add_argument("--scheme", choices=[s.value for s in attacks.GAME_SCHEMES])
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--runs", type=_positive_int)
    p.add_argument("--samples", type=_positive_int)
    p.add_argument("--max-copies", dest="max_copies", type=_positive_int)
    common(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("sweep", help="full default analysis battery")
    common(p, out_default=None)
    p.set_defaults(func=cmd_sweep, format="csv", **ROW_DEFAULTS)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. A ValueError (DimensionCapError included) is a
    rejected input or a limit of the analysis, not a bug: it ends as one line
    on stderr and exit status 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"qpke {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
