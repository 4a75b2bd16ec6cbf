"""Compare qfi_gaussian between two checkouts on one fixed seeded set of points.

    python3 tools/qfi_cmp.py PARENT_DIR CHANGE_DIR

Draws 2,000 points from a fixed seed: coherent, bSMSS and bTMSS probes,
|alpha| 0 or log-uniform from 1e-3 to 1e3, s log-uniform from 1e-9 to 3,
any phases, T from 1e-4 to 1 - 1e-8 (uniform, or crowding either end),
half of them lossless and half lossy.  One child process per checkout
imports that checkout's src/qcrb_lab and prints one line per point and
limit (full QFI, then bright limit): repr(qfi) and repr(n_resource), or
the refusal message.  The two outputs are compared line by line.

Prints, per probe kind and limit, the results that are bit-identical, that
moved, that both sides refused and that one side alone refused, then the
largest relative move of qfi or n_resource with its point.  Exit status 1
when some point is refused on one side only, 2 on bad arguments, else 0.
Writes nothing.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SEED = 20261019
N_POINTS = 2000
KINDS = ("coherent", "bsmss", "btmss")
LIMITS = ("full", "bright")


def points():
    """The fixed point set, as JSON-ready dicts of floats (a float's JSON form round-trips exactly)."""
    rng = np.random.default_rng(SEED)

    def amplitude(lo, hi):
        return 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(lo, hi))

    out = []
    for i in range(N_POINTS):
        where = rng.integers(3)  # uniform, near 0, near 1
        if where == 0:
            T = float(rng.uniform(1e-4, 1.0 - 1e-8))
        elif where == 1:
            T = float(10.0 ** rng.uniform(-4.0, 0.0))
        else:
            T = 1.0 - float(10.0 ** rng.uniform(-8.0, 0.0))
        lossy = i % 2 == 1
        out.append({
            "kind": KINDS[i % 3],
            "alpha": amplitude(-3.0, 3.0),
            "alpha_phase": float(rng.uniform(-math.pi, math.pi)),
            "beta": amplitude(-3.0, 2.0),
            "beta_phase": float(rng.uniform(-math.pi, math.pi)),
            "s": float(10.0 ** rng.uniform(-9.0, math.log10(3.0))),
            "theta": float(rng.uniform(-math.pi, math.pi)),
            "T": min(max(T, 1e-4), 1.0 - 1e-8),
            "T_p": float(rng.uniform(0.5, 1.0)) if lossy else 1.0,
            "eta_p": float(rng.uniform(0.5, 1.0)) if lossy else 1.0,
            "eta_a": float(rng.uniform(0.0, 1.0)) if lossy else 1.0,
        })
    return out


def child():
    """Read the points on stdin; print qcrb_lab's path, then one line per point and limit."""
    from qcrb_lab import gaussian as g
    from qcrb_lab.qfi import ParamFamily, qfi_gaussian

    print(Path(g.__file__).resolve())
    for p in json.load(sys.stdin):
        spec = g.StateSpec(
            g.StateKind(p["kind"]),
            alpha=g.ComplexAmplitude(p["alpha"], p["alpha_phase"]),
            beta=g.ComplexAmplitude(p["beta"], p["beta_phase"]),
            squeeze=g.SqueezeSpec(p["s"], p["theta"]),
        )
        family = ParamFamily(spec, g.ChannelConfig(T_p=p["T_p"], eta_p=p["eta_p"], eta_a=p["eta_a"]))
        for limit in LIMITS:
            try:
                rep = qfi_gaussian(family, p["T"], bright_limit=limit == "bright")
            except ValueError as exc:
                print(f"refused {str(exc)!r}")
            else:
                print(f"answer {float(rep.qfi)!r} {float(rep.n_resource)!r}")


def run(checkout, pts):
    """The child's lines for one checkout, after checking it imported that checkout's package."""
    src = (checkout / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, __file__, "--child"], input=json.dumps(pts), env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: child failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    first, *lines = proc.stdout.splitlines()
    if not Path(first).is_relative_to(src):
        sys.exit(f"{checkout}: imported qcrb_lab from {first}, not from {src}")
    return lines


def main(argv):
    if len(argv) != 2 or not all((Path(d) / "src" / "qcrb_lab").is_dir() for d in argv):
        print(f"usage: {sys.argv[0]} PARENT_DIR CHANGE_DIR (each a checkout holding src/qcrb_lab)", file=sys.stderr)
        return 2
    pts = points()
    parent, change = (run(Path(d), pts) for d in argv)
    counts = {(k, lim): dict.fromkeys(("identical", "moved", "refused both", "refused one side"), 0)
              for k in KINDS for lim in LIMITS}
    worst, worst_at, messages_differ, one_sided = 0.0, None, 0, []
    for i, (a, b) in enumerate(zip(parent, change, strict=True)):
        p, limit = pts[i // 2], LIMITS[i % 2]
        c = counts[p["kind"], limit]
        refused = (a.startswith("refused"), b.startswith("refused"))
        if a == b:
            c["refused both" if refused[0] else "identical"] += 1
        elif all(refused):
            c["refused both"] += 1
            messages_differ += 1
        elif any(refused):
            c["refused one side"] += 1
            one_sided.append((limit, p, a, b))
        else:
            c["moved"] += 1
            move = max(abs(float(y) / float(x) - 1.0) if x != y else 0.0
                       for x, y in zip(a.split()[1:], b.split()[1:]))
            if not move <= worst:  # also a nan move
                worst, worst_at = move, (limit, p)
    print(f"{len(pts)} points, {len(parent)} evaluations (seed {SEED})")
    print(f"{'kind':9s} {'limit':7s} {'identical':>9s} {'moved':>6s} {'refused both':>13s} {'refused one side':>17s}")
    for (kind, limit), c in counts.items():
        print(f"{kind:9s} {limit:7s} {c['identical']:9d} {c['moved']:6d} {c['refused both']:13d} "
              f"{c['refused one side']:17d}")
    total = {key: sum(c[key] for c in counts.values()) for key in next(iter(counts.values()))}
    print(f"{'all':17s} {total['identical']:9d} {total['moved']:6d} {total['refused both']:13d} "
          f"{total['refused one side']:17d}")
    if messages_differ:
        print(f"{messages_differ} refused on both sides with a different message")
    if worst_at:
        print(f"largest relative move {worst:.3e}, {worst_at[0]} QFI at {worst_at[1]}")
    for limit, p, a, b in one_sided:
        print(f"refused on one side, {limit} QFI at {p}:\n  parent {a}\n  change {b}")
    return 1 if one_sided else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main(sys.argv[1:]))
