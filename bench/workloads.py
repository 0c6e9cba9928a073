"""Seeded job generators for the benchmark workloads.

A workload is an endless sequence of rounds. A round is a fixed cycle of job
shapes (height bounds, the known-defect slot); only the coefficients and
base points inside each shape come from the seed, through
``random.Random(f"{workload}/{seed}/{round}/{slot}")``. The same seed
therefore gives the same jobs, and every run mixes job shapes in the same
proportions whatever its seed.

Round 0, slot 0 of every workload is an anchor job that ignores the seed, so
its artifact digest can be checked on every run.

Each job carries the spec the program reads and, separately, the generator's
own exact description of the same object (``truth``), which the output
checks use instead of anything the program reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# The trisection workload keeps one job per round whose fibers need a
# quadratic field while the trisection has constant y = c != 0. Today every
# such job exits 3: fibration._parametrized_cycle builds a Point with x in
# Q(s) but a Fraction y, and fibration._galois_stable then reads pt.y.coeffs.
KNOWN_DEFECT_STDERR = "internal error: AttributeError: 'Fraction' object has no attribute 'coeffs'"
KNOWN_DEFECT_STATUS = 3


@dataclass(frozen=True)
class Job:
    workload: str
    round: int
    slot: int
    commands: tuple  # CLI subcommands run in order on one spec file
    spec: dict  # the JSON spec the program reads
    truth: dict  # the generator's exact description, for the checks
    known_defect: bool = False

    @property
    def key(self) -> str:
        return f"{self.round}/{self.slot}"


def _q(value: Fraction) -> str:
    return str(Fraction(value))


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v])


# -- densify-rational ---------------------------------------------------------

RATIONAL_HEIGHTS = (10, 12, 15, 20)


def _rational_job(seed: int, rnd: int, slot: int) -> Job:
    height = RATIONAL_HEIGHTS[slot]
    if rnd == 0 and slot == 0:
        # the worked example y^2 = x^3 + t x + 1 with the 2-section {x = 1}
        a, b, x = (0, 1), (1, 0), 1
    else:
        rng = random.Random(f"densify-rational/{seed}/{rnd}/{slot}")
        while True:
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            b = (rng.randint(-3, 3), rng.randint(-3, 3))
            x = rng.randint(-2, 2)
            # the fiber-parameter equation x^3 + a(t) x + b(t) = y^2 must have
            # degree 1 in t, so that every y gives exactly one fiber
            if a[1] * x + b[1] != 0:
                break
    spec = {
        "fibration": {"a": {"num": [str(c) for c in a]}, "b": {"num": [str(c) for c in b]}},
        "multisection": {"kind": "constant_x", "x": str(x)},
        "params": {"height_bound": height},
    }
    truth = {
        "a": tuple(Fraction(c) for c in a),
        "b": tuple(Fraction(c) for c in b),
        "x": Fraction(x),
        "height_bound": height,
    }
    return Job("densify-rational", rnd, slot, ("densify",), spec, truth)


# -- densify-trisection -------------------------------------------------------

# (height bound, known defect) per slot
TRISECTION_SLOTS = ((8, False), (10, False), (12, False), (10, True))


def _trisection_job(seed: int, rnd: int, slot: int) -> Job:
    height, defect = TRISECTION_SLOTS[slot]
    if rnd == 0 and slot == 0:
        b, c = 1, 0
    else:
        rng = random.Random(f"densify-trisection/{seed}/{rnd}/{slot}")
        b = _nonzero(rng, -12, 12)
        c = 0
        if defect:
            c = _nonzero(rng, -3, 3)
            while b == c * c:  # t(s) would drop to degree 2
                b = _nonzero(rng, -12, 12)
    # y^2 = x^3 + t x + b with the trisection s -> (t, x, y) = ((c^2 - b - s^3)/s, s, c)
    spec = {
        "fibration": {"a": {"num": ["0", "1"]}, "b": {"num": [str(b)]}},
        "multisection": {
            "kind": "parametrized",
            "t": {"num": [str(c * c - b), "0", "0", "-1"], "den": ["0", "1"]},
            "x": {"num": ["0", "1"]},
            "y": {"num": [str(c)]},
        },
        "params": {"height_bound": height},
    }
    truth = {
        "a": (Fraction(0), Fraction(1)),
        "b": (Fraction(b), Fraction(0)),
        "c": Fraction(c),
        "height_bound": height,
    }
    return Job("densify-trisection", rnd, slot, ("densify",), spec, truth, known_defect=defect)


# -- cone-bitangents ----------------------------------------------------------

CONE_JOBS_PER_ROUND = 4


def _cone_key(e0: int, e1: int, e2: int, e3: int) -> str:
    return f"{e0}{e1}{e2}{e3}"


def _cone_job(seed: int, rnd: int, slot: int) -> Job:
    """F(t, z) = z^4 + f2(t) z^2 + f0(t) with f2, f0 even in t, through (t0, z0).

    On the chart (1, t^2, t, z) of the cone, t^(2k) z^i comes from the
    monomial z0^(4-i-k) z1^k z3^i, so an even F is a cone quartic without z2.
    The base point stays at (+-1, +-1): other abscissas multiply the cost of
    a search by up to 3, and other ordinates widen its spread, which a 30 s
    run cannot average out.
    """
    if rnd == 0 and slot == 0:
        # the acceptance cone z3^4 + z0 z1 z2^2 - 2 z0^4, i.e. F = z^4 + t^4 - 2
        f = {(4, 0): Fraction(1), (0, 4): Fraction(1), (0, 0): Fraction(-2)}
        t0, z0 = Fraction(1), Fraction(1)
        spec_quartic = {"0004": "1", "1120": "1", "4000": "-2"}
    else:
        rng = random.Random(f"cone-bitangents/{seed}/{rnd}/{slot}")
        t0 = Fraction(rng.choice([-1, 1]))
        while True:
            z0 = Fraction(rng.choice([-1, 1]))
            f = {(4, 0): Fraction(1)}
            for k in (0, 2, 4):
                f[(2, k)] = Fraction(rng.randint(-3, 3))
            for k in (2, 4, 6, 8):
                f[(0, k)] = Fraction(rng.randint(-3, 3))
            f2 = sum(f[(2, k)] * t0**k for k in (0, 2, 4))
            rest = sum(f[(0, k)] * t0**k for k in (2, 4, 6, 8))
            # solve the constant term so that (t0, z0) lies on F = 0
            f[(0, 0)] = -(z0**4 + f2 * z0**2 + rest)
            # F_z = 0 at the base point is invalid input (NotInR0)
            if 4 * z0**3 + 2 * f2 * z0 != 0:
                break
        f = {ik: v for ik, v in f.items() if v}
        spec_quartic = {_cone_key(4 - i - k // 2, k // 2, 0, i): _q(v) for (i, k), v in f.items()}
    points = ((t0, z0), (-t0, z0))
    spec = {
        "cone_quartic": spec_quartic,
        "points": [[_q(t), _q(z)] for t, z in points],
    }
    truth = {"f": f, "points": points}
    return Job(
        "cone-bitangents", rnd, slot, ("enriques-bitangents", "enriques-model"), spec, truth
    )


# -- the workload table -------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str  # the reasons for each workload are in BENCHMARK.json and README.md
    slots: int  # jobs per round
    make_job: object  # (seed, round, slot) -> Job
    work_unit: str = "fibers"  # what work_per_s counts
    traced_rounds_per_10s: int = 1  # traced run length, fixed so counts repeat

    def round(self, seed: int, rnd: int) -> list[Job]:
        return [self.make_job(seed, rnd, slot) for slot in range(self.slots)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("densify-rational", len(RATIONAL_HEIGHTS), _rational_job, traced_rounds_per_10s=2),
        Workload("densify-trisection", len(TRISECTION_SLOTS), _trisection_job, traced_rounds_per_10s=4),
        Workload(
            "cone-bitangents",
            CONE_JOBS_PER_ROUND,
            _cone_job,
            work_unit="searches",
            traced_rounds_per_10s=4,
        ),
    )
}
