"""The benchmark's workloads: CLI invocations and their known answers.

Each workload is a fixed list of `diffkit` argv, run one after another
(a closed loop with one client). The workload seed given to the
benchmark becomes every invocation's `--seed`; the program receives
only the generated argv. So a run at seed 42 reproduces the ROADMAP
baseline rows that this file names.

Invocations are sized so that their cost barely depends on the seed.
A seed picks random subjects, and the cost of some subjects is random:
smooth grammar functions vary in depth, and a polynomial subject that
happens to pass a law scans its whole test set. Such invocations are
kept small beside the invocations whose work the argv alone fixes. For
the same reason the `Int[-100,100]` refutation samples its test sets
(`--bound 1000`), so a subject that passes costs 256 points, not 40,401.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

HOLDS = "holds"  # exit 0, no violations, at least one point checked
REFUTED = "refuted"  # exit 1, every violation carries a counterexample


@dataclass(frozen=True)
class Defect:
    """A known defect of the program, counted rather than hidden.

    At the seeds in `seeds` (None: at every seed), a wrong outcome whose
    problem (see `judge`) starts with `signature` is counted as this
    defect, not in `failed`; any other wrong outcome is a failure, and so
    is the same problem at any other seed. At those seeds the invocation
    also stays out of every end-to-end metric, so that neither a crash
    nor the fix reads as a change of speed.
    """

    text: str
    signature: str
    seeds: Optional[frozenset] = None


# The module model's random "additive" subjects are not homomorphisms
# across mixed moduli, so it rejects its own subjects and exits 2.
MODULE_MIXED_MODULI = Defect(
    "module:r=2 on (Z4 x Z6) rejects its own random subjects and exits 2",
    "exit 2")


def _smooth_overflow(*seeds: int) -> Defect:
    """On some sampled points a smooth subject, or a composite of
    subjects such as a subject composed with itself, leaves the range of
    math.exp, and the OverflowError escapes as a traceback. `seeds` are
    the seeds at which one invocation did so, among the seeds 0-999
    scanned; at any other seed the same problem counts as failed.
    """
    return Defect("smooth subjects overflow math.exp on sampled points; "
                  "uncaught OverflowError", "traceback: OverflowError",
                  frozenset(seeds))


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the answer it must give.

    `checked` maps a seed to the total `checked` count the report must
    show; the key None means every seed.
    """

    argv: tuple[str, ...]
    expect: str
    checked: dict = field(default_factory=dict)
    defect: Optional[Defect] = None

    def argv_for(self, seed: int) -> list[str]:
        return list(self.argv) + ["--seed", str(seed)]

    def expected_checked(self, seed: int) -> Optional[int]:
        return self.checked.get(seed, self.checked.get(None))

    def defect_at(self, seed: int) -> Optional[Defect]:
        d = self.defect
        return d if d is not None and (d.seeds is None or seed in d.seeds) else None


def _check(model: str, space: str, *extra: str) -> tuple[str, ...]:
    return ("check", "--model", model, "--space", space) + extra


_REFUTE_AXIOMS = ("--axioms", "CDC2-additivity,Linearity")

# `checked` totals below are the ROADMAP baseline rows. On a suite that
# holds, every comparison scans its whole test set, so the total depends
# on the argv and not on the seed; lambda-check draws its spaces from the
# seed, so its row is pinned to the baseline seed 0 only.
WORKLOADS: dict[str, list[Invocation]] = {
    # the vectorized table path: lazy table builders, v_* index
    # arithmetic and whole-table compares, passing and refuting
    "table": [
        Invocation(_check("findiff", "Z7", "--subjects", "50"), HOLDS,
                   {None: 514_864}),
        Invocation(_check("findiff", "(Z5 x Z5)", "--subjects", "10",
                          "--bound", "1000000"), HOLDS, {None: 12_926_600}),
        Invocation(_check("module:r=2", "Z7", "--subjects", "10"), HOLDS),
        Invocation(_check("module:r=2", "(Z5 x Z5)", "--subjects", "1",
                          "--bound", "1000000"), HOLDS),
        Invocation(("monad-laws", "--model", "findiff", "--space", "(Z3 x Z3)"),
                   HOLDS),
        Invocation(("kleisli-check", "--model", "findiff", "--space", "Z5",
                    "--subjects", "2"), HOLDS),
        Invocation(("algebra-check", "--model", "findiff", "--space", "Z5"), HOLDS),
        Invocation(("flatness", "--model", "findiff", "--space", "(Z5 x Z5)"), HOLDS),
        Invocation(("lambda-check", "--max-size", "4", "--subjects", "20"), HOLDS,
                   {0: 1_152}),
        Invocation(_check("findiff", "Z7", *_REFUTE_AXIOMS), REFUTED),
        Invocation(_check("findiff", "(Z5 x Z5)", *_REFUTE_AXIOMS,
                          "--bound", "1000000"), REFUTED),
        Invocation(_check("module:r=2", "(Z4 x Z6)"), HOLDS,
                   defect=MODULE_MIXED_MODULI),
    ],
    # the per-point closure path: element algebra, subject closures,
    # sample_space and the change-action laws CA/CAD; the monad layer
    # (closed-form Kleisli composition, its sampled self-check oracle and
    # closure fills over whole domains); and refutations that stop at the
    # first counterexample
    "closure": [
        Invocation(_check("findiff", "Int[-100,100]", "--subjects", "1",
                          "--axioms", "CdC0,CdC2,CdC7a,CA,CAD"), HOLDS),
        Invocation(_check("module:r=3", "Int[-50,50]", "--subjects", "1"), HOLDS),
        Invocation(_check("smooth", "R^1", "--subjects", "2"), HOLDS),
        Invocation(_check("smooth", "R^2", "--subjects", "1"), HOLDS,
                   defect=_smooth_overflow(
                       0, 106, 249, 377, 388, 439, 464, 555, 578, 642, 655, 689, 766,
                       782, 847, 929, 936, 978, 992)),
        Invocation(_check("streams:k=8", "Stream(Z3,8)", "--subjects", "1"), HOLDS),
        Invocation(("kleisli-check", "--model", "streams:k=4", "--space",
                    "Stream(Z3,4)", "--subjects", "2", "--samples", "24"), HOLDS,
                   {None: 132_252}),
        Invocation(("kleisli-check", "--model", "smooth", "--space", "R^1",
                    "--subjects", "2", "--samples", "64"), HOLDS),
        Invocation(("monad-laws", "--model", "streams:k=4", "--space",
                    "Stream(Z3,4)"), HOLDS),
        Invocation(_check("findiff", "Int[-100,100]", *_REFUTE_AXIOMS,
                          "--subjects", "20", "--bound", "1000"), REFUTED),
        Invocation(_check("smooth", "R^2", "--axioms", "Linearity"), REFUTED,
                   defect=_smooth_overflow(220)),
        Invocation(_check("streams:k=8", "Stream(Z3,8)", *_REFUTE_AXIOMS,
                          "--subjects", "6"), REFUTED),
    ],
}


def judge(inv: Invocation, seed: int, code: int, report: Optional[dict],
          error: Optional[str]) -> Optional[str]:
    """Why the outcome differs from the known answer, or None if it matches."""
    if error is not None:
        return "traceback: " + error.strip().splitlines()[-1]
    if report is None:
        return f"exit {code} with no JSON report"
    results = report.get("results", [])
    violations = report.get("violations_total")
    if inv.expect == HOLDS:
        if code != 0:
            return f"exit {code}, expected 0"
        if violations != 0:
            return f"{violations} violations, expected 0"
        if not results or sum(r["checked"] for r in results) == 0:
            return "empty run reported as a pass"
    else:
        if code != 1:
            return f"exit {code}, expected 1"
        if not violations:
            return "no violations, expected a refutation"
        for r in results:
            if r["violations"] == 0:
                continue
            cx = r.get("counterexample") or {}
            if "lhs" not in cx or "rhs" not in cx or cx["lhs"] == cx["rhs"]:
                return f"{r['axiom']}: violation without a counterexample whose sides differ"
    want = inv.expected_checked(seed)
    got = sum(r["checked"] for r in results)
    if want is not None and got != want:
        return f"checked {got}, expected {want}"
    return None
