"""Stacked subject pools against the per-subject loop they replace.

A pool of S >= 2 subjects on one small codec domain runs each law once,
on maps whose tables hold a row per subject (`kernel.SubjectPool`). Its
reports must equal, byte for byte, those of the same pool run subject by
subject, which is forced here by making `kernel._stack` decline every pool.
"""

import gc
import json

import pytest

from diffkit import kernel
from diffkit.cli import SUITE_AXIOMS, run_check
from diffkit.errors import NotAdditive
from diffkit.kernel import SubjectPool, axiom_pool_report, zero_map
from diffkit.models import FinDiffModel, get_model
from diffkit.models.findiff import difference_derivative
from diffkit.morphisms import Auto, EqualityStrategy
from diffkit.spaces import parse_space

FULL = [*SUITE_AXIOMS, "CA", "CAD"]
REFUTE = ["CDC2-additivity", "Linearity"]


def _reports(model, space, axioms, subjects, seed, bound):
    strat = EqualityStrategy(Auto(64, seed), bound=bound)
    reports = run_check(model, parse_space(space), axioms, subjects, seed, strat)
    return json.dumps([r.to_dict() for r in reports])


def _both(monkeypatch, make_model, space, axioms, subjects, seed, bound):
    """The reports of a stacked run, and of the same run subject by subject."""
    ran, real = [], kernel.stacked_report
    with monkeypatch.context() as m:
        m.setattr(kernel, "stacked_report", lambda *a, **k: ran.append(real(*a, **k)) or ran[-1])
        stacked = _reports(make_model(), space, axioms, subjects, seed, bound)
    assert ran and None not in ran  # every law ran stacked, none subject by subject
    with monkeypatch.context() as m:
        m.setattr(kernel, "_stack", lambda subjects: None)
        alone = _reports(make_model(), space, axioms, subjects, seed, bound)
    return stacked, alone


@pytest.mark.parametrize("bound", [100_000, 200], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("axioms", [FULL, REFUTE], ids=["suite", "refute"])
@pytest.mark.parametrize("space", ["Z5", "Z7", "(Z5 x Z5)", "(Z4 x Z6)"])
@pytest.mark.parametrize("tag", ["findiff", "module:r=2"])
def test_a_stacked_pool_reports_as_its_subjects_alone(monkeypatch, tag, space, axioms, bound):
    # a bound of 200 samples every stage past A x A (past A on (Z5 x Z5))
    for seed in range(5):
        stacked, alone = _both(monkeypatch, lambda: get_model(tag), space, axioms, 4, seed,
                               bound)
        assert stacked == alone, (seed, stacked, alone)


def test_a_pool_is_stacked_only_on_one_small_codec_domain():
    fd = get_model("findiff")
    z7 = parse_space("Z7")
    assert SubjectPool(fd, fd.random_subjects(z7, 3, 1)).stacked is not None
    assert SubjectPool(fd, fd.random_subjects(z7, 1, 1)).stacked is None
    assert SubjectPool(fd, fd.random_subjects(parse_space("Int[-3,3]"), 3, 1)).stacked is None
    mixed = fd.random_subjects(z7, 2, 1) + fd.random_subjects(parse_space("Z5"), 1, 1)
    assert SubjectPool(fd, mixed).stacked is None
    streams = get_model("streams:k=8")
    big = streams.random_subjects(parse_space("Stream(Z3,8)"), 2, 1)  # 6,561 codes
    assert SubjectPool(streams, big).stacked is None
    f, g = SubjectPool(fd, fd.random_subjects(z7, 3, 1)).stacked
    assert f.rows == g.rows == 3 and f.table.shape == (3, 7)
    assert (g.table[0] == f.table[1]).all() and (g.table[2] == f.table[0]).all()


class _NoEpsilon(FinDiffModel):
    """Finite differences with eps = 0. By hand from the axioms: CdC2 needs
    df<x,y+z> = df<x,y> + df<x,z>, which fails for a nonlinear f; CdC6 reads
    d2f<<x,y>,<0,z>> = df<x+y,z> against df<x,z>; CAD2 regularity holds with
    x (+) y = x + y, but CAD1 reads f(x) + df<x,y> = f(x + y) against
    f(x) + df<x,y> with (+) = projection, so it fails. The rest hold."""

    def epsilon(self, f):
        return zero_map(f.dom, f.cod)


@pytest.mark.parametrize("bound", [100_000, 200], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("space", ["Z5", "(Z5 x Z5)"])
def test_a_broken_model_is_refuted_alike_stacked_and_alone(monkeypatch, space, bound):
    for seed in range(3):
        stacked, alone = _both(monkeypatch, _NoEpsilon, space, FULL, 5, seed, bound)
        assert stacked == alone, seed
        refuted = {r["axiom"] for r in json.loads(stacked) if r["violations"]}
        assert refuted == {"CdC2", "CdC6", "CAD1+CAD2"}, seed
        for r in json.loads(stacked):
            cx = r.get("counterexample")
            assert (cx is not None) == (r["violations"] > 0)
            assert cx is None or cx["lhs"] != cx["rhs"]


def test_a_non_additive_subject_raises_as_it_does_alone(monkeypatch):
    # the module model's derivative probes its map for additivity: stacked,
    # one probe gives a verdict per row, and the first failing row raises
    # the error the per-subject loop raises
    mm, space = get_model("module:r=2"), parse_space("Z7")
    fd = get_model("findiff")

    def pool():
        subjects = mm.random_subjects(space, 4, 3)
        subjects[2] = fd.random_subjects(space, 1, 3)[0]
        subjects[2].model = mm.tag
        return subjects

    strat = EqualityStrategy(Auto(64, 3))
    with pytest.raises(NotAdditive) as stacked:
        axiom_pool_report(mm, "CdC0", SubjectPool(mm, pool()), strat, "random subjects")
    with monkeypatch.context() as m:
        m.setattr(kernel, "_stack", lambda subjects: None)
        with pytest.raises(NotAdditive) as alone:
            axiom_pool_report(mm, "CdC0", SubjectPool(mm, pool()), strat, "random subjects")
    assert str(stacked.value) == str(alone.value) and "tbl0" in str(stacked.value)


def test_a_finished_run_leaves_no_garbage():
    # the derivative memo of a pool refers to nothing that refers back to
    # it, so reference counting frees the run: the cyclic collector finds
    # nothing to collect
    model, space = get_model("findiff"), parse_space("(Z5 x Z5)")
    strat = EqualityStrategy(Auto(256, 42))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for axioms in (["CdC3"], FULL):
            run_check(model, space, axioms, 3, 42, strat)
            gc.collect()
            assert gc.garbage == [], axioms
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("space", ["Z7", "Int[-4,4]"])
def test_a_run_differentiates_each_map_once(monkeypatch, space):
    # d[f] and d[d[f]] are built once for each map the pool owns, its
    # subjects or its two stacked maps, and shared by every axiom of the run
    made = []
    monkeypatch.setattr(FinDiffModel, "_derivative",
                        lambda self, f: made.append(f) or difference_derivative(f, self.tag))
    model = get_model("findiff")
    pools = []
    monkeypatch.setattr(kernel.SubjectPool, "cat",
                        lambda self: pools.append(self) or kernel.BaseCat(self.model,
                                                                          self.derivatives))
    run_check(model, parse_space(space), FULL, 3, 5, EqualityStrategy(Auto(64, 5)))
    (pool,) = set(pools)
    owned = list(pool.stacked or pool.subjects)
    assert len(owned) == (2 if space == "Z7" else 3)
    assert len({id(f) for f in made}) == len(made)  # no map is differentiated twice
    for m in owned:
        assert sum(f is m for f in made) == 1, m
    # the second derivative of f (the stacked map, or each subject alone)
    firsts = [pool.derivatives[m] for m in (owned[:1] if space == "Z7" else owned)]
    assert all(sum(f is d for f in made) == 1 and pool.derivatives[d] is not None
               for d in firsts)
