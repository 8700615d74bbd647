"""Stacked subject pools against the per-subject loop they replace.

A pool of S >= 2 subjects on one small codec domain runs each law once,
on maps whose tables hold a row per subject (`kernel.SubjectPool`; a
`monad.KleisliPool` stacks each component of its Kleisli maps). Its
reports must equal, byte for byte, those of the same pool run subject by
subject, which is forced here by making `kernel._stack` decline every pool.
"""

import gc
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from diffkit import kernel, monad
from diffkit.cli import SUITE_AXIOMS, main, run_check
from diffkit.errors import InternalError, NotAdditive
from diffkit.kernel import COHERENCE, SubjectPool, add, axiom_pool_report, compose, pair, zero_map
from diffkit.models import FinDiffModel, get_model
from diffkit.models.findiff import difference_derivative
from diffkit.monad import KleisliMap, check_kleisli_cdc
from diffkit.morphisms import (Auto, EqualityReport, EqualityStrategy, Morphism, Unstacked,
                               codes_at, no_closure)
from diffkit.spaces import enum_batch, parse_space
from diffkit.terms import LAWS

FULL = [*SUITE_AXIOMS, "CA", "CAD"]
REFUTE = ["CDC2-additivity", "Linearity"]


def _reports(model, space, axioms, subjects, seed, bound):
    strat = EqualityStrategy(Auto(64, seed), bound=bound)
    reports = run_check(model, parse_space(space), axioms, subjects, seed, strat)
    return json.dumps([r.to_dict() for r in reports])


def _both(monkeypatch, reports) -> tuple:
    """The `reports()` of a stacked run, of the same run subject by subject,
    and the number of laws that ran stacked."""
    ran, real = [], kernel.stacked_report
    with monkeypatch.context() as m:
        m.setattr(kernel, "stacked_report", lambda *a, **k: ran.append(real(*a, **k)) or ran[-1])
        stacked = reports()
    assert ran and None not in ran  # every law ran stacked, none subject by subject
    with monkeypatch.context() as m:
        m.setattr(kernel, "_stack", lambda subjects: None)
        alone = reports()
    return stacked, alone, len(ran)


@pytest.mark.parametrize("bound", [100_000, 200], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("axioms", [FULL, REFUTE], ids=["suite", "refute"])
@pytest.mark.parametrize("space", ["Z5", "Z7", "(Z5 x Z5)", "(Z4 x Z6)"])
@pytest.mark.parametrize("tag", ["findiff", "module:r=2"])
def test_a_stacked_pool_reports_as_its_subjects_alone(monkeypatch, tag, space, axioms, bound):
    # a bound of 200 samples every stage past A x A (past A on (Z5 x Z5))
    for seed in range(5):
        stacked, alone, _ = _both(
            monkeypatch, lambda: _reports(get_model(tag), space, axioms, 4, seed, bound))
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
        stacked, alone, _ = _both(
            monkeypatch, lambda: _reports(_NoEpsilon(), space, FULL, 5, seed, bound))
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


# Kleisli pools: a pool of Kleisli maps stacks each component, and runs each
# law program, with every composition's self-check, once per pool
KLEISLI = [("findiff", "Z5"), ("module:r=2", "Z6"), ("streams:k=4", "Stream(Z3,4)")]
STACKED_LAWS = sum(LAWS[ax].arity != "space" for ax in COHERENCE)  # CdC3 runs once anyway


def _kleisli_reports(tag, space, subjects, seed):
    reports = check_kleisli_cdc(get_model(tag), parse_space(space),
                                EqualityStrategy(Auto(24, seed)), subjects=subjects, seed=seed)
    return json.dumps([r.to_dict() for r in reports])


@pytest.mark.parametrize("subjects", [2, 5])
@pytest.mark.parametrize("tag, space", KLEISLI)
def test_a_stacked_kleisli_pool_reports_as_its_subjects_alone(monkeypatch, tag, space, subjects):
    for seed in range(5):
        stacked, alone, ran = _both(
            monkeypatch, lambda: _kleisli_reports(tag, space, subjects, seed))
        assert ran == STACKED_LAWS
        assert stacked == alone, (seed, stacked, alone)


# ROADMAP item 7's mutants of the closed form <g0.f0, d[g0]<f0,f1> + g1.(f0 (+) f1)>.
# eps is the identity in findiff, so "eps on the wrong component" is the
# closed form itself there; module:r=2 (eps = 2) and streams tell them apart.
def _no_derivative_term(model, g, f, derive):
    return KleisliMap(f.dom, g.cod, compose(g.f0, f.f0),
                      compose(g.f1, add(f.f0, model.epsilon(f.f1))))


def _no_g1_term(model, g, f, derive):
    return KleisliMap(f.dom, g.cod, compose(g.f0, f.f0),
                      compose(derive(g.f0), pair(f.f0, f.f1)))


def _eps_on_f0(model, g, f, derive):
    return KleisliMap(f.dom, g.cod, compose(g.f0, f.f0),
                      add(compose(derive(g.f0), pair(f.f0, f.f1)),
                          compose(g.f1, add(model.epsilon(f.f0), f.f1))))


def _f0_f1_swapped(model, g, f, derive):
    return KleisliMap(f.dom, g.cod, compose(g.f0, f.f0),
                      add(compose(derive(g.f0), pair(f.f1, f.f0)),
                          compose(g.f1, add(f.f1, model.epsilon(f.f0)))))


@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "alone"])
@pytest.mark.parametrize("tag, space", KLEISLI[1:])
@pytest.mark.parametrize("mutant", [_no_derivative_term, _no_g1_term, _eps_on_f0,
                                    _f0_f1_swapped])
def test_a_wrong_closed_form_exits_three(monkeypatch, mutant, tag, space, stacked):
    monkeypatch.setattr(monad, "closed_form", mutant)
    if not stacked:
        monkeypatch.setattr(kernel, "_stack", lambda subjects: None)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["kleisli-check", "--model", tag, "--space", space, "--subjects", "3",
                     "--samples", "24", "--seed", "0"])
    assert code == 3
    assert err.getvalue().startswith("error: internal: Kleisli composition self-check failed")


def test_only_a_stacked_self_check_unstacks(monkeypatch):
    # the marker of stacked maps is `misses`; any other failed self-check,
    # with a counterexample or without, is a bug in diffkit (InternalError)
    model = get_model("findiff")
    g, f = monad.random_kleisli_subjects(model, parse_space("Z3"), 2, 0)
    for rep, raised in [(EqualityReport(False, 3, misses={1: 3}), Unstacked),
                        (EqualityReport(False, 3), InternalError)]:
        monkeypatch.setattr(monad, "morphisms_equal", lambda *a, **k: rep)
        with pytest.raises(raised):
            monad.kleisli_compose(model, g, f)


# ---------------------------------------------------------------------------
# the layout of stacked batches


def _stacked(table):
    table.setflags(write=False)
    z = parse_space(f"Z{table.shape[1]}")
    return Morphism(z, z, no_closure, table=table, rows=len(table))


@pytest.mark.parametrize("dtype", [np.int64, np.uint8], ids=["int64", "narrow"])
def test_stacked_batches_are_c_ordered(dtype):
    # a pool table read at a 1-D request, or row by row at an (S, N) one,
    # gives a C-ordered batch, and so do the maps built from it: a strided
    # batch slows every elementwise kernel downstream
    rows = np.random.default_rng(0).integers(0, 9, size=(3, 9)).astype(dtype)
    f = _stacked(rows)
    g = _stacked(np.roll(rows, -1, axis=0))
    idx = np.random.default_rng(1).integers(0, 9, size=40)
    for m in (f, compose(g, f), pair(f, g), add(f, g)):
        for request in (idx, np.stack([idx, idx[::-1], idx])):
            batch = codes_at(m, request)
            assert batch.shape == (3, 40) and batch.dtype == np.int64, m
            assert batch.flags.c_contiguous, (m, request.ndim)
    assert (codes_at(f, idx) == rows[:, idx]).all()


def test_pool_maps_give_c_ordered_batches():
    # the pool's own maps: int64 tables of its subjects, and the narrow
    # table of a derivative with more than BLOCK entries in all
    model, space = get_model("streams:k=4"), parse_space("Stream(Z3,4)")
    pool = SubjectPool(model, model.random_subjects(space, 11, 3))
    cat = pool.cat()
    f, g = pool.stacked
    df = cat.derivative(f)
    x = enum_batch(df.dom, 0, 4096)
    for m in (f, g, df, cat.add(df, cat.epsilon(df))):
        batch = codes_at(m, x if m.dom == df.dom else x % 81)
        assert batch.shape == (11, 4096) and batch.flags.c_contiguous, m
    assert df.table is not None and df.table.dtype == np.uint8
