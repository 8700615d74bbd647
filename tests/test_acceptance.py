"""Acceptance suite: one test per shipped guarantee, printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and counts are pinned here and nowhere else.
"""

import json
import time

import jsonschema

from diffkit.cli import REPORT_SCHEMA, main, run_check
from diffkit.kernel import (
    add,
    check_axiom,
    compose,
    is_epsilon_linear,
    is_group_homomorphism,
    is_linear,
    projection,
)
from diffkit.lambda_closed import run_lambda_suite
from diffkit.models import causality_check, get_model, simple_stream_derivative, stream_linear_check
from diffkit.monad import (
    AlgebraCandidate,
    KleisliMap,
    T_map,
    check_kleisli_cdc,
    check_linear_algebra,
    check_monad_laws,
    check_tangent_identities,
    free_algebra,
    kleisli_compose,
    mu,
    sharp,
)
from diffkit.morphisms import (
    DEFAULT_STRATEGY,
    Auto,
    EqualityStrategy,
    Exhaustive,
    Morphism,
    Sampled,
    from_table,
    morphisms_equal,
)
from diffkit.spaces import (
    BoundedInt,
    CyclicGroup,
    Product,
    Real,
    StreamPrefix,
    derive_seed,
    sample_space,
)
from diffkit.terms import interpret, print_term, random_term, symbolic_derive

Z = BoundedInt(-100, 100)
Z5 = CyclicGroup(5)
Z7 = CyclicGroup(7)
Z55 = Product(Z5, Z5)

# every stage in the exhaustive runs fits this raised bound (largest is
# the second-derivative quadruple stage over Z5xZ5: 25^4 = 390,625)
EXHAUSTIVE = EqualityStrategy(Auto(256, 0), bound=1_000_000)

SUITE = [
    "CdC0", "CdC1", "CdC2", "CdC3", "CdC4", "CdC5", "CdC6", "CdC7",
    "CdC6a", "CdC7a", "E1", "E2", "E3",
    "DEps-i", "DEps-ii", "DEps-iii", "Eq1-strong", "CA", "CAD",
]


def _announce(num, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_01_findiff_axiom_suite():
    fd = get_model("findiff")
    started = time.time()
    violations = 0
    checked = 0
    for space in (Z7, Z55):
        results = run_check(fd, space, SUITE, subjects=50, seed=42,
                            strat=EXHAUSTIVE)
        assert len(results) == len(SUITE)
        violations += sum(r.violations for r in results)
        checked += sum(r.checked for r in results)
    elapsed = time.time() - started
    _announce(1, violations == 0 and elapsed < 60.0,
              f"findiff suite on Z7 and Z5xZ5, 50 subjects, {checked} points, "
              f"{violations} violations, {elapsed:.1f}s (< 60s)")


def test_criterion_02_separation_witness():
    fd = get_model("findiff")
    sq = fd.primitive("sq", Z)
    rep = check_axiom(fd, "CDC2-additivity", [sq], EqualityStrategy(Sampled(128, 1)))
    d = fd.derivative(sq)
    witness = d((0, 2)) == 4 and d((0, 1)) + d((0, 1)) == 2
    sm = get_model("smooth")
    R1 = Real(1)
    smooth_pool = [sm.primitive(n, R1) for n in
                   ("sq", "cube", "sin", "cos", "exp", "inc", "dbl", "neg")]
    smooth_pool += sm.random_subjects(R1, 24, seed=2)
    smooth_ok = all(
        check_axiom(sm, "CDC2-additivity", [f],
                    EqualityStrategy(Sampled(64, 3))).passed
        for f in smooth_pool
    )
    _announce(2, (not rep.passed) and witness and smooth_ok,
              "CDC2-additivity fails in findiff (d[sq](0,2)=4 vs 2) "
              "and passes across the smooth grammar")


def test_criterion_03_smooth_derivative_correctness():
    sm = get_model("smooth")
    R1 = Real(1)
    h = 1e-5
    subjects = sm.random_subjects(R1, 200, seed=5)
    bad = 0
    for i, f in enumerate(subjects):
        d = sm.derivative(f)
        xs = sample_space(R1, 1, derive_seed(6, i))
        ys = sample_space(R1, 1, derive_seed(7, i))
        for x, y in zip(xs, ys):
            exact = d((x, y))[0]
            up = f((x[0] + h * y[0],))[0]
            dn = f((x[0] - h * y[0],))[0]
            approx = (up - dn) / (2 * h)
            if abs(exact - approx) > 1e-4 * max(abs(exact), abs(approx), 1.0):
                bad += 1
    cube = sm.primitive("cube", R1)
    exact12 = abs(sm.derivative(cube)(((2.0,), (1.0,)))[0] - 12.0) <= 1e-9
    _announce(3, bad == 0 and exact12,
              f"200 grammar subjects vs central differences (h=1e-5, rel 1e-4), "
              f"{bad} mismatches; D[x^3](2,1) = 12 to 1e-9")


def test_criterion_04_stream_operator():
    st = get_model("streams:k=8")
    strat = EqualityStrategy(Sampled(256, 4))
    axioms = ["CdC0", "CdC1", "CdC2", "CdC3", "CdC4", "CdC5", "CdC6", "CdC7",
              "CdC6a", "CdC7a", "E1", "E2", "E3"]
    violations = 0
    for base in (CyclicGroup(3), Z):
        space = StreamPrefix(base, 8)
        subs = st.random_subjects(space, 32, seed=8)
        for ax in axioms:
            for i in range(0, len(subs), 2):
                rep = check_axiom(st, ax, subs[i : i + 2], strat)
                violations += rep.violations
    # the one-branch operator is kept as a negative fixture: its identity
    # derivative truncates, d[1](a,b) = z(b) != b at index 0
    s8 = StreamPrefix(CyclicGroup(3), 8)
    from diffkit.kernel import identity as kid

    bad = simple_stream_derivative(kid(s8))
    rep = morphisms_equal(bad, projection(1, s8, s8), strat)
    fixture = (not rep.passed
               and rep.counterexample["lhs"][0] == 0
               and rep.counterexample["rhs"][0] != 0)
    causal = all(causality_check(st.primitive(n, s8), strat)
                 for n in st.primitive_names())
    _announce(4, violations == 0 and fixture and causal,
              f"two-branch operator passes CdC suite at K=8 over Z3 and "
              f"bounded-Z ({violations} violations); simpler operator fails "
              f"CdC3 at index 0; all primitives causal")


def test_criterion_05_linear_map_characterizations():
    fd = get_model("findiff")
    EX = EqualityStrategy(Exhaustive())
    mism = 0
    for code in range(5**5):
        tbl = [(code // 5**i) % 5 for i in range(5)]
        f = from_table(Z5, Z5, tbl, name=f"e{code}")
        if is_linear(fd, f, EX)[0] != is_group_homomorphism(f, EX):
            mism += 1
    mm = get_model("module:r=2")
    module_ok = all(
        is_linear(mm, f, EX)[0] and is_epsilon_linear(mm, f, EX)
        for f in mm.random_subjects(Z5, 20, seed=9)
    ) and all(
        is_linear(mm, mm.primitive(n, Z5), EX)[0] for n in mm.primitive_names()
    )
    st = get_model("streams:k=8")
    s8 = StreamPrefix(CyclicGroup(3), 8)
    strat = EqualityStrategy(Sampled(128, 10))
    from diffkit.kernel import identity as kid
    from diffkit.models import truncation

    pool = ([kid(s8), truncation(s8)]
            + [st.primitive(n, s8) for n in st.primitive_names()]
            + st.random_subjects(s8, 12, seed=11))
    stream_ok = all(stream_linear_check(st, f, strat).passed for f in pool)
    _announce(5, mism == 0 and module_ok and stream_ok,
              f"all 3125 endofunctions of Z5: linear <=> homomorphism "
              f"({mism} mismatches); module subjects all linear and "
              f"eps-linear; stream characterization agrees on the pool")


def test_criterion_06_monad_laws():
    cases = [
        ("findiff", Z5, EXHAUSTIVE),
        ("smooth", Real(1), EqualityStrategy(Sampled(256, 12))),
        ("module:r=2", Z5, EXHAUSTIVE),
        ("streams:k=4", StreamPrefix(CyclicGroup(3), 4),
         EqualityStrategy(Sampled(256, 12))),
    ]
    ok = True
    for tag, space, strat in cases:
        model = get_model(tag)
        laws = check_monad_laws(model, space, strat)
        subs = model.random_subjects(space, 2, seed=13)
        nat = check_tangent_identities(model, space, subs, strat)
        if not (laws.passed and nat.passed):
            ok = False
            print(f"  {tag}: laws={laws.counterexample} nat={nat.counterexample}")
    _announce(6, ok, "unit + associativity exhaustive on Z5, sampled "
                     "elsewhere; naturality and tangent identities pass "
                     "in all four models")


def test_criterion_07_kleisli_correctness():
    fd = get_model("findiff")
    EX = EqualityStrategy(Exhaustive())
    agree = True
    for i in range(50):
        comps = fd.random_subjects(Z5, 4, seed=derive_seed(14, i))
        f = KleisliMap(Z5, Z5, comps[0], comps[1])
        g = KleisliMap(Z5, Z5, comps[2], comps[3])
        closed = kleisli_compose(fd, g, f, oracle_strat=EX)
        definitional = compose(mu(fd, Z5),
                               compose(T_map(fd, g.as_base()), f.as_base()))
        if not morphisms_equal(closed.as_base(), definitional, EX).passed:
            agree = False
        s = sharp(fd, f)
        oracle = compose(mu(fd, Z5), T_map(fd, f.as_base()))
        if not morphisms_equal(s, oracle, EX).passed:
            agree = False
    suite_ok = True
    for tag, space, strat, n in [
        ("findiff", Z5, EqualityStrategy(Auto(96, 15)), 6),
        ("smooth", Real(1), EqualityStrategy(Sampled(48, 15)), 4),
    ]:
        model = get_model(tag)
        reports = check_kleisli_cdc(model, space, strat, subjects=n, seed=15,
                                    oracle_strat=DEFAULT_STRATEGY)
        if tag == "smooth":
            assert any(r.axiom == "CDC2-additivity" for r in reports)
        for r in reports:
            if not r.passed:
                suite_ok = False
                print(f"  {tag} {r.axiom}: {r.counterexample}")
    _announce(7, agree and suite_ok,
              "closed-form Kleisli composition = definitional on 50 "
              "exhaustive pairs; sharp = mu.T(f); Kleisli CdC suite passes "
              "(smooth includes second-argument additivity)")


def test_criterion_08_linear_algebras():
    EX = EqualityStrategy(Exhaustive())
    BIG = EqualityStrategy(Auto(256, 16), bound=1_000_000)
    free_ok = True
    for tag, space, strat in [
        ("findiff", Z5, BIG),
        ("smooth", Real(1), EqualityStrategy(Sampled(96, 16))),
        ("module:r=2", Z5, BIG),
        ("streams:k=4", StreamPrefix(CyclicGroup(3), 4),
         EqualityStrategy(Sampled(48, 16))),
    ]:
        model = get_model(tag)
        rep = check_linear_algebra(model, free_algebra(model, space), strat)
        if not rep.passed:
            free_ok = False
            print(f"  free algebra {tag}: {rep.counterexample}")
    fd = get_model("findiff")
    p0, p1 = projection(0, Z5, Z5), projection(1, Z5, Z5)
    passing = 0
    for k in range(5):
        scale = Morphism(Z5, Z5, lambda y, _k=k: (_k * y) % 5, name=f"x{k}")
        nu = add(p0, compose(scale, p1))
        rep = check_linear_algebra(fd, AlgebraCandidate(Z5, nu), EX)
        if rep.passed:
            # the extracted e = nu(0, -) homomorphism clause is part of the
            # check itself; confirm it directly as well
            e = compose(nu, compose(
                Morphism(Z5, Product(Z5, Z5), lambda y: (0, y), name="pad"),
                Morphism(Z5, Z5, lambda y: y)))
            assert is_group_homomorphism(e, EX)
            passing += 1
    nonlinear = add(p0, compose(fd.primitive("sq", Z5), p1))
    rejected = not check_linear_algebra(fd, AlgebraCandidate(Z5, nonlinear), EX).passed
    _announce(8, free_ok and passing >= 1 and rejected,
              f"(T(A), mu) linear in all four models; {passing} scalar "
              f"candidates pass on Z5 with additive extracted e; "
              f"nu = x + y^2 rejected")


def test_criterion_09_lambda_layer():
    from diffkit.lambda_closed import check_dlambda_axioms
    from diffkit.spaces import FunctionSpace, encode, iter_space

    fd = get_model("findiff")
    EX = EqualityStrategy(Exhaustive())
    Z2, Z3 = CyclicGroup(2), CyclicGroup(3)
    A = Product(Z2, Z2)
    bad = 0
    count = 0
    for tbl in iter_space(FunctionSpace(A, Z3)):
        g = Morphism(A, Z3, lambda p, _t=tbl: _t[encode(A, p)])
        if not check_dlambda_axioms(fd, g, EX).passed:
            bad += 1
        count += 1
    assert count == 81
    reports = run_lambda_suite(fd, max_size=4, subjects=20, seed=17, strat=EX)
    suite_bad = [r for r in reports if not r.passed]
    _announce(9, bad == 0 and not suite_bad,
              f"curry coherence exhaustive over all 81 subjects Z2xZ2 -> Z3 "
              f"plus 20 random subjects on spaces <= 4: evaluation-map "
              f"identities and curry round-trips included")


def test_criterion_10_rewriter_oracle_and_cli(capsys):
    cases = [
        ("findiff", Z7, None, EqualityStrategy(Auto(32, 18))),
        ("smooth", Real(1), 1e6, EqualityStrategy(Sampled(24, 18))),
        ("module:r=2", Z5, None, EqualityStrategy(Auto(32, 18))),
        ("streams:k=4", StreamPrefix(CyclicGroup(3), 4), None,
         EqualityStrategy(Sampled(16, 18))),
    ]
    violations = 0
    for tag, space, cap, strat in cases:
        model = get_model(tag)
        for i in range(500):
            t = random_term(model, space, depth=4,
                            seed=derive_seed(19, tag, i), value_cap=cap)
            direct = model.derivative(interpret(t, model, space))
            rewritten = interpret(symbolic_derive(t), model,
                                  dom=Product(space, space), space=space)
            if not morphisms_equal(rewritten, direct, strat).passed:
                violations += 1
                print(f"  {tag}: {print_term(t)}")
    # CLI exit codes + schema + replay determinism
    argv = ["check", "--model", "findiff", "--space", "Z7",
            "--axioms", "CdC0,CdC5,E2,CA", "--subjects", "6", "--seed", "23"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    d1, d2 = json.loads(out1), json.loads(out2)
    jsonschema.validate(d1, REPORT_SCHEMA)
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    replay = json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    fail_code = main(["check", "--model", "findiff", "--space", "Z7",
                      "--axioms", "CDC2-additivity", "--subjects", "8",
                      "--seed", "23"])
    capsys.readouterr()
    usage_code = main(["check", "--model", "findiff", "--axioms", "bogus"])
    _announce(10, violations == 0 and code1 == 0 and code2 == 0
              and fail_code == 1 and usage_code == 2 and replay,
              f"2000 rewritten terms match model derivatives "
              f"({violations} violations); CLI exit codes 0/1/2; JSON "
              f"schema validates; identical seeds replay byte-identically")
