"""diffkit: executable difference categories.

Four concrete models of generalized differentiation (finite
differences, smooth dual-number derivatives, module maps, causal
streams), the tangent bundle monad with its Kleisli category, closed
structure over finite carriers, and a law-checking harness with a
symbolic derivative rewriter.
"""

from .changeaction import (
    ChangeActionStruct,
    check_cad_derivative,
    check_change_action,
    induced_action,
)
from .errors import DiffkitError
from .kernel import (
    AXIOM_IDS,
    BaseCat,
    DifferenceModel,
    add,
    check_axiom,
    check_flatness,
    compose,
    const_map,
    derivative,
    epsilon,
    identity,
    is_epsilon_linear,
    is_epsilon_vanishing,
    is_group_homomorphism,
    is_linear,
    oplus,
    pair,
    product_map,
    projection,
    terminal_map,
    zero_map,
)
from .lambda_closed import (
    check_closed_left_additive,
    check_dlambda_axioms,
    check_ev_derivative_identities,
    curry,
    ev,
    function_space,
    sw,
    uncurry,
)
from .models import (
    Dual,
    FinDiffModel,
    ModuleModel,
    SmoothModel,
    StreamModel,
    causality_check,
    get_model,
    load_table_primitive,
    simple_stream_derivative,
    stream_derivative,
    stream_linear_check,
    truncation,
)
from .monad import (
    AlgebraCandidate,
    KleisliCat,
    KleisliMap,
    T_map,
    T_space,
    check_kleisli_cdc,
    check_linear_algebra,
    check_monad_laws,
    check_tangent_identities,
    eta,
    free_algebra,
    kleisli_add,
    kleisli_compose,
    kleisli_derivative,
    kleisli_epsilon,
    kleisli_identity,
    kleisli_pair,
    kleisli_proj,
    mu,
    phi,
    phi_inv,
    sharp,
)
from .morphisms import (
    Auto,
    EqualityStrategy,
    Exhaustive,
    LawReport,
    Morphism,
    Sampled,
    from_table,
    morphisms_equal,
)
from .spaces import (
    BoundedInt,
    CyclicGroup,
    FunctionSpace,
    Product,
    Real,
    Space,
    StreamPrefix,
    TERMINAL,
    Terminal,
    enumerate_space,
    format_space,
    parse_space,
    sample_space,
)
from .terms import (
    Term,
    interpret,
    parse_term,
    print_term,
    random_term,
    symbolic_derive,
)

__version__ = "0.1.0"
