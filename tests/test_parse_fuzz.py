"""The text parsers on arbitrary input: every text gives a value or a
`DiffkitError`, which the CLI turns into exit 2. Any other exception
would reach the user as a traceback and exit 1, which reads as a law
violation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from diffkit.cli import parse_point
from diffkit.errors import DiffkitError
from diffkit.spaces import parse_space
from diffkit.terms import parse_term

# the characters of each syntax, plus a sign, a superscript digit and a
# fullwidth digit that `str.isdigit` accepts but `int` may not
SPACE_TEXT = st.text(alphabet="ZRInt[]^(),xStream 019-+²¹５", max_size=24)
TERM_TEXT = st.text(alphabet="()compairdsepzrolnt_-01 x²", max_size=32)
POINT_TEXT = st.text(alphabet="()[], 0189+-.eE²", max_size=24)


def parses_or_refuses(parse, text):
    try:
        parse(text)
    except DiffkitError:
        pass


@settings(max_examples=400, deadline=None)
@given(st.one_of(SPACE_TEXT, st.text(max_size=24)))
def test_parse_space_on_any_text(text):
    parses_or_refuses(parse_space, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(TERM_TEXT, st.text(max_size=32)))
def test_parse_term_on_any_text(text):
    parses_or_refuses(parse_term, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(POINT_TEXT, st.text(max_size=24)))
def test_parse_point_on_any_text(text):
    parses_or_refuses(parse_point, text)


def test_deep_nesting_is_refused():
    for parse, text in [(parse_space, "(" * 5000), (parse_term, "(eps " * 5000),
                        (parse_point, "(" * 5000), (parse_point, "[" * 5000)]:
        parses_or_refuses(parse, text)
