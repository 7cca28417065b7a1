"""The two input languages' front ends: one scanner, its positions, and
no exception on any text but the documented ones."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specdiff.generator import GenConfig, Rng, gen_expr, mix_seed
from specdiff.sigdsl import (
    _SIGNATURE_TOKENS,
    ParseError,
    ValidationError,
    parse_signature,
    parse_ty,
    render_signature,
    scan,
)
from specdiff.suite import get_suite
from specdiff.symexpr import ExprTypeError, from_text, to_text

from models import MAPPED_SIG, TALLY_SIG
from oracles import oracle_from_text, oracle_tokenize

SIGS = {name: get_suite(name).signature for name in ("finite_set", "bst_map", "counter")}
SIGS["tally"] = parse_signature(TALLY_SIG)
SIGS["mapped"] = parse_signature(MAPPED_SIG)

SIG_TEXTS = [TALLY_SIG, MAPPED_SIG, *map(render_signature, SIGS.values())]

# characters that build, break and separate tokens of each language
EXPR_CHARS = "()  -0129'\"\\abefilmnpqrstuvy_$#\n\t"
SIG_CHARS = "()  :->#\n\r\t\fabdegilnoprstu_$"


def generated_texts(sig, count: int):
    """Round-tripped generated expressions, each op's return type in turn."""
    for i in range(count):
        ty = sig.ops[i % len(sig.ops)].ret
        yield to_text(gen_expr(ty, i % 13, sig, GenConfig(max_size=12), Rng(mix_seed(7, i))))


def mutated(text: str, rng: random.Random, alphabet: str):
    """text with one character deleted, inserted or replaced, or cut short."""
    i = rng.randrange(len(text) + 1)
    edit = rng.randrange(4)
    if edit == 0:
        return text[:i] + text[i + 1 :]
    if edit == 1:
        return text[:i] + rng.choice(alphabet) + text[i:]
    if edit == 2:
        return text[:i] + rng.choice(alphabet) + text[i + 1 :]
    return text[:i]


def assert_same_parse(text: str, sig) -> None:
    """from_text returns what the old parser returns, or raises the same class."""
    try:
        want = oracle_from_text(text, sig)
    except (ParseError, ExprTypeError) as exc:
        with pytest.raises((ParseError, ExprTypeError)) as got:
            from_text(text, sig)
        assert type(got.value) is type(exc), (text, exc, got.value)
    except AssertionError:
        # The old parser failed its own assert on text that ends inside a
        # (some or (list form, e.g. "(push_all (list".
        with pytest.raises(ParseError):
            from_text(text, sig)
    else:
        assert from_text(text, sig) == want, text


def assert_same_tokens(source: str) -> None:
    """scan with the signature pattern sees the old tokenizer's tokens."""
    try:
        want = [(t.kind, t.text, t.line, t.col) for t in oracle_tokenize(source)]
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            scan(source, _SIGNATURE_TOKENS)
        assert str(got.value) == str(exc), source
        return
    got = [tuple(t) for t in scan(source, _SIGNATURE_TOKENS)]
    assert got[:-1] == want[:-1], source
    # The end of input follows the last character.  The old loop counted
    # no column for a comment's characters, so after a comment on the
    # last line its end of input sat at the comment's '#'.
    last_line = source.rsplit("\n", 1)[-1]
    assert got[-1] == ("eof", "", source.count("\n") + 1, len(last_line) + 1)
    if "#" not in last_line:
        assert got[-1] == want[-1], source


class TestAgainstTheOldFrontEnds:
    @pytest.mark.parametrize("name", sorted(SIGS))
    def test_generated_expressions_and_their_mutations(self, name):
        sig = SIGS[name]
        rng = random.Random(name)
        for text in generated_texts(sig, 150):
            assert from_text(text, sig) == oracle_from_text(text, sig)
            for _ in range(8):
                assert_same_parse(mutated(text, rng, EXPR_CHARS), sig)

    @given(st.text(alphabet=EXPR_CHARS, max_size=40), st.sampled_from(sorted(SIGS)))
    def test_random_expression_text(self, text, name):
        assert_same_parse(text, SIGS[name])

    def test_signatures_and_their_mutations(self):
        rng = random.Random(0)
        for source in SIG_TEXTS:
            assert_same_tokens(source)
            for _ in range(300):
                assert_same_tokens(mutated(source, rng, SIG_CHARS))

    @given(st.text(alphabet=SIG_CHARS, max_size=60))
    def test_random_signature_text(self, source):
        assert_same_tokens(source)

    def test_a_trailing_comment_ends_where_the_text_ends(self):
        *_, eof = scan("abstract t # note", _SIGNATURE_TOKENS)
        assert (eof.line, eof.col) == (1, 18)


@given(st.one_of(st.text(), st.text(alphabet=EXPR_CHARS), st.text(alphabet=SIG_CHARS)))
def test_any_text_raises_only_documented_errors_inside_the_input(text):
    lines = text.split("\n")
    for parse in (
        lambda: from_text(text, SIGS["mapped"]),
        lambda: parse_signature(text),
        lambda: parse_ty(text),
    ):
        try:
            parse()
        except ParseError as exc:
            assert 1 <= exc.line <= len(lines), (text, exc)
            assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1, (text, exc)
        except (ExprTypeError, ValidationError):
            pass


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("(mem 3 (insert 3 (empty))) x", 1, 28),
        ("(mem 3 $ (empty))", 1, 8),
        ("(mem 3\n  (insert 3 (empty)) x)", 2, 22),
        ("(mem 3 (empty)", 1, 15),
        ("(mem (some 1 2) (empty))", 1, 14),
        ("(seq (empty))", 1, 13),
        ("  (mem 3 (insert '' (empty)))", 1, 18),
    ],
)
def test_expression_errors_point_at_the_offending_character(text, line, col, finite_set_sig):
    with pytest.raises(ParseError) as exc:
        from_text(text, finite_set_sig)
    assert (exc.value.line, exc.value.col) == (line, col)


# int() refuses strings of more digits than this (0: no limit, or a Python
# without one).
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() converts any number of digits")
@pytest.mark.parametrize(
    "template, line, col",
    [
        ("(total (push_all (list 1 {}) (empty)))", 1, 26),
        ("(total\n  (map (fn (add var -{})) (empty)))", 2, 21),
    ],
    ids=["argument", "fn-body"],
)
def test_an_integer_literal_past_the_digit_limit_is_a_parse_error(template, line, col):
    text = template.format("9" * (INT_DIGIT_LIMIT + 1))
    with pytest.raises(ParseError, match="integer literal has too many digits") as exc:
        from_text(text, SIGS["mapped"])
    assert (exc.value.line, exc.value.col) == (line, col)
    # one digit fewer converts, and wraps to 64 bits
    from_text(template.format("9" * INT_DIGIT_LIMIT), SIGS["mapped"])
