import itertools
import json
import math
import re
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphlim import (
    BlackBoxKernel,
    BlockPartition,
    affine_rescale,
    block_of,
    blowup,
    constant,
    evaluate,
    from_graph,
    multigraph,
    parse_graphon,
    quotient,
    serialize_graphon,
    step_graphon,
    validate,
)
from graphlim.corpus import complete_graph, graphon_corpus

from conftest import step_graphons
from oracles import brute_blowup, ref_parse_graphon

B = step_graphon(["1/2", "1/2"], [["0", "1"], ["1", "0"]])


def test_validate_distinct_messages():
    with pytest.raises(ValueError, match="nonnegative"):
        step_graphon(["-1/2", "3/2"], [["0", "0"], ["0", "0"]])
    with pytest.raises(ValueError, match="sum to 1"):
        step_graphon(["1/2", "1/3"], [["0", "0"], ["0", "0"]])
    with pytest.raises(ValueError, match="2x2 matrix"):
        step_graphon(["1/2", "1/2"], [["0", "0"]])
    with pytest.raises(ValueError, match="asymmetric"):
        step_graphon(["1/2", "1/2"], [["0", "1"], ["1/2", "0"]])
    with pytest.raises(ValueError, match="outside range"):
        step_graphon(["1/2", "1/2"], [["0", "2"], ["2", "0"]])


def test_from_graph_is_adjacency_with_uniform_weights():
    H = from_graph(complete_graph(3))
    assert H.weights == (F(1, 3),) * 3
    assert H.values[0][1] == F(1) and H.values[0][0] == F(0)
    with pytest.raises(ValueError):
        from_graph(multigraph(2, [(0, 1, 2)]))


def test_constant_and_blowup():
    c = constant(F(2, 3))
    assert c.block_count == 1 and c.values[0][0] == F(2, 3)
    bu = blowup(B, 2)
    assert bu.weights == (F(1, 4),) * 4
    # copy c of block i sits at index c*B+i
    assert bu.values[0][2] == B.values[0][0]
    assert bu.values[0][1] == B.values[0][1]
    assert bu.values[0][3] == B.values[0][1]
    assert blowup(B, 1) == B
    with pytest.raises(ValueError):
        blowup(B, 0)


def test_affine_rescale_tracks_range():
    H = affine_rescale(B, F(1, 2), F(1, 4))
    assert H.values[0][1] == F(3, 4) and H.values[0][0] == F(1, 4)
    assert H.value_range == (F(1, 4), F(3, 4))
    # negative slope flips the endpoints
    Hn = affine_rescale(B, -1, 1)
    assert Hn.value_range == (F(0), F(1))
    with pytest.raises(ValueError):
        affine_rescale(B, 0, 1)


def test_block_of_boundaries():
    H = step_graphon(["1/4", "0", "3/4"], [["0"] * 3] * 3)
    assert block_of(H, F(0)) == 0
    assert block_of(H, F(1, 4)) == 2  # zero-weight block owns no interval
    assert block_of(H, F(99, 100)) == 2
    with pytest.raises(ValueError):
        block_of(H, F(1))
    with pytest.raises(ValueError):
        block_of(H, F(-1, 2))


def test_evaluate_exact():
    assert evaluate(B, F(1, 4), F(3, 4)) == F(1)
    assert evaluate(B, F(1, 4), F(1, 4)) == F(0)
    assert evaluate(B, 0.75, 0.75) == F(0)


def test_serialization_round_trip_and_format_rules():
    text = serialize_graphon(B)
    assert parse_graphon(text) == B
    # files must carry a symmetric matrix
    asym = '{"weights": ["1/2","1/2"], "values": [["0","7"],["1","0"]]}'
    with pytest.raises(ValueError, match="asymmetric"):
        parse_graphon(asym)
    # range only emitted when non-default
    wide = affine_rescale(B, 2, -1)
    assert "range" in serialize_graphon(wide)
    assert "range" not in serialize_graphon(B)
    assert parse_graphon(serialize_graphon(wide)) == wide


@given(step_graphons())
def test_round_trip_random(H):
    assert parse_graphon(serialize_graphon(H)) == H
    validate(H)


def test_black_box_kernel_matches_step_function():
    k = BlackBoxKernel.from_step_graphon(B)
    assert k(0.1, 0.9) == 1.0
    assert k(0.6, 0.9) == 0.0


def test_step_kernel_blocks_agree_with_block_of_at_decimal_boundaries():
    tenths = step_graphon(["1/10"] * 10, [["0"] * 10] * 10)
    xs = [0.6, 0.7, 0.7999999999999999, 0.8999999999999999]
    assert [block_of(tenths, F(x)) for x in xs] == [5, 6, 7, 8]
    kernel = BlackBoxKernel.from_step_graphon(tenths)
    assert kernel.points(np.array(xs)).tolist() == [5, 6, 7, 8]
    assert [kernel.points(x) for x in xs] == [5, 6, 7, 8]


@st.composite
def _weights(draw):
    """Up to 64 weights with zero-weight blocks, and tiny ones that put
    several cuts in one cell of the guide table."""
    parts = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 9), st.integers(1, 10**15)),
            min_size=1,
            max_size=64,
        ).filter(any)
    )
    return [F(p, sum(parts)) for p in parts]


@given(_weights(), st.lists(st.floats(0, 1, exclude_max=True), max_size=50))
@example([F(1, 3), F(1, 3), F(1, 3)], [])
@example([F(0), F(1, 2**60), F(1, 2**60), F(0), 1 - F(1, 2**59)], [0.5])
@example([F(1, 7)] * 6 + [F(1, 7), F(0)], [])
@settings(max_examples=150, deadline=None)
def test_step_kernel_points_equal_block_of(weights, xs):
    b = len(weights)
    h = step_graphon(weights, [[0] * b] * b)
    near = set(xs)
    for c in h.cumulative():
        d = float(c)
        near |= {math.nextafter(d, -1.0), d, math.nextafter(d, 2.0)}
    coords = sorted(x for x in near if 0 <= x < 1)
    expected = [block_of(h, F(x)) for x in coords]
    kernel = BlackBoxKernel.from_step_graphon(h)
    assert kernel.points(np.array(coords)).tolist() == expected
    assert [int(kernel.points(x)) for x in coords] == expected
    # coordinates outside [0, 1) and NaN count the cuts below them, as
    # searchsorted does: none below a negative, all below 1, inf and NaN
    odd = [-0.5, -math.inf, 1.0, 1e308, math.inf, math.nan]
    mixed = np.array(coords + odd)
    assert kernel.points(mixed).tolist() == expected + [0, 0] + [b - 1] * 4
    assert kernel.points(np.array(coords).reshape(1, -1)).tolist() == [expected]


def test_corpus_members_valid():
    for name, H in graphon_corpus().items():
        validate(H)
        assert sum(H.weights) == 1, name


def test_integer_tables_cached_outside_equality():
    h = step_graphon(["1/3", "2/3"], [["1/2", "1/4"], ["1/4", "1"]])
    r, weights, q, values = h.integer_tables
    assert (r, weights, q) == (3, (1, 2), 4)
    assert values.tolist() == [[2, 1], [1, 4]]
    assert h.integer_tables is h.integer_tables
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0] = 7
    fresh = step_graphon(["1/3", "2/3"], [["1/2", "1/4"], ["1/4", "1"]])
    assert fresh == h and hash(fresh) == hash(h)
    assert h.cumulative() == (F(0), F(1, 3), F(1))
    assert h.cumulative() is h.cumulative()


def test_constructors_store_lowest_terms():
    # a*v + b and quotients land over larger scales, which the graphon reduces
    wide = affine_rescale(B, 4, -2)
    assert wide.integer_tables[2] == 1 and wide.value_range == (F(-2), F(2))
    back = affine_rescale(wide, F(1, 4), F(1, 2))
    assert back == B and hash(back) == hash(B)
    assert back.integer_tables[:3] == B.integer_tables[:3] == (2, (1, 1), 1)
    four = step_graphon(["1/4"] * 4, [["0", "0", "1", "1"]] * 2 + [["1", "1", "0", "0"]] * 2)
    assert quotient(four, BlockPartition((0, 0, 1, 1))) == B


def _spell(x: F, draw) -> object:
    """x as one of the token spellings a graphon file or caller may use."""
    n, d = x.numerator, x.denominator
    m = draw(st.integers(1, 3))
    spellings = [f"{n}/{d}", f"{n * m}/{d * m}", f" {n}/{d} ", x]
    if n >= 0:
        spellings.append(f"+{n * m}/{d * m}")
    if d == 1:
        spellings += [n, str(n), f" {n}"]
    if n == 0:
        spellings += ["-0", "+0", "0/7"]
    return draw(st.sampled_from(spellings))


@st.composite
def _spelled_graphons(draw):
    """(exact weights, exact values, range or None, the same as tokens)."""
    b = draw(st.integers(1, 5))
    parts = draw(st.lists(st.integers(0, 4), min_size=b, max_size=b).filter(any))
    weights = [F(p, sum(parts)) for p in parts]
    rng = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from([F(-2), F(-1, 2), F(0)]), st.sampled_from([F(1), F(3, 2), F(3)])
            ),
        )
    )
    lo, hi = rng or (F(0), F(1))
    values = [[F(0)] * b for _ in range(b)]
    for i in range(b):
        for j in range(i, b):
            den = draw(st.integers(1, 6))
            top = draw(st.integers(math.ceil(lo * den), math.floor(hi * den)))
            values[i][j] = values[j][i] = F(top, den)
    tokens = (
        [_spell(w, draw) for w in weights],
        [[_spell(v, draw) for v in row] for row in values],
        None if rng is None else tuple(_spell(x, draw) for x in rng),
    )
    return weights, values, rng, tokens


@given(_spelled_graphons(), _spelled_graphons())
@settings(max_examples=200, deadline=None)
def test_integer_tables_match_lcm_reference_for_every_spelling(case, other):
    weights, values, rng, (w_tokens, v_tokens, r_tokens) = case
    r = math.lcm(*(w.denominator for w in weights))
    q = math.lcm(*(v.denominator for row in values for v in row))
    nv = [[int(v * q) for v in row] for row in values]
    expected = (r, tuple(int(w * r) for w in weights), q, nv)
    h = step_graphon(w_tokens, v_tokens, r_tokens)
    got = h.integer_tables
    assert (*got[:3], got[3].tolist()) == expected
    assert h.weights == tuple(weights) and h.values == tuple(map(tuple, values))
    assert h.value_range == (rng or (F(0), F(1)))
    plain = [[v if isinstance(v, (int, str)) else str(v) for v in row] for row in v_tokens]
    data = {"weights": [str(w) for w in w_tokens], "values": plain}
    if r_tokens is not None:
        data["range"] = [str(x) for x in r_tokens]
    parsed = parse_graphon(json.dumps(data))
    assert parsed == h and hash(parsed) == hash(h)
    assert parse_graphon(serialize_graphon(h)) == h
    # equal exactly when the Fraction views are equal
    g = step_graphon(*other[3])
    views = (h.weights, h.values, h.value_range) == (g.weights, g.values, g.value_range)
    assert (g == h) == views


@given(step_graphons(max_blocks=5), st.integers(1, 3), st.booleans())
@settings(max_examples=100, deadline=None)
def test_blowup_matches_fraction_reference(h, k, ranged):
    if ranged:
        h = affine_rescale(h, 3, -1)
    weights, values = brute_blowup(list(h.weights), [list(row) for row in h.values], k)
    g = blowup(h, k)
    assert g.weights == tuple(weights)
    assert g.values == tuple(map(tuple, values))
    assert g.value_range == h.value_range
    assert g == step_graphon(weights, values, h.value_range)


def test_validate_names_first_offending_entry_in_row_major_order():
    third = ["1/3"] * 3
    # asymmetric at (0,2) and (1,2); (0,2) comes first in row-major order
    with pytest.raises(ValueError, match=r"^values asymmetric at \(0,2\)$"):
        step_graphon(third, [["0", "0", "1"], ["0", "0", "1"], ["0", "0", "0"]])
    with pytest.raises(ValueError, match=r"^values asymmetric at \(1,2\)$"):
        step_graphon(third, [["0", "0", "0"], ["0", "0", "1"], ["0", "1/2", "0"]])
    # out of range at (1,1), (1,2) and (2,1): (1,1) is named with its value
    with pytest.raises(ValueError, match=r"^value 2 at \(1,1\) outside range \[0, 1\]$"):
        step_graphon(third, [["0", "0", "0"], ["0", "2", "-1"], ["0", "-1", "0"]])
    with pytest.raises(ValueError, match=r"^value -1/2 at \(0,2\) outside range \[0, 1\]$"):
        step_graphon(third, [["0", "1", "-1/2"], ["1", "0", "3"], ["-1/2", "3", "0"]])
    # the range check sees the declared range, not the default one
    with pytest.raises(ValueError, match=r"^value 0 at \(0,0\) outside range \[1/4, 3\]$"):
        step_graphon(third, [["0", "1", "3"], ["1", "4", "1"], ["3", "1", "1"]], ("1/4", 3))
    with pytest.raises(ValueError, match=r"^value 4 at \(1,1\) outside range \[1/4, 3\]$"):
        step_graphon(third, [["1", "1", "3"], ["1", "4", "1"], ["3", "1", "1"]], ("1/4", 3))


def test_step_graphon_token_rules_hold_for_repeated_tokens():
    # parsing each distinct token once must not let a bool ride on an equal int
    with pytest.raises(ValueError, match="not a rational value: True"):
        step_graphon([1], [[True]])
    with pytest.raises(ValueError, match="not a rational value: False"):
        step_graphon(["1/2", "1/2"], [[0, 1], [1, False]])
    with pytest.raises(ValueError, match="not a rational value: True"):
        step_graphon(["1/2", "1/2"], [[1, 0], [0, True]])
    with pytest.raises(ValueError, match=r"not a rational value: \[1\]"):
        step_graphon([1], [[[1]]])
    with pytest.raises(ValueError, match=r"not a rational value: \[1\]"):
        parse_graphon('{"weights": ["1/2", "1/2"], "values": [["1", "0"], ["0", [1]]]}')
    h = step_graphon([1, 0], [[1, "1"], [" 1", F(1)]])
    assert h.values == ((F(1), F(1)), (F(1), F(1)))


def test_parse_graphon_rejects_rows_that_are_not_arrays():
    # a string row would otherwise be read one character per cell
    for values in ('["01", "10"]', '[["0", "1"], "10"]', "[1, 2]"):
        with pytest.raises(ValueError, match='"values" must be an array of arrays'):
            parse_graphon(f'{{"weights": ["1/2", "1/2"], "values": {values}}}')


def _file_token(token, draw):
    """A token as a graphon file may hold it: Fractions written as strings,
    strings sometimes padded with tabs and spaces."""
    if isinstance(token, F):
        token = str(token)
    if isinstance(token, str) and draw(st.booleans()):
        pad = st.sampled_from(["", " ", "\t", " \t "])
        token = draw(pad) + token + draw(pad)
    return token


@st.composite
def _graphon_texts(draw):
    *_, (w_tokens, v_tokens, r_tokens) = draw(_spelled_graphons())
    data = {
        "weights": [_file_token(w, draw) for w in w_tokens],
        "values": [[_file_token(v, draw) for v in row] for row in v_tokens],
    }
    if r_tokens is not None:
        data["range"] = [_file_token(x, draw) for x in r_tokens]
    return json.dumps(data)


@given(_graphon_texts())
@example('{"weights": [" +1/2", "2/4\\t"], "values": [["-0", "1/2"], [" +2/4 ", 1]]}')
@example('{"weights": [1], "values": [["-3/6"]], "range": ["-1", " +1 "]}')
@example('{"weights": ["1/3", 0, "+2/3"], "values": [[0, "0/9", 1], ["-0", 1, "1"], [1, 1, "4/4"]]}')
@settings(max_examples=200, deadline=None)
def test_parse_graphon_matches_json_fraction_oracle(text):
    h = parse_graphon(text)
    assert (h._r, h._nw, h._q, h._table, h.value_range) == ref_parse_graphon(text)


_BAD_TOKENS = {
    "x": "not a rational string: 'x'",
    "1/2/3": "not a rational string: '1/2/3'",
    "1/0": "zero denominator: '1/0'",
    " -3/0": "zero denominator: ' -3/0'",
}


@pytest.mark.parametrize("first, second", [("x", "1/0"), ("1/0", "x"), ("1/2/3", "x"), (" -3/0", "1/0")])
def test_step_graphon_names_the_first_bad_cell_in_row_major_order(first, second):
    # distinct tokens are parsed in set order, which differs from run to run;
    # the error must not
    third = ["1/3"] * 3
    for p, s in itertools.permutations(range(9), 2):
        cells = ["1/3", "0", "2/3"] * 3
        cells[p], cells[s] = first, second
        rows = [cells[:3], cells[3:6], cells[6:]]
        named = first if p < s else second
        message = "^" + re.escape(_BAD_TOKENS[named]) + "$"
        with pytest.raises(ValueError, match=message):
            step_graphon(third, rows)
        with pytest.raises(ValueError, match=message):
            parse_graphon(json.dumps({"weights": third, "values": rows}))
    # weights are read before values
    with pytest.raises(ValueError, match="^" + re.escape(_BAD_TOKENS[second]) + "$"):
        step_graphon(["1/3", second, "1/3"], [[first] * 3] * 3)


@given(
    step_graphons(max_blocks=6),
    st.sampled_from([None, (3, -1), (F(1, 2), F(1, 3)), (-1, 1)]),
)
@example(constant(F(2, 3)), None)
@example(constant(F(2, 3)), (F(1, 2), F(1, 3)))
@settings(max_examples=150, deadline=None)
def test_serialize_graphon_matches_json_dumps_and_validate_returns_the_entries(h, rescale):
    if rescale is not None:
        h = affine_rescale(h, *rescale)
    data = {
        "weights": [str(w) for w in h.weights],
        "values": [[str(v) for v in row] for row in h.values],
    }
    if h.value_range != (0, 1):
        data["range"] = [str(x) for x in h.value_range]
    assert serialize_graphon(h) == json.dumps(data, indent=1) + "\n"
    assert validate(h) == {x for row in h._table for x in row}


@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN")]
)
def test_evaluate_classifies_non_finite_coordinates(bad):
    message = "^" + re.escape(f"coordinate {bad} outside [0, 1)") + "$"
    for x, y in ((bad, 0.5), (0.5, bad), (bad, bad)):
        with pytest.raises(ValueError, match=message):
            evaluate(B, x, y)
