from fractions import Fraction

from hypothesis import strategies as st

from graphlim import multigraph, step_graphon


@st.composite
def step_graphons(draw, max_blocks: int = 4, denominator: int = 6):
    """Random valid step graphons; zero weights and zero values do occur."""
    b = draw(st.integers(1, max_blocks))
    parts = draw(
        st.lists(st.integers(0, 4), min_size=b, max_size=b).filter(
            lambda p: sum(p) > 0
        )
    )
    total = sum(parts)
    weights = tuple(Fraction(p, total) for p in parts)
    values = [[Fraction(0)] * b for _ in range(b)]
    for i in range(b):
        for j in range(i, b):
            v = Fraction(draw(st.integers(0, denominator)), denominator)
            values[i][j] = values[j][i] = v
    return step_graphon(weights, values)


@st.composite
def multigraphs(draw, max_nodes: int = 5, max_mult: int = 3, max_labels: int = 0):
    n = draw(st.integers(1, max_nodes))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(st.integers(0, max_mult))
            if m:
                edges.append((i, j, m))
    labels = None
    if max_labels:
        k = draw(st.integers(0, min(n, max_labels)))
        chosen = draw(
            st.lists(
                st.integers(0, n - 1), min_size=k, max_size=k, unique=True
            )
        )
        labels = [(node, i + 1) for i, node in enumerate(sorted(chosen))]
    return multigraph(n, edges, labels=labels)
