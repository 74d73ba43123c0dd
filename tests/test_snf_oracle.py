"""Differential test of ``abelian.smith_normal_form``.

The reference is the earlier routine: it kept ``A``, ``U`` and ``V`` as three
matrices in step, rescanned the whole block for every pivot and ran the
divisibility scan after every pivot.  It lives here only as an oracle.  The
routine under test carries ``U`` in the rows of ``A``, drops ``V``, stops the
pivot search at the first entry of absolute value 1 and skips the
divisibility scan for a unit pivot; none of that may change ``diag`` or
``U`` by a single bit.
"""

from hypothesis import given, settings, strategies as st

from gwgamma.abelian import smith_normal_form

SNF_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)


def reference_smith_normal_form(rows):
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        for k in range(n):
            a[dst][k] -= q * a[src][k]
        for k in range(m):
            u[dst][k] -= q * u[src][k]

    def add_col(src, dst, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    add_row(i, t, -1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            for k in range(n):
                a[t][k] = -a[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
        t += 1
    diag = [a[i][i] for i in range(min(m, n))]
    return diag, u, v


ENTRIES = st.one_of(st.integers(-2, 2), st.integers(-60, 60))


@st.composite
def matrices(draw):
    """An m x n integer matrix, m and n in 0..6; rows may be all zero."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    row = st.one_of(
        st.just([0] * n), st.lists(ENTRIES, min_size=n, max_size=n)
    )
    return [draw(row) for _ in range(m)]


@SNF_SETTINGS
@given(matrices())
def test_smith_normal_form_matches_reference(rows):
    diag, u, _ = reference_smith_normal_form(rows)
    assert smith_normal_form(rows) == (diag, u)
