"""A dense chunk decodes to ``np.stack`` of its rows, byte for byte.

When the chunk's rows lie in order and equally spaced in one float64 buffer
(the rows of one matrix, a strided or column slice of it, a Fortran-ordered
matrix, a durable record block after reopen), the decoded ``X`` is a view of
that buffer; any other layout is a copy.  Either way ``X`` is read-only.  The
generated property covers both sides of that line.  Row ``i`` of a source
holds ``i`` in its first column, so a row out of place always shows in the
bytes; the last test pins what the decode does when it cannot show.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import ColumnType, Schema, Table
from repro.tasks import LogisticRegressionTask

FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)


def _decode(rows: list[np.ndarray]) -> np.ndarray:
    """The decoded ``X`` of a one-chunk table holding ``rows``."""
    schema = Schema.of(("vec", ColumnType.FLOAT_ARRAY), ("label", ColumnType.FLOAT))
    table = Table("t", schema)
    table.insert_many((row, 1.0) for row in rows)
    (chunk,) = table.iter_chunks(len(rows))
    task = LogisticRegressionTask(rows[0].shape[0], feature_column="vec", label_column="label")
    return task.batch_from_chunk(chunk).X


@st.composite
def sources(draw, rows: int, width: int, offset: int) -> np.ndarray:
    """A ``rows x width`` float64 matrix, C- or Fortran-ordered, maybe a column slice."""
    columns = width + draw(st.integers(0, 2))
    values = draw(st.lists(FLOATS, min_size=rows * columns, max_size=rows * columns))
    matrix = np.array(values, dtype=np.float64).reshape(rows, columns)
    matrix[:, 0] = np.arange(rows) + offset
    if draw(st.booleans()):
        matrix = np.asfortranarray(matrix)
    return matrix[:, :width]


@st.composite
def layouts(draw):
    """(rows, their source matrices, whether they are in order with one step)."""
    rows, width = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    first = draw(sources(rows, width, 0))
    patterns = ["slice", "permuted", "reversed", "one_row"]
    if rows >= 5:  # rows 0, 1 and n-1 in place, inner rows out of place
        patterns += ["inner_swapped", "inner_duplicated"]
    pattern = draw(st.sampled_from(patterns))
    picks = list(range(rows))
    if pattern == "slice":
        picks = picks[draw(st.integers(0, rows - 1)) :: draw(st.integers(1, 3))]
    elif pattern == "permuted":
        picks = draw(st.permutations(picks))
    elif pattern == "reversed":
        picks.reverse()
    elif pattern == "one_row":
        picks = [draw(st.integers(0, rows - 1))]
    elif pattern == "inner_swapped":
        i, j = draw(st.lists(st.integers(2, rows - 2), min_size=2, max_size=2, unique=True))
        picks[i], picks[j] = picks[j], picks[i]
    else:
        inner = draw(st.integers(2, rows - 2))
        picks[inner] = picks[inner - 1]
    chosen = [first[pick] for pick in picks]
    sources_used = [first]
    if len(chosen) > 1 and draw(st.booleans()):
        second = draw(sources(rows, width, rows))
        cut = draw(st.integers(1, len(chosen) - 1))
        chosen[cut:] = [second[pick] for pick in picks[cut:]]
        sources_used.append(second)
    gaps = set(np.diff(picks).tolist())
    in_order = len(sources_used) == 1 and (len(picks) == 1 or (len(gaps) == 1 and gaps.pop() > 0))
    return chosen, sources_used, in_order


@settings(max_examples=300, deadline=None)
@given(layouts())
def test_decoded_chunk_is_the_stack_of_its_rows(layout):
    rows, sources_used, in_order = layout
    X = _decode(rows)
    assert X.tobytes() == np.stack(rows).tobytes()
    assert not X.flags.writeable
    assert any(np.shares_memory(X, source) for source in sources_used) == in_order


def test_per_row_arrays_decode_to_a_copy():
    rows = [np.arange(4.0) + i for i in range(6)]
    X = _decode(rows)
    assert X.tobytes() == np.stack(rows).tobytes()
    assert not X.flags.writeable
    assert not any(np.shares_memory(X, row) for row in rows)


def test_rows_out_of_place_that_equal_their_place_decode_to_the_view():
    # The decode compares the candidate view with the rows' bytes, not each
    # row's address: a swap of two identical rows cannot change ``X``.
    source = np.zeros((5, 3))
    rows = [source[0], source[1], source[3], source[2], source[4]]
    X = _decode(rows)
    assert X.tobytes() == np.stack(rows).tobytes()
    assert np.shares_memory(X, source)
