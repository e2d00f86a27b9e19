"""Hypothesis strategies shared by the loader fuzz tests."""

from hypothesis import strategies as st


@st.composite
def corrupted(draw, valid: bytes, hot: int):
    """valid with up to three bytes replaced, then cut at a random length.

    Half of the replaced positions fall in the first `hot` bytes, where the
    header sits; uniform positions would mostly land in the payload.
    """
    data = bytearray(valid)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.one_of(st.integers(0, hot - 1), st.integers(0, len(data) - 1)))
        data[i] = draw(st.integers(0, 255))
    cut = draw(st.one_of(st.just(len(data)), st.integers(0, len(data))))
    return bytes(data[:cut])
