"""Damaged marginal files: each one loads the exact matrices or is refused as unusable input (exit 2)."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snakeweaver.cli import main
from snakeweaver.marginal_store import MarginalFileError, MarginalSet, Window
from snakeweaver.oracles import gen_row_markov

# The container's headers and directory sit in its first and last kilobyte;
# the 4 MB matrix payload in between is covered by its CRC.
EDGE = 1024


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    ms = gen_row_markov(Window(3, 3), seed=5).marginal_set()
    workdir = tmp_path_factory.mktemp("fuzz")
    ms.save(workdir / "good.npz")
    return ms, (workdir / "good.npz").read_bytes(), workdir / "case.npz"


def _refused(container, data: bytes) -> bool:
    """Whether ``data`` is refused; a file that is not refused must load the exact matrices.

    Refused means that ``load`` raises MarginalFileError and that ``check``
    exits 2 with a single ``error:`` line.
    """
    ms, _, path = container
    path.write_bytes(data)
    try:
        back = MarginalSet.load(path)
    except MarginalFileError:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["check", str(path)]) == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return True
    assert back.anchors() == ms.anchors()
    for a in ms.anchors():
        assert back.marginals[a].matrix.tobytes() == ms.marginals[a].matrix.tobytes()
    return False


def _offsets(size: int):
    return st.one_of(st.integers(0, EDGE), st.integers(size - EDGE, size - 1), st.integers(0, size - 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_truncation_is_refused(container, data):
    good = container[1]
    assert _refused(container, good[: data.draw(_offsets(len(good)))])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_byte_flips_load_exactly_or_are_refused(container, data):
    raw = bytearray(container[1])
    raw[data.draw(_offsets(len(raw)))] ^= data.draw(st.integers(1, 255))
    _refused(container, bytes(raw))
