"""Fuzz the CLI's numeric options: every command line exits 0, 2 or 3, never with a traceback.

The commands run in-process on two synthetic caches to x_max = 20000.
Options are passed as ``--opt=value``, so a negative value reaches the
option's parser instead of being read as another option.  Sizes are
bounded so that a valid draw stays cheap: x at most 10 x_max, and a box
grid at most 128 or above GRID_MAX (which must exit 2 before any sweep).
"""

import contextlib
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satotate.cli import main
from satotate.discrepancy import GRID_MAX

X_MAX = 20_000


def mostly(valid, invalid):
    """Option text from valid four draws in five, else from invalid; it shrinks towards valid.

    Most draws then pass every option, so that rows run; a draw that fails
    exits at its first bad option.
    """
    return st.integers(0, 4).flatmap(lambda k: (invalid if k == 4 else valid).map(str))


# past a bound, far past it, or past the int64 range
BAD_INDICES = st.one_of(st.integers(-3, 600), st.sampled_from([-(10**30), -(2**63), 2**63, 10**12, 10**30]))
BAD_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0.0", "-1.0", "5e-324", "1e308", "nan", "-inf", "1e400", "-0", "1,5", ""]),
)
ORDERS = mostly(st.integers(3, 512), BAD_INDICES)  # M of verify and joint
INDICES = mostly(st.integers(0, 512), BAD_INDICES)  # m of cheb-sums and smooth
CONSTANTS = mostly(st.floats(1e-3, 1e3), BAD_FLOATS)
X_VALUES = mostly(st.integers(3, X_MAX), st.integers(-10, 10 * X_MAX))
GRIDS = mostly(st.integers(2, 128), st.integers(-3, 1) | st.integers(GRID_MAX + 1, 10**12))
ANY_FLOAT = st.floats(-1.0, 4.0) | st.floats(allow_nan=True, allow_infinity=True)
INTERVALS = mostly(
    st.sampled_from(["half", "middle"])
    | st.lists(st.floats(0.0, 3.14159), min_size=2, max_size=2).map(lambda ab: "{!r}:{!r}".format(*sorted(ab))),
    st.builds("{!r}:{!r}".format, ANY_FLOAT, ANY_FLOAT),
)


def joined(values) -> str:
    return ",".join(map(repr, values))


def x_lists(max_size: int):
    """Comma-separated x lists, mostly ascending within x_max, so that rows run."""
    ascending = st.lists(st.integers(3, X_MAX), min_size=1, max_size=max_size).map(lambda v: sorted(set(v)))
    anyhow = st.lists(st.integers(-10, 10 * X_MAX), min_size=1, max_size=max_size)
    return mostly(ascending.map(joined), anyhow.map(joined))


# fit's (xs, errors): as many ascending positive xs as positive errors, or any two float lists
FIT_SAMPLES = st.integers(3, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(1e-300, 1e300), min_size=n, max_size=n, unique=True).map(sorted),
        st.lists(st.floats(1e-300, 1e300), min_size=n, max_size=n),
    )
) | st.tuples(st.lists(st.floats(), max_size=6), st.lists(st.floats(), max_size=6))


@pytest.fixture(scope="module")
def caches(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    paths = []
    for seed in (1, 2):
        path = folder / f"sim{seed}.stan"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", f"--seed={seed}", f"--xmax={X_MAX}", f"--out={path}"]) == 0
        paths.append(str(path))
    return paths


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of one in-process command; argparse's own rejections exit by SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check(argv: list[str]) -> None:
    code, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@settings(max_examples=30, deadline=None)
@given(M=ORDERS, xs=x_lists(4), option=st.sampled_from(["--c-et1", "--c-st1", "--c-grh"]), c=CONSTANTS)
def test_verify_fuzz(caches, M, xs, option, c):
    check(["verify", f"--cache={caches[0]}", "--interval=middle", f"--x={xs}", f"--M={M}", f"{option}={c}", "--out=-"])


@settings(max_examples=20, deadline=None)
@given(M=ORDERS, grid=GRIDS, xs=x_lists(2), c=CONSTANTS)
def test_joint_fuzz(caches, M, grid, xs, c):
    check(
        [
            "joint", f"--cache1={caches[0]}", f"--cache2={caches[1]}", "--interval1=half",
            "--interval2=middle", f"--x={xs}", f"--M={M}", f"--grid={grid}", f"--c-et2={c}", "--out=-",
        ]
    )


@settings(max_examples=25, deadline=None)
@given(m=INDICES, m_min=st.none() | INDICES, xs=x_lists(3))
def test_cheb_sums_fuzz(caches, m, m_min, xs):
    argv = ["cheb-sums", f"--cache={caches[0]}", f"--m={m}", f"--x={xs}", "--out=-"]
    check(argv if m_min is None else argv + [f"--m-min={m_min}"])


@settings(max_examples=25, deadline=None)
@given(
    m=INDICES,
    x=X_VALUES,
    ell=mostly(st.integers(1, 14), BAD_INDICES),
    eps=mostly(st.floats(1e-3, 0.249), BAD_FLOATS),
)
def test_smooth_fuzz(caches, m, x, ell, eps):
    check(["smooth", f"--cache={caches[0]}", f"--m={m}", f"--x={x}", f"--ell={ell}", f"--eps={eps}"])


@settings(max_examples=25, deadline=None)
@given(samples=FIT_SAMPLES)
def test_fit_fuzz(samples):
    xs, errors = samples
    check(["fit", f"--xs={joined(xs)}", f"--errors={joined(errors)}"])


@settings(max_examples=25, deadline=None)
@given(interval=INTERVALS, ceiling=mostly(st.integers(2, X_MAX), BAD_INDICES), c=CONSTANTS)
def test_least_prime_cache_fuzz(caches, interval, ceiling, c):
    check(["least-prime", f"--cache={caches[0]}", f"--interval={interval}", f"--ceiling={ceiling}", f"--c={c}"])


@pytest.mark.parametrize("grid", [GRID_MAX + 1, 100_000])
def test_joint_grid_above_grid_max_exits_2_at_once(caches, grid):
    start = time.perf_counter()
    code, err = run(
        [
            "joint", f"--cache1={caches[0]}", f"--cache2={caches[1]}", "--interval1=half",
            "--interval2=middle", "--x=20000", f"--grid={grid}",
        ]
    )
    assert (code, err) == (2, f"error: grid must be <= {GRID_MAX}\n")
    assert time.perf_counter() - start < 1.0
