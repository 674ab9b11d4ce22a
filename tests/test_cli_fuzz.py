"""Fuzz the CLI's numeric options: every command line exits 0, 2 or 3, never with a traceback.

The commands run in-process on two synthetic caches to x_max = 20000;
``angles --curve``, ``angles --coeffs`` and ``simulate`` write their own
caches, to an x_max of at most 20000, under a temporary folder, and the
readers of a cache also run on mutated copies of a small one.
Options are passed as ``--opt=value``, so a negative value reaches the
option's parser instead of being read as another option.  Sizes are
bounded so that a valid draw stays cheap: x at most 10 x_max; a box grid
is drawn up to GRID_MAX, whose O(grid^3) sweep is cheap, or above it (which
must exit 2 before any sweep).  A reader of a cache that exits 2 on an
option exits 2 with the same message when its caches are missing: options
are checked before any cache is read.
"""

import contextlib
import io
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satotate.angles import _HEADER
from satotate.cli import main
from satotate.curves import NAMED_CURVES
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
GRIDS = mostly(st.integers(2, GRID_MAX), st.integers(-3, 1) | st.integers(GRID_MAX + 1, 10**12))
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


# angles --curve: a battery model with its conductor, else any coefficient text and conductor
BATTERY = [(f"{c.a1},{c.a2},{c.a3},{c.a4},{c.a6}", str(c.conductor)) for c in NAMED_CURVES.values()]
BAD_COEFFS = st.one_of(
    st.lists(st.integers(-(10**30), 10**30) | st.sampled_from([10**30, -(10**30)]), min_size=5, max_size=5).map(joined),
    st.lists(st.integers(-20, 20), max_size=4).map(joined),
    st.sampled_from(["0,-1,1,-10,-20.5", "a,b,c,d,e", "0,0,0,0,0", "", "1e3,0,0,0,1"]),
)
BAD_CONDUCTORS = st.one_of(st.integers(-5, 2), st.sampled_from([-(2**64), 2**64, 2**64 + 1, 10**30]))
MODELS = st.integers(0, 4).flatmap(
    lambda k: st.tuples(BAD_COEFFS, BAD_CONDUCTORS.map(str)) if k == 4 else st.sampled_from(BATTERY)
)
# x_max within [2, X_MAX], or <= 1, or not an integer; never above X_MAX.  Also the
# least-prime --curve ceiling: a narrow interval at an end of [0, pi] with no hit
# streams every prime up to it
X_MAXES = mostly(st.integers(2, X_MAX), st.integers(-(2**64), 1) | st.sampled_from(["1e4", "2.5", "", "x"]))

# angles --coeffs: the 11a1 file to 29, with a header key dropped, repeated or
# given a bad value, and bad body lines put in anywhere
COEFF_HEADER = ["label=x", "weight=2", "level=11", "normalized=false"]
COEFF_BODY = ["2 -2", "3 -1", "5 1", "7 -2", "13 4", "17 -2", "19 0", "23 -1", "29 0"]
HEADER_FAULTS = ["weight=2", "weight=two", f"weight={2**32}", "level=0", "level=1e3", "normalized=maybe"]
BODY_FAULTS = [
    f"{2**63} 1", f"{-(2**63) - 1} 1", "99999999999999999999 1", "3 nan", "3 1e400", "0x10 1", "1_0 1",
    "3 1 7", "2 -2", "31 7",  # "2 -2" repeats p = 2; "31 7" puts p out of order anywhere but last
]
# xmax mostly within the file's entries, so that most valid files build
COEFF_X_MAXES = mostly(st.integers(2, 35), st.integers(-(2**64), 1) | st.integers(36, X_MAX))


@st.composite
def coeff_files(draw) -> bytes:
    header = list(COEFF_HEADER)
    if draw(st.integers(0, 4)) == 0:
        del header[draw(st.integers(0, len(header) - 1))]
    header += draw(st.lists(st.sampled_from(HEADER_FAULTS), max_size=2))
    body = list(COEFF_BODY)
    for fault in draw(st.lists(st.sampled_from(BODY_FAULTS), max_size=2)):
        body.insert(draw(st.integers(0, len(body))), fault)
    text = "\n".join(["# satotate-coeffs v1", *header, *body, ""]).encode()
    if draw(st.integers(0, 9)) == 0:  # bytes that are not UTF-8
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff\xfe" + text[at:]
    return text


# a STAN body mutation: a bit flipped, 8 bytes overwritten, or the file cut short,
# each at a position drawn in [0, 1) of the body
STAN_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
    st.tuples(st.just("overwrite"), st.floats(0.0, 1.0, exclude_max=True), st.binary(min_size=8, max_size=8)),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True), st.none()),
)

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


def check(argv: list[str]) -> tuple[int, str]:
    code, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code, err


# the refusals that need a cache's data, so that a missing cache comes first
NEEDS_DATA = (
    "exceeds series coverage", "need series coverage", "series has no points up to x", "no good prime <=",
    "GRH-shape ceiling overflows",
)


def check_reader(argv: list[str], missing: str) -> None:
    """check(argv); a refusal of an option (exit 2) comes the same with every --cache* path missing."""
    code, err = check(argv)
    if code == 2 and not any(text in err for text in NEEDS_DATA):
        blind = [f"{arg.partition('=')[0]}={missing}" if arg.startswith("--cache") else arg for arg in argv]
        assert run(blind) == (code, err), argv


@pytest.fixture(scope="module")
def missing(tmp_path_factory) -> str:
    """The path of a cache file that does not exist."""
    return str(tmp_path_factory.mktemp("missing") / "none.stan")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-out")


@settings(max_examples=25, deadline=None)
@given(model=MODELS, xmax=X_MAXES)
def test_angles_fuzz(out_dir, model, xmax):
    coeffs, conductor = model
    check(["angles", f"--curve={coeffs}", f"--conductor={conductor}", f"--xmax={xmax}", f"--out={out_dir / 'a.stan'}"])


@settings(max_examples=25, deadline=None)
@given(seed=mostly(st.integers(0, 2**32), st.integers(-(2**64), -1) | st.integers(2**64, 2**200)), xmax=X_MAXES)
def test_simulate_fuzz(out_dir, seed, xmax):
    check(["simulate", f"--seed={seed}", f"--xmax={xmax}", f"--out={out_dir / 's.stan'}"])


@settings(max_examples=30, deadline=None)
@given(M=ORDERS, xs=x_lists(4), option=st.sampled_from(["--c-et1", "--c-st1", "--c-grh"]), c=CONSTANTS)
@example(M="50", xs="2", option="--c-et1", c="1.0")  # x below 3
@example(M="2", xs="100", option="--c-et1", c="1.0")  # M below the Chebyshev column's 3
def test_verify_fuzz(caches, missing, M, xs, option, c):
    argv = ["verify", f"--cache={caches[0]}", "--interval=middle", f"--x={xs}", f"--M={M}", f"{option}={c}", "--out=-"]
    check_reader(argv, missing)


@settings(max_examples=20, deadline=None)
@given(M=ORDERS, grid=GRIDS, xs=x_lists(2), c=CONSTANTS)
def test_joint_fuzz(caches, missing, M, grid, xs, c):
    check_reader(
        [
            "joint", f"--cache1={caches[0]}", f"--cache2={caches[1]}", "--interval1=half",
            "--interval2=middle", f"--x={xs}", f"--M={M}", f"--grid={grid}", f"--c-et2={c}", "--out=-",
        ],
        missing,
    )


@settings(max_examples=25, deadline=None)
@given(m=INDICES, m_min=st.none() | INDICES, xs=x_lists(3))
@example(m="1", m_min=None, xs="2")  # x below 3
def test_cheb_sums_fuzz(caches, missing, m, m_min, xs):
    argv = ["cheb-sums", f"--cache={caches[0]}", f"--m={m}", f"--x={xs}", "--out=-"]
    check_reader(argv if m_min is None else argv + [f"--m-min={m_min}"], missing)


@settings(max_examples=25, deadline=None)
@given(
    m=INDICES,
    x=X_VALUES,
    ell=mostly(st.integers(1, 14), BAD_INDICES),
    eps=mostly(st.floats(1e-3, 0.249), BAD_FLOATS),
)
@example(m="1", x="10000", ell="4", eps="5e-324")  # subnormal eps: the weight's edge width underflows
@example(m="1", x="10000", ell="4", eps="1e-310")
def test_smooth_fuzz(caches, missing, m, x, ell, eps):
    check_reader(["smooth", f"--cache={caches[0]}", f"--m={m}", f"--x={x}", f"--ell={ell}", f"--eps={eps}"], missing)


@settings(max_examples=25, deadline=None)
@given(samples=FIT_SAMPLES)
@example(samples=([1e300, 1.0000000000000002e300, 1.0000000000000004e300], [1.0, 2.0, 3.0]))  # equal logs
def test_fit_fuzz(samples):
    xs, errors = samples
    check(["fit", f"--xs={joined(xs)}", f"--errors={joined(errors)}"])


@settings(max_examples=25, deadline=None)
@given(interval=INTERVALS, ceiling=mostly(st.integers(2, X_MAX), BAD_INDICES), c=CONSTANTS)
@example(interval="1:1", ceiling="1000", c="1.0")  # an interval of measure 0
def test_least_prime_cache_fuzz(caches, missing, interval, ceiling, c):
    argv = ["least-prime", f"--cache={caches[0]}", f"--interval={interval}", f"--ceiling={ceiling}", f"--c={c}"]
    check_reader(argv, missing)


@settings(max_examples=25, deadline=None)
@given(model=MODELS, interval=INTERVALS, ceiling=X_MAXES, c=CONSTANTS)
def test_least_prime_curve_fuzz(model, interval, ceiling, c):
    coeffs, conductor = model
    check(
        [
            "least-prime", f"--curve={coeffs}", f"--conductor={conductor}", f"--interval={interval}",
            f"--ceiling={ceiling}", f"--c={c}",
        ]
    )


@settings(max_examples=25, deadline=None)
@given(text=coeff_files(), xmax=COEFF_X_MAXES)
def test_angles_coeffs_fuzz(out_dir, text, xmax):
    path = out_dir / "f.coeffs"
    path.write_bytes(text)
    check(["angles", f"--coeffs={path}", f"--xmax={xmax}", f"--out={out_dir / 'c.stan'}"])


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory) -> bytes:
    """The bytes of a simulate cache to x_max = 2000: 303 records."""
    path = tmp_path_factory.mktemp("small") / "s.stan"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--seed=3", "--xmax=2000", f"--out={path}"]) == 0
    return path.read_bytes()


@settings(max_examples=25, deadline=None)
@given(mutation=STAN_MUTATIONS)
@example(mutation=("flip", 0.0, 1))  # the first record's p = 2 becomes 0
def test_stan_body_fuzz(out_dir, small_cache, mutation):
    kind, where, data = mutation
    blob = bytearray(small_cache)
    at = _HEADER.size + int(where * (len(blob) - _HEADER.size))
    if kind == "flip":
        blob[at] ^= 1 << data
    elif kind == "overwrite":
        blob[at : at + 8] = data[: len(blob) - at]  # the length stays
    else:
        del blob[at:]
    path = out_dir / "m.stan"
    path.write_bytes(bytes(blob))
    check(["verify", f"--cache={path}", "--interval=middle", "--x=100,1000,2000", "--out=-"])
    check(["smooth", f"--cache={path}", "--m=1", "--x=1000"])
    check(["cheb-sums", f"--cache={path}", "--m=4", "--x=100,2000", "--out=-"])
    check(
        [
            "joint", f"--cache1={path}", f"--cache2={path}", "--interval1=half", "--interval2=middle",
            "--x=2000", "--out=-",
        ]
    )
    check(["least-prime", f"--cache={path}", "--interval=middle", "--ceiling=2000"])


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


@pytest.mark.parametrize("eps", ["5e-324", "1e-310"])
def test_smooth_subnormal_eps_exits_2(caches, eps):
    code, err = run(["smooth", f"--cache={caches[0]}", "--m=1", "--x=10000", f"--eps={eps}"])
    assert (code, err) == (2, f"error: eps = {eps} is too small: the edge width eps / (ell log x) underflows\n")
