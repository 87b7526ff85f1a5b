"""numpy's tanh, exp and log against a decimal reference.

The certified prediction paths assume error bounds of these functions that
no library documents: encoder.TANH_ERROR for tanh and
encoder.TANH32_ERROR for its float32 loop (both in the projection slack),
and a 1e-9 relative slack for exp and log (both heads' margins). Each check
computes the function on a contiguous 512 x 64 block, the shape prediction
hands it, and on a strided view of one, so both numpy's SIMD loops and its
strided ones are covered. Each block holds a few thousand distinct points,
shuffled so that each point lands in several SIMD lanes, whose reference
values have at least 40 correct digits.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from fewner.encoder import TANH32_ERROR, TANH_ERROR

# the heads' relative slack for exp and log; below the smallest normal float
# it is taken on that float, as a subnormal result has fewer digits
RELATIVE = 1e-9
TINY = np.finfo(float).tiny
SUBNORMALS = np.array([5e-324, 1e-323, 2.5e-320, 1e-315, 1e-310, TINY / 2, np.nextafter(TINY, 0)])


def _around(points, dtype=float) -> np.ndarray:
    """Each point with its neighbours one and two ulps (of dtype) away."""
    points = np.asarray(points, dtype=dtype)
    up, down = np.nextafter(points, np.inf), np.nextafter(points, -np.inf)
    return np.concatenate([points, up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf)])


def _signed(points) -> np.ndarray:
    return np.concatenate([points, -np.asarray(points)])


def _tanh_ref(x: Decimal) -> Decimal:
    # below 1e-10 the series' next term is under 1e-60 x; above, 60 digits
    # leave at least 50 after the cancellation in e^2x - 1; beyond 80,
    # tanh is +-1 to 60 digits
    if abs(x) < Decimal("1e-10"):
        return x - x**3 / 3 + 2 * x**5 / 15
    if abs(x) > 80:
        return Decimal(1).copy_sign(x)
    e = (2 * x).exp()
    return (e - 1) / (e + 1)


def _reference(fn, points: np.ndarray) -> np.ndarray:
    """fn of every point in 60-digit decimal arithmetic, rounded to floats."""
    with localcontext(prec=60):
        return np.array([float(fn(Decimal(p))) for p in points.tolist()])


def _blocks(points: np.ndarray):
    """The points (as indices into them) shuffled over a 512 x 64 block, and
    that block as a contiguous array and as a strided view."""
    index = np.random.default_rng(0).permutation(np.resize(np.arange(len(points)), 512 * 64))
    index = index.reshape(512, 64)
    strided = np.empty((512, 128), dtype=points.dtype)[:, ::2]
    strided[...] = points[index]
    return index, (points[index], strided)


def _errors(fn, points: np.ndarray, reference):
    """For each block layout, how far fn's value at each entry can be from
    the real one (its distance from the rounded reference plus that
    rounding's ulp), and the reference's magnitude at each entry."""
    index, layouts = _blocks(points)
    ref = _reference(reference, points)[index]
    size = np.abs(ref)
    return [np.abs(fn(block) - ref) + np.spacing(size) for block in layouts], size


TANH_POINTS = np.unique(
    np.concatenate(
        [
            _signed(np.logspace(-308, 0, 400)),  # near 0
            _signed(SUBNORMALS),
            np.linspace(-25, 25, 1001),
            # where libm, musl and SIMD kernels switch formula: 2^-55,
            # 2^-28, 0.25, ln(3)/2, 0.625, 1, 20 and 22
            _signed(_around([2.0**-55, 2.0**-28, 0.25, np.log(3) / 2, 0.625, 1.0, 20.0, 22.0])),
            _signed(np.linspace(18.0, 20.0, 401)),  # saturation: tanh rounds to 1 near 19.06
            _signed([30.0, 100.0, 710.0, 1e300, np.finfo(float).max]),
            [0.0],
        ]
    )
)

TINY32 = np.finfo(np.float32).tiny
TANH32_POINTS = np.unique(
    _around(
        np.concatenate(
            [
                _signed(np.logspace(-45, 0, 300)),  # near 0
                _signed([1e-45, 1e-42, 1e-40, TINY32 / 2, np.nextafter(TINY32, 0)]),  # subnormal
                np.linspace(-25, 25, 1001),
                # where float32 kernels switch formula: the powers of two
                # that exponent-indexed tables split at, and ln(3)/2, 0.625,
                # 9 and 22
                _signed(2.0 ** np.arange(-30, 5)),
                _signed([np.log(3) / 2, 0.625, 9.0, 22.0]),
                _signed(np.linspace(8.5, 9.5, 401)),  # saturation: tanh rounds to 1 near 9.01
                _signed([30.0, 100.0, 1e30, 1e38]),
                [0.0],
            ]
        ),
        np.float32,
    )
)

EXP_POINTS = np.unique(
    np.concatenate(
        [
            _signed(np.logspace(-320, 0, 400)),  # near 0
            _signed(SUBNORMALS),
            np.linspace(-745, 709, 1455),
            # where kernels switch formula: 2^-54 (1 + x), the subnormal
            # results below -708.4, the last nonzero one near -745.13 and
            # overflow above 709.78
            _signed(_around([2.0**-54, 2.0**-28, 0.5 * np.log(2), 1.0])),
            _around([-708.39641853226408, -709.0, -744.44007192138126, -745.13]),
            _around([709.0, 709.78]),
            np.linspace(-746.0, -700.0, 185),
            [0.0],
        ]
    )
)

LOG_POINTS = np.unique(
    np.concatenate(
        [
            SUBNORMALS,
            np.logspace(-307, 308, 1231),
            np.linspace(0.5, 2.0, 601),  # tables and short series around 1
            1.0 + _signed(2.0 ** -np.arange(1, 53)),
            1.0 + _signed(np.logspace(-15, -1, 57)),
            _around([1.0, 1.0 + 0.0647, 1.0 - 0.0647, np.e, 2.0, np.finfo(float).max / 2]),
            [TINY, np.finfo(float).max],
        ]
    )
)


def test_tanh_is_within_tanh_error():
    errors, _ = _errors(np.tanh, TANH_POINTS, _tanh_ref)
    assert max(error.max() for error in errors) <= TANH_ERROR


def test_float32_tanh_is_within_tanh32_error():
    errors, _ = _errors(np.tanh, TANH32_POINTS, _tanh_ref)
    assert max(error.max() for error in errors) <= TANH32_ERROR


@pytest.mark.parametrize(
    "fn, points, reference",
    [(np.exp, EXP_POINTS, Decimal.exp), (np.log, LOG_POINTS, Decimal.ln)],
    ids=["exp", "log"],
)
def test_exp_and_log_are_within_the_relative_slack(fn, points, reference):
    errors, size = _errors(fn, points, reference)
    for error in errors:
        assert (error <= RELATIVE * np.maximum(size, TINY)).all()
