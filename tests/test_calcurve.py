import codecs
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbcal.calcurve import CalibrationCurve, load_curve
from carbcal.errors import CurveFormatError, CurveRangeError

BUNDLED_CURVE = Path(__file__).resolve().parent.parent / "data" / "synthetic_curve.14c"


def write_curve(tmp_path, rows, header="# comment line\n"):
    path = tmp_path / "curve.14c"
    path.write_text(header + "\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    return path


def test_load_three_row_file_identity(tmp_path):
    path = write_curve(tmp_path, [(0, 100, 5), (10, 110, 5), (20, 130, 6)])
    curve = load_curve(path)
    assert curve.cal_age.tolist() == [0, 10, 20]
    assert curve.c14_mean.tolist() == [100, 110, 130]
    assert curve.c14_sd.tolist() == [5, 5, 6]


def test_load_descending_file_is_reversed(tmp_path):
    path = write_curve(tmp_path, [(20, 130, 6), (10, 110, 5), (0, 100, 5)])
    curve = load_curve(path)
    assert curve.cal_age.tolist() == [0, 10, 20]
    assert curve.c14_mean.tolist() == [100, 110, 130]


def test_load_rejects_zero_sd_with_line_number(tmp_path):
    path = write_curve(tmp_path, [(0, 100, 5), (10, 110, 0.0), (20, 130, 6)])
    with pytest.raises(CurveFormatError, match=r":3:"):
        load_curve(path)


def test_load_rejects_duplicate_age_with_line_number(tmp_path):
    path = write_curve(tmp_path, [(0, 100, 5), (10, 110, 5), (10, 130, 6)])
    with pytest.raises(CurveFormatError, match="duplicate"):
        load_curve(path)


def test_load_rejects_garbage_and_short_rows(tmp_path):
    path = write_curve(tmp_path, [(0, 100, 5), ("ten", 110, 5)])
    with pytest.raises(CurveFormatError, match=r":3:"):
        load_curve(path)
    path2 = tmp_path / "short.14c"
    path2.write_text("0,100\n10,110\n")
    with pytest.raises(CurveFormatError, match="3 comma-separated"):
        load_curve(path2)


def test_load_ignores_extra_columns(tmp_path):
    path = write_curve(tmp_path, [(0, 100, 5, 1, 2), (10, 110, 5, 3, 4)])
    curve = load_curve(path)
    assert len(curve) == 2


@pytest.mark.parametrize(
    "body, line, message",
    [
        # a bad token with spaces around it is quoted stripped
        ("0,100,5\n1.0, abc ,3\n", 3, "unparseable number: could not convert string to float: 'abc'"),
        ("0,100,5\n abc ,1,2,junk\n", 3, "unparseable number: could not convert string to float: 'abc'"),
        ("0,100,5\n1,  ,2\n", 3, "unparseable number: could not convert string to float: ''"),
        ("0,100,5\n\n1, 2\n", 4, "expected at least 3 comma-separated columns, got 2"),
        ("0,100,5\nfoo\n", 3, "expected at least 3 comma-separated columns, got 1"),
        # trailing columns are not parsed, but the first three still are checked
        ("0,100,5,x\n10, 110 ,0 ,junk,,\n", 3, "non-positive curve sd 0"),
    ],
)
def test_load_error_text_and_line(tmp_path, body, line, message):
    path = tmp_path / "curve.14c"
    path.write_text("# comment line\n" + body)
    with pytest.raises(CurveFormatError) as exc:
        load_curve(path)
    assert exc.value.line == line
    assert str(exc.value) == f"{path}:{line}: {message}"


def test_load_skips_utf8_byte_order_mark(tmp_path):
    # read as latin-1, the mark stuck to the first comment line, which then did not start with '#'
    path = tmp_path / "bom.14c"
    path.write_bytes(codecs.BOM_UTF8 + BUNDLED_CURVE.read_bytes())
    plain, bom = load_curve(BUNDLED_CURVE), load_curve(path)
    for name in ("cal_age", "c14_mean", "c14_sd"):
        assert getattr(bom, name).tobytes() == getattr(plain, name).tobytes()


def test_load_error_line_after_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.14c"
    path.write_bytes(codecs.BOM_UTF8 + b"0,100,5\n10,110,5\nfoo\n")
    with pytest.raises(CurveFormatError) as exc:
        load_curve(path)
    assert str(exc.value) == f"{path}:3: expected at least 3 comma-separated columns, got 1"


def test_load_strips_fields_and_ignores_trailing_columns(tmp_path):
    path = tmp_path / "curve.14c"
    path.write_text("0 ,\t100, 5,not a number\n 10,110 ,6 , , ,\n")
    curve = load_curve(path)
    assert curve.cal_age.tolist() == [0, 10]
    assert curve.c14_mean.tolist() == [100, 110]
    assert curve.c14_sd.tolist() == [5, 6]


def test_load_unreadable_file_is_curve_format_error(tmp_path):
    missing = tmp_path / "missing.14c"
    with pytest.raises(CurveFormatError, match="No such file") as exc:
        load_curve(missing)
    assert str(exc.value).startswith(f"{missing}: cannot read curve file")


def test_intcal20_has_9501_knots():
    from conftest import intcal20_path

    path = intcal20_path()
    if path is None:
        pytest.skip("IntCal20 curve file not available")
    curve = load_curve(path)
    assert len(curve) == 9501
    assert curve.support == (0.0, 55000.0)


def test_at_knot_is_exact():
    curve = CalibrationCurve([0, 10, 20], [100, 110, 130], [5, 5, 6])
    assert curve.at(10.0) == (110.0, 5.0)
    assert curve.at(20.0) == (130.0, 6.0)


def test_at_midpoint_is_linear():
    curve = CalibrationCurve([0, 10, 20], [100, 110, 130], [5, 5, 6])
    m, rho = curve.at(15.0)
    assert m == pytest.approx(120.0)
    assert rho == pytest.approx(5.5)


def test_at_outside_support_raises():
    curve = CalibrationCurve([0, 10, 20], [100, 110, 130], [5, 5, 6])
    with pytest.raises(CurveRangeError):
        curve.at(21.0)
    with pytest.raises(CurveRangeError):
        curve.at(-0.5)


def test_at_vectorised_matches_scalar():
    curve = CalibrationCurve([0, 10, 20, 35], [100, 110, 130, 90], [5, 5, 6, 7])
    thetas = np.linspace(0, 35, 101)
    m_vec, rho_vec = curve.at(thetas)
    for k, t in enumerate(thetas):
        m, rho = curve.at(float(t))
        assert m == pytest.approx(m_vec[k])
        assert rho == pytest.approx(rho_vec[k])
        both = curve.interp(float(t))
        assert both.real == pytest.approx(m_vec[k])
        assert both.imag == pytest.approx(rho_vec[k])


def test_interp_matches_separate_real_interpolations(synth_curve):
    theta = np.random.default_rng(4).uniform(*synth_curve.support, size=10_000)
    both = synth_curve.interp(theta)
    m = np.interp(theta, synth_curve.cal_age, synth_curve.c14_mean)
    rho = np.interp(theta, synth_curve.cal_age, synth_curve.c14_sd)
    assert np.allclose(both.real, m, rtol=1e-15, atol=0.0)
    assert np.allclose(both.imag, rho, rtol=1e-15, atol=0.0)
    at_knots = synth_curve.interp(synth_curve.cal_age)
    assert np.array_equal(at_knots.real, synth_curve.c14_mean)
    assert np.array_equal(at_knots.imag, synth_curve.c14_sd)


@settings(max_examples=200, deadline=None)
@given(
    frac=st.floats(0.0, 1.0),
    knot=st.integers(0, 2),
)
def test_interpolation_is_convex_combination(frac, knot):
    curve = CalibrationCurve([0, 10, 20, 40], [100, 110, 130, 95], [5, 5, 6, 3])
    lo_age = float(curve.cal_age[knot])
    hi_age = float(curve.cal_age[knot + 1])
    theta = lo_age + frac * (hi_age - lo_age)
    m, rho = curve.at(theta)
    w = (theta - lo_age) / (hi_age - lo_age)
    assert m == pytest.approx((1 - w) * curve.c14_mean[knot] + w * curve.c14_mean[knot + 1])
    assert rho == pytest.approx((1 - w) * curve.c14_sd[knot] + w * curve.c14_sd[knot + 1])
    assert rho > 0


def test_validation_rejects_bad_construction():
    with pytest.raises(CurveFormatError):
        CalibrationCurve([0], [1], [1])
    with pytest.raises(CurveFormatError):
        CalibrationCurve([0, 1], [1, 2], [1, -1])
    with pytest.raises(CurveFormatError):
        CalibrationCurve([0, 0], [1, 2], [1, 1])
    with pytest.raises(CurveFormatError):
        CalibrationCurve([0, 1, 2], [1, 2], [1, 1])


@pytest.mark.parametrize(
    "ages, sds, knot, message",
    [
        ([0, 10, 20], [5, 0.0, 6], 1, "non-positive curve sd 0"),
        ([0, 10, 5], [5, 5, 6], 2, "duplicate or out-of-order calendar age 5"),
        ([0, 10, 10], [5, 5, 6], 2, "duplicate or out-of-order calendar age 10"),
    ],
)
def test_direct_construction_error_matches_load_curve(tmp_path, ages, sds, knot, message):
    means = [100, 110, 130]
    with pytest.raises(CurveFormatError) as built:
        CalibrationCurve(ages, means, sds)
    assert built.value.knot == knot
    assert str(built.value) == message
    path = write_curve(tmp_path, list(zip(ages, means, sds)))
    with pytest.raises(CurveFormatError) as loaded:
        load_curve(path)
    assert str(loaded.value) == f"{path}:{knot + 2}: {message}"


@pytest.mark.parametrize(
    "bad_row, line, message",
    [
        ((30, 140, -1), 3, "non-positive curve sd -1"),
        ((10, 140, 6), 3, "duplicate or out-of-order calendar age 10"),
        ((30, "nan", 6), 3, "non-finite value in the first three columns [30.0, nan, 6.0]"),
    ],
)
def test_descending_file_names_the_bad_row_line(tmp_path, bad_row, line, message):
    # IntCal order: the rows are reversed before the checks, the lines are not.
    rows = [(40, 150, 7), bad_row, (20, 130, 6), (0, 100, 5)]
    path = write_curve(tmp_path, rows)
    with pytest.raises(CurveFormatError) as exc:
        load_curve(path)
    assert exc.value.line == line
    assert str(exc.value) == f"{path}:{line}: {message}"


def test_curve_arrays_are_immutable(synth_curve):
    with pytest.raises(ValueError):
        synth_curve.cal_age[0] = -1.0


def test_validation_rejects_non_finite_sd():
    for bad in (np.inf, np.nan):
        with pytest.raises(CurveFormatError, match="non-finite"):
            CalibrationCurve([0, 1], [1, 2], [1, bad])


_knot_values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _curves(draw):
    ages = sorted(draw(st.lists(_knot_values, min_size=2, max_size=12, unique=True)))
    n = len(ages)
    means = draw(st.lists(_knot_values, min_size=n, max_size=n))
    sds = draw(st.lists(st.floats(1e-6, 1e6), min_size=n, max_size=n))
    return CalibrationCurve(ages, means, sds)


@settings(max_examples=100, deadline=None)
@given(curve=_curves())
def test_curve_file_roundtrip(tmp_path_factory, curve):
    from carbcal.synthetic import write_curve_file

    path = tmp_path_factory.mktemp("curve") / "curve.14c"
    write_curve_file(curve, path)
    back = load_curve(path)
    for name in ("cal_age", "c14_mean", "c14_sd"):
        assert np.array_equal(getattr(back, name), getattr(curve, name))


@settings(max_examples=100, deadline=None)
@given(curve=_curves(), data=st.data())
def test_load_rejects_one_non_finite_value_with_line_number(tmp_path_factory, curve, data):
    from carbcal.synthetic import write_curve_file

    path = tmp_path_factory.mktemp("curve") / "curve.14c"
    write_curve_file(curve, path)
    lines = path.read_text().splitlines()
    data_lines = [k for k, line in enumerate(lines) if not line.startswith("#")]
    k = data.draw(st.sampled_from(data_lines))
    column = data.draw(st.integers(0, 2))
    fields = lines[k].split(",")
    fields[column] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
    lines[k] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CurveFormatError, match="non-finite") as exc:
        load_curve(path)
    assert exc.value.line == k + 1
    assert str(exc.value).startswith(f"{path}:{k + 1}: ")
