import numpy as np
import pytest

from varmatern import smoothness
from varmatern.smoothness import (
    ProfileError,
    average_s,
    beta,
    constant,
    evaluate,
    from_dict,
    gaussian_bump,
    oscillatory_ramp,
    step,
    tabulated,
    tabulated_from_csv,
)

from conftest import RAMP_PARAMS


def test_step_eval_sides():
    prof = step(0.35, 0.85)
    assert evaluate(prof, -1.0) == 0.35
    assert evaluate(prof, 0.0) == 0.35  # closed-right convention at the jump
    assert evaluate(prof, 1e-12) == 0.85
    assert evaluate(prof, 2.0) == 0.85


def test_bump_center_and_tails():
    prof = gaussian_bump(0.35, 0.85, sigma=0.9, r_int=3.0)
    assert evaluate(prof, 0.0) == pytest.approx(0.85, abs=1e-15)
    assert evaluate(prof, 3.0) == pytest.approx(0.35, abs=1e-15)
    assert evaluate(prof, -3.5) == 0.35
    # continuous across the matching radius
    assert abs(evaluate(prof, 3.0 - 1e-9) - evaluate(prof, 3.0 + 1e-9)) < 1e-8


def test_ramp_endpoints_and_clamps():
    prof = oscillatory_ramp(**RAMP_PARAMS)
    assert evaluate(prof, 3.0) == pytest.approx(0.7594, abs=1e-12)
    assert evaluate(prof, -3.0) == pytest.approx(0.44075, abs=1e-12)
    assert evaluate(prof, 5.0) == pytest.approx(0.7594, abs=1e-15)
    assert evaluate(prof, -5.0) == pytest.approx(0.44075, abs=1e-15)


def test_ramp_scanned_bounds_match_nominal():
    # the oscillation is supposed to realize (0.35, 0.85) for these values
    prof = oscillatory_ramp(**RAMP_PARAMS)
    assert prof.s_lower == pytest.approx(0.35, abs=5e-3)
    assert prof.s_upper == pytest.approx(0.85, abs=5e-3)


def test_constant_is_constant():
    prof = constant(0.5)
    xs = np.linspace(-7, 7, 1001)
    assert np.all(evaluate(prof, xs) == 0.5)


def test_beta_examples():
    prof = step(0.35, 0.85)
    assert beta(prof, -1.0, 1.0) == pytest.approx(0.60, abs=1e-15)
    assert beta(prof, 1.3, 1.3) == evaluate(prof, 1.3)
    assert beta(constant(0.5), -2.0, 3.1) == 0.5


def test_beta_symmetry_and_bounds():
    rng = np.random.default_rng(7)
    for key in ("step", "bump", "ramp"):
        prof = {
            "step": step(0.35, 0.85),
            "bump": gaussian_bump(0.35, 0.85, 0.9, 3.0),
            "ramp": oscillatory_ramp(**RAMP_PARAMS),
        }[key]
        x = rng.uniform(-4, 4, 1000)
        y = rng.uniform(-4, 4, 1000)
        bxy = beta(prof, x, y)
        byx = beta(prof, y, x)
        assert np.array_equal(bxy, byx)
        assert np.all(bxy >= prof.s_lower) and np.all(bxy <= prof.s_upper)


def test_certified_bounds_hold_on_fine_grid():
    xs = np.linspace(-4, 4, 100_001)
    profiles = [
        constant(0.5),
        step(0.35, 0.85),
        gaussian_bump(0.35, 0.85, 0.9, 3.0),
        oscillatory_ramp(**RAMP_PARAMS),
        tabulated([-3.0, -1.0, 2.0, 3.5], [0.45, 0.8, 0.52, 0.61]),
    ]
    for prof in profiles:
        vals = evaluate(prof, xs)
        assert np.all(vals >= prof.s_lower), prof.kind
        assert np.all(vals <= prof.s_upper), prof.kind
        assert 0.0 < prof.s_lower and prof.s_upper < 1.0


def test_continuity_where_claimed():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-4, 4, 1000)
    for prof in (gaussian_bump(0.35, 0.85, 0.9, 3.0), oscillatory_ramp(**RAMP_PARAMS)):
        jump = np.abs(evaluate(prof, xs + 1e-9) - evaluate(prof, xs))
        assert np.max(jump) < 1e-7


def test_average_step_symmetric():
    assert average_s(step(0.35, 0.85), (-4, 4)) == pytest.approx(0.60, abs=1e-12)


def test_average_constant():
    assert average_s(constant(0.5), (-2, 7)) == pytest.approx(0.5, abs=1e-13)


def test_average_step_high_matches_reported_rate_base():
    # 2 <s> - 1/2 for the (0.65, 0.85) step over G = [-4, 4]
    avg = average_s(step(0.65, 0.85), (-4, 4))
    assert 2 * avg - 0.5 == pytest.approx(1.0, abs=1e-12)


def test_average_bump_quadrature_accuracy():
    prof = gaussian_bump(0.35, 0.85, 0.9, 3.0)
    # reference by dense trapezoid
    xs = np.linspace(-4, 4, 2_000_001)
    ref = np.trapezoid(evaluate(prof, xs), xs) / 8.0
    assert average_s(prof, (-4, 4)) == pytest.approx(ref, rel=1e-10)


def test_invalid_parameters_rejected_at_construction():
    with pytest.raises(ProfileError):
        step(0.85, 0.35)
    with pytest.raises(ProfileError):
        step(0.5, 0.5)
    with pytest.raises(ProfileError):
        constant(1.5)
    with pytest.raises(ProfileError):
        constant(0.0)
    with pytest.raises(ProfileError):
        gaussian_bump(0.35, 0.85, sigma=-1.0, r_int=3.0)
    with pytest.raises(ProfileError):
        oscillatory_ramp(a=0.9, b=0.99, omega=0.2, r_int=3.0)  # leaves (0, 1)
    with pytest.raises(ProfileError):
        tabulated([0.0, 0.0, 1.0], [0.3, 0.4, 0.5])
    with pytest.raises(ProfileError):
        tabulated([0.0, 1.0], [0.3, 1.2])


# Valid arguments of every factory; each float in them is set to NaN in turn.
_FACTORY_ARGS = [
    (constant, (0.5,)),
    (step, (0.35, 0.85)),
    (gaussian_bump, (0.35, 0.85, 0.9, 3.0)),
    (oscillatory_ramp, (0.44, 0.76, 0.15, 3.0)),
    (tabulated, ([-1.0, 0.0, 1.0], [0.4, 0.5, 0.6])),
]


def _nan_cases():
    for factory, args in _FACTORY_ARGS:
        for i, arg in enumerate(args):
            if np.ndim(arg) == 0:
                yield pytest.param(factory, (*args[:i], np.nan, *args[i + 1:]),
                                   id=f"{factory.__name__}-{i}")
                continue
            for j in range(len(arg)):
                item = list(arg)
                item[j] = np.nan
                yield pytest.param(factory, (*args[:i], item, *args[i + 1:]),
                                   id=f"{factory.__name__}-{i}-{j}")


@pytest.mark.parametrize("factory, args", _nan_cases())
def test_factories_reject_nan(factory, args):
    with pytest.raises(ProfileError):
        factory(*args)


def test_eval_rejects_non_finite():
    with pytest.raises(ValueError):
        evaluate(constant(0.5), np.nan)


def test_tabulated_interpolation_and_bounds():
    prof = tabulated([-1.0, 0.0, 2.0], [0.4, 0.8, 0.6])
    assert prof.s_lower == 0.4 and prof.s_upper == 0.8
    assert evaluate(prof, -0.5) == pytest.approx(0.6)
    assert evaluate(prof, 1.0) == pytest.approx(0.7)
    # constant extrapolation keeps the bounds
    assert evaluate(prof, -9.0) == 0.4
    assert evaluate(prof, 9.0) == 0.6


def test_tabulated_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("x,s\n-2.0,0.45\n0.0,0.7\n2.0,0.5\n")
    prof = tabulated_from_csv(path)
    assert prof.kind == "tabulated"
    assert evaluate(prof, -1.0) == pytest.approx(0.575)


def test_from_dict_all_kinds(tmp_path):
    assert from_dict({"kind": "constant", "s": 0.5}).kind == "constant"
    assert from_dict({"kind": "step", "s_lower": 0.35, "s_upper": 0.85}).kind == "step"
    bump = from_dict(
        {"kind": "gaussian_bump", "s_lower": 0.35, "s_upper": 0.85},
        default_r_int=3.0,
    )
    assert bump.params["sigma"] == pytest.approx(0.9)  # sigma defaults to 0.3 r_int
    ramp = from_dict(
        {"kind": "oscillatory_ramp", "a": 0.44075, "b": 0.7594, "omega": 0.15},
        default_r_int=3.0,
    )
    assert ramp.kind == "oscillatory_ramp"
    path = tmp_path / "t.csv"
    path.write_text("x,s\n0,0.5\n1,0.6\n")
    assert from_dict({"kind": "tabulated", "path": str(path)}).kind == "tabulated"
    with pytest.raises(ProfileError):
        from_dict({"kind": "nosuch"})


def test_from_dict_round_trips_every_kind(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,s\n-1,0.4\n0,0.7\n2,0.5\n")
    shipped = [
        constant(0.5),
        step(0.35, 0.85),
        gaussian_bump(0.35, 0.85, 0.9, 3.0),
        oscillatory_ramp(0.44075, 0.7594, 0.15, 3.0),
        tabulated([-1.0, 0.0, 2.0], [0.4, 0.7, 0.5]),
        from_dict({"kind": "tabulated", "path": str(path)}),
    ]
    assert {p.kind for p in shipped} == set(smoothness._KINDS)
    for prof in shipped:
        back = from_dict(prof.to_dict())
        assert back.to_dict() == prof.to_dict()


@pytest.mark.parametrize("block, key", [
    ({"kind": "step", "s_lower": 0.35}, "profile.s_upper"),
    ({"kind": "oscillatory_ramp", "a": 0.4, "b": 0.6, "r_int": 3.0}, "profile.omega"),
    ({"kind": "oscillatory_ramp", "a": 0.4, "b": 0.6, "omega": 0.1}, "profile.r_int"),
    ({"kind": "tabulated", "s": [0.4, 0.5]}, "profile.x"),
    ({"kind": "step", "s_lower": 0.35, "s_upper": 0.85, "sigmaa": 2}, "profile.sigmaa"),
    ({"kind": "constant", "s": 0.5, "r_int": 3.0}, "profile.r_int"),
    ({"kind": "constant", "s": None}, "profile.s"),
    ({"kind": "constant", "s": "half"}, "profile.s"),
    ({"kind": "gaussian_bump", "s_lower": 0.35, "s_upper": 0.85, "sigma": float("nan"),
      "r_int": 3.0}, "profile.sigma"),
    ({"kind": "tabulated", "x": [0, "a"], "s": [0.4, 0.5]}, "profile.x"),
    ({"kind": "tabulated", "path": 5}, "tabulated profile file 5"),
    ({"kind": "tabulated", "path": "/nonexistent/t.csv"}, "/nonexistent/t.csv"),
    # a list would be read as the lines of a file
    ({"kind": "tabulated", "path": ["x,s", "0,0.5", "1,0.6"]}, "profile.path"),
])
def test_from_dict_names_key(block, key):
    with pytest.raises(ProfileError, match=key):
        from_dict(block)


def test_profile_immutable():
    prof = constant(0.5)
    with pytest.raises(AttributeError):
        prof.s_lower = 0.1
