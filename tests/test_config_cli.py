import json
import math
import os
import struct
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varmatern import assembly, cli, fileio
from varmatern.assembly import assemble_weighted_mass
from varmatern.config import ConfigError, default_config_dict, load_config, slice_file
from varmatern.mesh import build_uniform
from varmatern.quadrature import gauss_legendre_01, quadrature_order


# ------------------------------------------------------------------ config


def test_default_config_valid():
    cfg = load_config()
    assert cfg.ctx.kappa == 2.5
    assert cfg.profile.kind == "constant"
    assert cfg.level == 6
    cfg.check_command("sample")
    assert [mesh.level for mesh in cfg.meshes] == [6]


def test_dotted_overrides():
    cfg = load_config(overrides={"kernel.kappa": 1.5, "domain.level": 3,
                                 "sampling.m": 10})
    assert cfg.ctx.kappa == 1.5
    assert cfg.level == 3
    assert cfg.m == 10
    cfg.check_command("converge")  # its meshes are those of convergence.levels
    assert [mesh.level for mesh in cfg.meshes] == [7, 6, 5]


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="kernel.nosuch"):
        load_config(overrides={"kernel.nosuch": 1})
    with pytest.raises(ConfigError, match="nonsense"):
        load_config(overrides={"nonsense": 1})


def test_invalid_values_name_key():
    with pytest.raises(ConfigError, match="kernel.kappa"):
        load_config(overrides={"kernel.kappa": -1})
    with pytest.raises(ConfigError, match="sampling.m"):
        load_config(overrides={"sampling.m": -5})
    with pytest.raises(ConfigError, match="domain"):
        load_config(overrides={"domain.r_int": 2.7, "domain.level": 1}).check_command("sample")
    with pytest.raises(ConfigError, match="profile"):
        load_config(overrides={"profile": {"kind": "step", "s_lower": 0.9,
                                           "s_upper": 0.3}})


def test_profile_override_merge_and_replace():
    cfg = load_config(overrides={"profile": {"kind": "step", "s_lower": 0.35,
                                             "s_upper": 0.85}})
    assert cfg.profile.kind == "step"
    # same-kind partial override merges
    cfg2 = load_config(overrides={"profile": {"s": 0.3}})
    assert cfg2.profile.params["s"] == 0.3


def test_config_file_loading(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kernel": {"kappa": 0.25},
                                "profile": {"kind": "step", "s_lower": 0.35,
                                            "s_upper": 0.85}}))
    cfg = load_config(path)
    assert cfg.ctx.kappa == 0.25
    assert cfg.profile.kind == "step"
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)


def test_config_echo_contains_resolved_profile():
    cfg = load_config(overrides={"profile": {"kind": "step", "s_lower": 0.35,
                                             "s_upper": 0.85}})
    echo = cfg.echo()
    assert echo["profile"]["kind"] == "step"
    assert echo["sampling"]["seed"] == cfg.seed


# ------------------------------------------------------------------ fileio


def test_matrix_roundtrip(tmp_path, rng):
    mat = rng.standard_normal((5, 5))
    path = tmp_path / "m.vwm1"
    fileio.write_matrix(path, mat, {"hello": 1})
    back, sidecar = fileio.read_matrix(path)
    assert np.array_equal(back, mat)
    assert sidecar == {"hello": 1}
    with open(path, "r+b") as fh:
        fh.write(b"XXXX")
    with pytest.raises(ValueError, match="magic"):
        fileio.read_matrix(path)


@pytest.mark.parametrize("length", [5, 11])
def test_read_matrix_truncated_header(tmp_path, length):
    path = tmp_path / "m.vwm1"
    fileio.write_matrix(path, np.eye(2), {})
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(ValueError, match=f"{path.name}: truncated header"):
        fileio.read_matrix(path)


@pytest.mark.parametrize("n", [100_000, 4_000_000_000])
def test_read_matrix_header_larger_than_file(tmp_path, n):
    # a 28-byte file whose header claims an N x N payload it does not hold
    path = tmp_path / "m.vwm1"
    path.write_bytes(fileio.MAGIC + struct.pack("<II", fileio.VERSION, n) + bytes(16))
    with pytest.raises(ValueError, match=f"{path.name}: truncated payload"):
        fileio.read_matrix(path)


def test_read_matrix_holds_one_copy(tmp_path):
    n = 1537  # level 8
    path = fileio.write_matrix(tmp_path / "m.vwm1", np.eye(n), {})
    tracemalloc.start()
    try:
        back, _ = fileio.read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, np.eye(n))
    assert peak <= 1.1 * 8 * n * n


def test_csv_full_precision_roundtrip(tmp_path):
    vals = np.array([math.pi, 1.0 / 3.0, 1e-300, 12345.678901234567])
    path = tmp_path / "c.csv"
    fileio.write_csv(path, ["v"], [vals])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "v"
    back = np.array([float(s) for s in lines[1:]])
    assert np.array_equal(back, vals)


def test_csv_bytes_match_per_value_formatting(tmp_path):
    special = [-0.0, 0.0, 5e-324, 1e-300, 1e300, np.inf, -np.inf, np.nan,
               math.pi, -1.0 / 3.0, 2.0**53 + 2.0, 1.0]
    rng = np.random.default_rng(5)
    cols = [
        np.arange(1, len(special) + 1),  # integer column, as in per_sample_errors.csv
        np.array(special),
        rng.standard_normal(len(special)) * 10.0 ** rng.integers(-20, 20, len(special)),
    ]
    names = ["i", "special", "random"]
    path = fileio.write_csv(tmp_path / "t.csv", names, cols)
    rows = [",".join(fileio.format_float(c[i]) for c in cols) for i in range(len(special))]
    expected = "\n".join([",".join(names)] + rows) + "\n"
    assert path.read_bytes() == expected.encode()
    empty = fileio.write_csv(tmp_path / "e.csv", ["a", "b"], [np.array([]), np.array([])])
    assert empty.read_bytes() == b"a,b\n"


# --------------------------------------------------------------------- CLI


_PRE_POW10 = [math.nextafter(10.0**j, 0.0) for j in range(-3, 17)]


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=40), n_cols=st.integers(1, 6))
# the edges of the window [1e-4, 1e16) that is formatted in numpy
@example(values=[1e-4, math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0),
                 float(2**53 - 1), float(2**53 + 1)], n_cols=3)
# exact ties at the 17th digit round half to even: ...0.2 and ...0.8
@example(values=[1000000000000000.25, 1000000000000000.75], n_cols=2)
# 17-digit rounding that carries to the next power of ten (1e-14 and 1e98
# print as such but lie below them), and log10 rounding up below 10**j
@example(values=[1e-14, -1e98, *_PRE_POW10], n_cols=4)
# a value that fills its 24-byte slot with the separator exactly, and two
# outside the window that need 25 bytes
@example(values=[-0.00012345678901234567], n_cols=1)
@example(values=[-2.2250738585072014e-308], n_cols=1)
@example(values=[-3.2140278058893415e+153], n_cols=1)
def test_csv_bytes_equal_format_float_join(tmp_path_factory, values, n_cols):
    # taller than one block of rows; columns given as a 1d array and a 2d block
    rows = fileio._BLOCK_VALUES // n_cols + 3
    table = np.resize(np.array(values), (rows, n_cols))
    names = [f"c{j}" for j in range(n_cols)]
    cols = [table[:, 0]] + ([table[:, 1:]] if n_cols > 1 else [])
    path = fileio.write_csv(tmp_path_factory.mktemp("csv") / "t.csv", names, cols)
    lines = [",".join(names)] + [",".join(map(fileio.format_float, row)) for row in table]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _fixed_key(x):
    """(negative, k, index of the last nonzero of the 17 digits) of %.17g."""
    sign, digits, exponent = Decimal(fileio.format_float(x)).normalize().as_tuple()
    return sign, len(digits) - 1 + exponent, len(digits) - 1


def test_csv_covers_every_slot_template(tmp_path):
    # one value per template of the window: sign x k in [-4, 15] x the last
    # nonzero digit in [0, 16]; each the first of a fixed run of m * 10**(k - L)
    # with m of L + 1 digits whose %.17g keeps exactly those digits
    values = []
    for negative, k, last in np.ndindex(2, 20, 17):
        k -= 4
        for c in range(1, 300):
            m = 10**last + c * 7919 % (9 * 10**last)
            x = float(f"{'-' * negative}{m}e{k - last}")
            if _fixed_key(x) == (negative, k, last):
                values.append(x)
                break
    assert len(values) == 680
    path = fileio.write_csv(tmp_path / "t.csv", ["v"], [np.array(values)])
    lines = ["v", *map(fileio.format_float, values)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_sample_table_as_the_cli_passes_it(tmp_path):
    # samples.csv at level 6: the node column and the 385 x 1000 sample block,
    # scaled from 1e-6 to 10 so that values outside the window mix in
    coords = -3.0 + np.arange(385) * (6.0 / 384)
    u = np.random.default_rng(3).standard_normal((385, 1000)) * np.logspace(-6, 1, 1000)
    names = ["node_x"] + [f"u_{k + 1}" for k in range(1000)]
    path = fileio.write_csv(tmp_path / "samples.csv", names, [coords, u])
    rows = (",".join(map(fileio.format_float, [x, *row])) for x, row in zip(coords, u))
    assert path.read_bytes() == ("\n".join([",".join(names), *rows]) + "\n").encode()


def test_csv_writer_streams_rows_from_columns(tmp_path):
    # samples.csv at level 6 as 1001 column views: copying the table alone
    # would take 385 * 1001 * 8 B = 3.1 MB
    table = np.random.default_rng(0).standard_normal((385, 1001))
    names = [f"c{j}" for j in range(1001)]
    cols = [table[:, j] for j in range(1001)]
    tracemalloc.start()
    try:
        fileio.write_csv(tmp_path / "t.csv", names, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
    with pytest.raises(ValueError, match="equal-length"):
        fileio.write_csv(tmp_path / "r.csv", ["a", "b"], [table[:, 0], table[:-1, 1]])
    with pytest.raises(ValueError, match="count mismatch"):
        fileio.write_csv(tmp_path / "r.csv", ["a", "b"], [table[:, :3]])


def test_csv_needs_a_column(tmp_path):
    for names, columns in (([], []), (["a"], [])):
        with pytest.raises(ValueError, match="at least one column"):
            fileio.write_csv(tmp_path / "e.csv", names, columns)


def _run(argv):
    return cli.main(argv)


def test_cli_covariance_slices(tmp_path):
    out = tmp_path / "cov"
    code = _run([
        "covariance", "--level", "3", "--out", str(out),
        "--slices", "-1.5,0,1.5",
    ])
    assert code == 0
    files = sorted(p.name for p in out.glob("covariance_*.csv"))
    assert files == ["covariance_x0.csv", "covariance_x1p5.csv", "covariance_xm1p5.csv"]
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "covariance"
    assert man["config"]["domain"]["level"] == 3
    header = (out / files[0]).read_text().splitlines()[0]
    assert header == "y,C_x0_y"


def test_cli_covariance_off_node_slice_prints_one_note(tmp_path, capsys):
    # an off-node slice is one plain line on stderr, not a Python warning with
    # its source line, and the manifest records the node each moved slice used
    out = tmp_path / "cov"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run(["covariance", "--level", "4", "--slices", "0.1,0.125", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == (
        "note: slice location 0.1 is not a node; using the node at 0.125\n"
    )
    man = json.loads((out / "manifest.json").read_text())
    assert man["snapped_slices"] == [{"requested": 0.1, "node": 0.125}]
    snapped_row = (out / "covariance_x0p1.csv").read_bytes()
    assert snapped_row == (out / "covariance_x0p125.csv").read_bytes()
    on_node = tmp_path / "on_node"
    assert _run(["covariance", "--level", "3", "--slices", "0", "--out", str(on_node)]) == 0
    assert capsys.readouterr().err == ""
    assert "snapped_slices" not in json.loads((on_node / "manifest.json").read_text())


def test_cli_covariance_slices_are_rows_of_the_written_matrix(tmp_path):
    # with vwm1, each slice holds the row of the written matrix at its node
    out = tmp_path / "cov"
    slices = (-1.5, 0.013, 1.5)
    assert _run(["covariance", "--level", "4", "--profile", "step", "--s-lower", "0.35",
                 "--s-upper", "0.85", "--slices", ",".join(map(str, slices)),
                 "--outputs.formats", '["csv","vwm1"]', "--out", str(out)]) == 0
    c, side = fileio.read_matrix(out / "covariance.vwm1")
    assert np.array_equal(c, c.T)
    assert "config" in side and "quadrature" in side
    man = json.loads((out / "manifest.json").read_text())
    assert str(out / "covariance.vwm1") in man["outputs"]
    cfg = load_config(overrides={"domain.level": 4})
    cfg.check_command("covariance")
    coords = cfg.meshes[0].interior_coords
    for x0 in slices:
        lines = (out / slice_file(x0)).read_text().splitlines()
        ys, vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
        assert np.array_equal(ys, coords)
        assert np.array_equal(vals, c[int(np.argmin(np.abs(coords - x0)))]), x0


def test_cli_assemble_writes_dense_masses(tmp_path):
    # M and A1 are held sparse; their .vwm1 files hold the dense matrices
    out = tmp_path / "asm"
    assert _run(["assemble", "--level", "3", "--out", str(out)]) == 0
    cfg = load_config(overrides={"domain.level": 3})
    cfg.check_command("assemble")
    mesh, = cfg.meshes
    h, n = mesh.h, mesh.interior_node_count
    m_ref = (np.diag(np.full(n, 2 * h / 3)) + np.diag(np.full(n - 1, h / 6), 1)
             + np.diag(np.full(n - 1, h / 6), -1))
    m_ref[0, 0] = m_ref[-1, -1] = h / 3
    assert np.array_equal(fileio.read_matrix(out / "mass.vwm1")[0], m_ref)
    man = json.loads((out / "manifest.json").read_text())
    rule = gauss_legendre_01(man["system"]["quadrature"]["n_disjoint"])
    a1_ref = assemble_weighted_mass(mesh, cfg.ctx, rule).toarray()
    assert np.array_equal(fileio.read_matrix(out / "weighted_mass.vwm1")[0], a1_ref)


def test_cli_deterministic_rerun_bitwise(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert _run(["sample", "--level", "3", "--m", "5", "--seed", "99",
                     "--out", str(out)]) == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()


def test_cli_sample_zero_is_ok(tmp_path):
    out = tmp_path / "s0"
    assert _run(["sample", "--level", "3", "--m", "0", "--out", str(out)]) == 0
    lines = (out / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "node_x"


def test_cli_converge(tmp_path):
    out = tmp_path / "conv"
    code = _run([
        "converge", "--levels", "4,3,2", "--m", "20", "--profile", "constant",
        "--s", "0.5", "--out", str(out),
    ])
    assert code == 0
    rep = json.loads((out / "rate_report.json").read_text())
    assert "r_hat" in rep and np.isfinite(rep["r_hat"])
    assert rep["m"] == 20
    assert (out / "per_sample_errors.csv").exists()


def test_cli_assemble_and_matrix_export(tmp_path):
    out = tmp_path / "asm"
    assert _run(["assemble", "--level", "2", "--out", str(out)]) == 0
    a, sidecar = fileio.read_matrix(out / "stiffness.vwm1")
    assert a.shape[0] == sidecar["mesh"]["n_interior"]
    assert sidecar["config"]["kernel"]["kappa"] == 2.5
    m, _ = fileio.read_matrix(out / "mass.vwm1")
    assert np.allclose(m, m.T)


def test_cli_matern(tmp_path):
    out = tmp_path / "mat"
    assert _run(["matern", "--level", "3", "--out", str(out)]) == 0
    lines = (out / "matern.csv").read_text().strip().splitlines()
    assert lines[0] == "r,matern_cov"
    first = [float(t) for t in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == pytest.approx(0.2, rel=1e-12)


def test_cli_kernel_check(tmp_path):
    out = tmp_path / "kc"
    code = _run(["kernel-check", "--profile", "step",
                 "--s-lower", "0.35", "--s-upper", "0.85", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "kernel_check.json").read_text())
    assert payload["passed"] is True
    assert payload["two_regime"]["near"]["min"] > 0


def test_cli_config_errors_exit_1(tmp_path, capsys):
    assert _run(["covariance", "--domain.r_int", "2.7", "--level", "1",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert _run(["covariance", "--no.such.key", "1",
                 "--out", str(tmp_path / "y")]) == 1


LOAD_TIME_ERRORS = [
    (["covariance", "--convergence.norm", "bogus"], "convergence.norm"),
    (["covariance", "--slices", "9"], "slices.x0"),
    (["converge", "--levels", "4,3"], "convergence.levels"),
    (["assemble", "--quadrature.n_override", "99"], "quadrature.n_override"),
    (["covariance", "--outputs.formats", '["xml"]'], "outputs.formats"),
    (["converge", "--m", "0"], "sampling.m"),
]


# Malformed argvs; the common flags go first, so that these flags win.
FRONT_END_ERRORS = {
    "unknown-command": (["bogus"], "command"),
    "dangling-flag": (["sample", "--level"], "--level"),
    "levels-item": (["converge", "--levels", "5,x,3"], "convergence.levels"),
    "levels-gap": (["converge", "--levels", "5,3,2"], "convergence.levels"),
    "slices-item": (["covariance", "--slices", "a"], "slices.x0"),
    # two locations with one file tag would write one file
    "slices-shared-tag": (["covariance", "--slices", "1.0000001,1.0000002,0.5"], "slices.x0"),
    "slices-repeated": (["covariance", "--slices", "0,0"], "slices.x0"),
    "domain-scalar": (["sample", "--domain", "3"], "'domain'"),
    "sampling-scalar": (["sample", "--sampling", "5"], "'sampling'"),
    "convergence-scalar": (["sample", "--convergence", "7"], "'convergence'"),
    "out-not-string": (["sample", "--out", "5"], "outputs.directory"),
    "profile-key-typo": (["matern", "--profile", "step", "--s-lower", "0.35",
                          "--s-upper", "0.85", "--profile.sigmaa", "2"], "profile.sigmaa"),
    "profile-path-list": (["matern", "--profile", "tabulated",
                           "--profile.path", '["x,s", "0,0.5", "1,0.6"]'], "profile.path"),
    # JSON true / false are no numbers
    "kappa-boolean": (["matern", "--kappa", "true"], "'kernel.kappa'"),
    "level-boolean": (["matern", "--level", "true"], "'domain.level'"),
    "m-boolean": (["sample", "--m", "false"], "'sampling.m'"),
    "sigma-boolean": (["matern", "--profile", "gaussian_bump", "--s-lower", "0.35",
                       "--s-upper", "0.85", "--profile.sigma", "true"], "'profile.sigma'"),
    # the Whittle variance of matern needs an order above 1/4
    "matern-order-constant": (["matern", "--profile", "constant", "--s", "0.2"], "'profile.s'"),
    "matern-order-step": (["matern", "--profile", "step", "--s-lower", "0.1",
                           "--s-upper", "0.3"], "'profile' block"),
    # the generator takes seeds in [0, 2**128)
    "seed-negative": (["sample", "--seed", "-1"], "'sampling.seed'"),
    "seed-2-128": (["sample", "--seed", str(2**128)], "'sampling.seed'"),
    # exp(-(r_int / sigma)**2) overflows in the profile
    "sigma-overflow": (["sample", "--profile", "gaussian_bump", "--s-lower", "0.3",
                        "--s-upper", "0.6", "--profile.sigma", "1e-300"], "sigma=1e-300"),
}


@pytest.mark.parametrize(
    "argv, key", LOAD_TIME_ERRORS + list(FRONT_END_ERRORS.values()),
    ids=[k for _, k in LOAD_TIME_ERRORS] + list(FRONT_END_ERRORS),
)
def test_cli_invalid_config_fails_at_load(tmp_path, capsys, argv, key):
    out = tmp_path / "x"
    assert _run(["--level", "3", "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err
    assert "Traceback" not in err
    assert not out.exists()  # failed before any output or compute


@pytest.mark.parametrize("argv, message", [
    (["matern", "--level", "2000"], "invalid 'domain' block: level=2000"),
    (["assemble", "--level", "64"], "invalid 'domain' block: level=64"),
    (["converge", "--levels", "64,63,62"], "invalid 'convergence.levels': level=64"),
    (["converge", "--levels", "2000,1999,1998"], "invalid 'convergence.levels': level=2000"),
])
def test_level_over_cap_fails_at_load(tmp_path, capsys, argv, message):
    out = tmp_path / "x"
    assert _run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_domain_dependent_keys_checked_only_where_read(tmp_path):
    # the default slices lie outside D = [-1, 1]; only covariance reads them
    small = ["--domain.r_int", "1", "--domain.r_ext", "2", "--level", "3"]
    assert _run(["sample", *small, "--m", "2", "--out", str(tmp_path / "s")]) == 0
    assert _run(["covariance", *small, "--out", str(tmp_path / "c")]) == 1
    # level 0 gives h = 1, of which r_int = 0.5 is no multiple
    half = ["--domain.r_int", "0.5", "--domain.r_ext", "1", "--levels", "2,1,0"]
    assert _run(["matern", *half, "--slices", "0", "--out", str(tmp_path / "m")]) == 0
    assert _run(["converge", *half, "--out", str(tmp_path / "v")]) == 1


def test_converge_reads_its_levels_not_domain_level(tmp_path, capsys):
    out = tmp_path / "v"
    assert _run(["converge", "--level", "12", "--levels", "4,3,2", "--m", "3",
                 "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert set(man["timings_s"]) == {"assemble", "converge", "write"}
    assert json.loads((out / "rate_report.json").read_text())["levels"] == [4, 3, 2]
    # the other commands still read domain.level
    assert _run(["sample", "--level", "12", "--m", "3", "--out", str(tmp_path / "s")]) == 1
    assert "invalid 'domain' block: level=12" in capsys.readouterr().err


def test_converge_assembly_failure_names_level(tmp_path, capsys, monkeypatch):
    real = cli.assemble_stiffness

    def failing(mesh, ctx, n):
        if mesh.level == 3:
            raise cli.AssemblyError("non-finite disjoint block for element pair (0, 2)")
        return real(mesh, ctx, n)

    monkeypatch.setattr(cli, "assemble_stiffness", failing)
    out = tmp_path / "v"
    assert _run(["converge", "--levels", "4,3,2", "--m", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "level 3" in err
    assert "element pair (0, 2)" in err
    assert not (out / "rate_report.json").exists()


@pytest.mark.parametrize("argv, output", [
    (["assemble"], "stiffness.vwm1"),
    (["sample", "--m", "2"], "samples.csv"),
    (["covariance"], "covariance_x0.csv"),
    (["converge", "--levels", "4,3,2", "--m", "3"], "rate_report.json"),
])
def test_non_finite_stiffness_exits_2(tmp_path, capsys, monkeypatch, argv, output):
    # an inf in A1 reaches A unchecked by assembly; A is checked once, where
    # it is factored (assemble checks the matrix it writes)
    real = assembly.assemble_weighted_mass

    def poisoned(*args):
        a1 = real(*args)
        a1.data[0] = np.inf
        return a1

    monkeypatch.setattr(assembly, "assemble_weighted_mass", poisoned)
    out = tmp_path / "x"
    assert _run([*argv, "--level", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "stiffness" in err
    assert "non-finite" in err and err.count("\n") == 1
    assert not (out / output).exists()


@pytest.mark.parametrize("argv, stage, output", [
    (["covariance", "--mu", "1e-200"], "covariance", "covariance_x0.csv"),
    (["sample", "--m", "2", "--mu", "1e-320"], "sampling", "samples.csv"),
    (["converge", "--levels", "4,3,2", "--m", "3", "--mu", "1e-320"], "level 4",
     "rate_report.json"),
])
def test_non_finite_results_exit_2(tmp_path, capsys, argv, stage, output):
    # mu**2 underflows to 0, or b / mu overflows
    out = tmp_path / "x"
    assert _run([*argv, "--level", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and stage in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (out / output).exists()


def test_narrow_bump_samples_without_warnings(tmp_path, capsys):
    # (4 / sigma)**2 overflows; the profile squares x / sigma only on [-r_int, r_int]
    out = tmp_path / "narrow"
    assert _run(["sample", "--level", "3", "--m", "2", "--profile", "gaussian_bump",
                 "--s-lower", "0.3", "--s-upper", "0.6", "--profile.sigma", "2.5e-154",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "samples.csv").exists()


def test_cli_level_zero_runs(tmp_path):
    # level 0 has h = 1; its quadrature order is n_min
    out = tmp_path / "s"
    assert _run(["sample", "--level", "0", "--m", "2", "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["system"]["quadrature"]["n_disjoint"] == 4
    out = tmp_path / "v"
    assert _run(["converge", "--levels", "2,1,0", "--m", "3", "--out", str(out)]) == 0
    report = json.loads((out / "rate_report.json").read_text())
    assert math.isfinite(report["r_hat"])


def test_cli_thread_settings_are_gone(tmp_path, capsys):
    for argv, key in ((["--assembly.threads", "2"], "assembly.threads"),
                      (["--threads", "2"], "threads")):
        assert _run(["assemble", "--level", "2", *argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err


def test_cli_dotted_override_equals_syntax(tmp_path):
    out = tmp_path / "eq"
    assert _run(["matern", "--kernel.kappa=1.5", "--level", "3",
                 "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["kernel"]["kappa"] == 1.5


@pytest.mark.parametrize("argv", [
    ["sample", "--m", "3"],
    ["covariance", "--slices", "0"],
    ["converge", "--levels", "4,3,2", "--m", "3"],
])
def test_manifest_times_the_data_writes(tmp_path, argv):
    out = tmp_path / "o"
    assert _run([*argv, "--level", "4", "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["timings_s"]["write"] >= 0


def test_cli_manifest_reproducibility_fields(tmp_path):
    out = tmp_path / "man"
    assert _run(["sample", "--level", "3", "--m", "2", "--seed", "7",
                 "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == 7
    assert man["config"]["sampling"]["seed"] == 7
    assert "assemble" in man["timings_s"]
    assert any(p.endswith("samples.csv") for p in man["outputs"])


def test_cli_converge_honours_quadrature_order_bounds(tmp_path):
    orders = {}
    for flags in ([], ["--quadrature.n_max", "4"],
                  ["--quadrature.n_min", "7", "--quadrature.n_max", "7"]):
        out = tmp_path / f"conv{len(flags)}"
        code = _run([
            "converge", "--levels", "6,5,4", "--m", "10", "--profile", "constant",
            "--s", "0.5", "--out", str(out), *flags,
        ])
        assert code == 0
        rep = json.loads((out / "rate_report.json").read_text())
        orders[len(flags)] = rep["config"]["quad_n_per_level"]
    assert max(orders[0].values()) > 4  # the bound below binds
    assert orders[2] == {"6": 4, "5": 4, "4": 4}
    assert orders[4] == {"6": 7, "5": 7, "4": 7}


@pytest.mark.parametrize("flags, knob", [
    ([], {}),
    (["--quadrature.c", "2"], {"c": 2.0}),
    (["--quadrature.n_max", "9"], {"n_max": 9}),
    (["--quadrature.target_rate", "1.5"], {"target_rate": 1.5}),
    (["--quadrature.n_override", "5"], {"n_override": 5}),
])
def test_cli_quadrature_knobs_reach_the_order(tmp_path, flags, knob):
    # on this profile each knob moves the order at level 5 off the default 11
    profile = ["--profile", "step", "--s-lower", "0.85", "--s-upper", "0.95"]
    rule = {"c": 1.0, "target_rate": None, "n_min": 4, "n_max": 64, **knob}
    override = rule.pop("n_override", None)
    expected = {str(level): override or quadrature_order(
        build_uniform(3.0, 4.0, level).h, 0.95, 0.85, **rule) for level in (5, 4, 3)}
    assert (expected["5"] == 11) == (not flags)
    out = tmp_path / "asm"
    assert _run(["assemble", "--level", "5", *profile, *flags, "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["system"]["quadrature"]["n_disjoint"] == expected["5"]
    out = tmp_path / "conv"
    assert _run(["converge", "--levels", "5,4,3", "--m", "2", *profile, *flags,
                 "--out", str(out)]) == 0
    report = json.loads((out / "rate_report.json").read_text())
    assert report["config"]["quad_n_per_level"] == expected


def test_cli_flags_before_command_and_help(tmp_path, capsys):
    out = tmp_path / "pre"
    assert _run(["--level", "3", "--out", str(out), "matern"]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["domain"]["level"] == 3
    for flag in ("--help", "-h"):
        assert _run(["sample", flag]) == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: varmatern") and "--s-lower" in text


def test_profile_rule_same_for_file_and_flags(tmp_path):
    path = tmp_path / "step.json"
    path.write_text(json.dumps({"profile": {"kind": "step", "s_lower": 0.35,
                                            "s_upper": 0.85}}))
    # same kind: the flags merge onto the file's block
    cfg = load_config(path, {"profile.s_lower": 0.4})
    assert (cfg.profile.kind, cfg.profile.s_lower, cfg.profile.s_upper) == ("step", 0.4, 0.85)
    # another kind replaces it, whatever the order of the flags
    cfg = load_config(path, {"profile.s": 0.3, "profile.kind": "constant"})
    assert cfg.profile.to_dict() == {"kind": "constant", "s_lower": 0.3,
                                     "s_upper": 0.3, "s": 0.3}
    # a file's block merges onto the defaults by the same rule
    path.write_text(json.dumps({"profile": {"s": 0.3}}))
    assert load_config(path).profile.params["s"] == 0.3
    with pytest.raises(ConfigError, match="'profile.s_lower'"):
        load_config(path, {"profile.kind": "step"})


def test_manifest_echo_loads_back_as_config(tmp_path):
    out = tmp_path / "echo"
    assert _run(["matern", "--profile", "oscillatory_ramp", "--profile.a", "0.44075",
                 "--profile.b", "0.7594", "--profile.omega", "0.15", "--level", "3",
                 "--out", str(out)]) == 0
    echo = json.loads((out / "manifest.json").read_text())["config"]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo))
    assert load_config(path).echo() == echo


def test_string_keys_type_checked():
    with pytest.raises(ConfigError, match="outputs.directory"):
        load_config(overrides={"outputs.directory": 5})
    with pytest.raises(ConfigError, match="outputs.formats"):
        load_config(overrides={"outputs.formats": [["csv"]]})
    with pytest.raises(ConfigError, match="convergence.norm"):
        load_config(overrides={"convergence.norm": ["quadrature"]})


def test_largest_seed_is_kept_exactly():
    # an integer key beyond 2**53 is no float, but still an int
    assert load_config(overrides={"sampling.seed": 2**128 - 1}).seed == 2**128 - 1


def test_non_finite_numbers_rejected():
    for key, val in (("kernel.kappa", float("nan")), ("domain.level", float("inf")),
                     ("sampling.m", float("-inf")), ("domain.r_int", float("inf"))):
        with pytest.raises(ConfigError, match=key):
            load_config(overrides={key: val})
