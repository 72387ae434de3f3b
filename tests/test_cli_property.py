"""Property test of the front end: any argv built from the CLI's vocabulary
either resolves to a checked configuration or fails with one of the errors
that main reports as a configuration error (exit 1). Nothing is computed:
only argv parsing, the config merge and the load-time checks run."""

from hypothesis import given, settings
from hypothesis import strategies as st

from varmatern import cli
from varmatern.config import ConfigError, default_config_dict, load_config
from varmatern.mesh import MeshError
from varmatern.smoothness import ProfileError

_DEFAULTS = default_config_dict()
_PROFILE_KEYS = ["kind", "s", "s_lower", "s_upper", "sigma", "r_int", "a", "b",
                 "omega", "x", "path", "sigmaa"]
_FLAGS = sorted({
    *cli._ALIASES, *_DEFAULTS, "config", "no.such.key", "", "kernel.", ".kernel",
    *(f"{block}.{key}" for block in _DEFAULTS for key in _DEFAULTS[block]),
    *(f"profile.{key}" for key in _PROFILE_KEYS),
})

# Valid flag sets, one per profile kind; random flags are added to one of
# them so that most argvs get past the parser to the config checks.
_BASES = [
    ["--level", "3"],
    ["--profile", "step", "--s-lower", "0.35", "--s-upper", "0.85", "--level", "4"],
    ["--profile", "gaussian_bump", "--s-lower", "0.35", "--s-upper", "0.85",
     "--levels", "4,3,2"],
    ["--profile", "oscillatory_ramp", "--profile.a", "0.44", "--profile.b", "0.76",
     "--profile.omega", "0.15", "--slices", "-1,1"],
    ["--profile", "tabulated", "--profile.x", "[-1,1]", "--profile.s", "[0.4,0.6]"],
]

# Numbers kept small: a level or radius from here builds at most a few
# thousand mesh nodes. Numbers and other values are drawn equally often.
_VALUES = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "4", "6", "-1", "0.5", "0.35", "0.85",
                     "2.5", "1e999", "NaN", "-Infinity"]),
    st.sampled_from([
        "null", "true", "[]", "[1]", "[0.4,0.6]", '["csv"]', '["xml"]', '[["csv"]]',
        "{}", '{"kind":"step"}', '{"s":0.3}', "x", "", "5,x,3", "4,3,2", "-1.5,0,1.5",
        "a,b", ",", "constant", "step", "gaussian_bump", "oscillatory_ramp",
        "tabulated", "nosuch", "quadrature", "mass_matrix", "/nonexistent/t.csv",
    ]),
)


def _flag():
    flag = st.sampled_from(_FLAGS)
    spaced = st.tuples(flag, _VALUES).map(lambda kv: [f"--{kv[0]}", kv[1]])
    joined = st.tuples(flag, _VALUES).map(lambda kv: [f"--{kv[0]}={kv[1]}"])
    return st.one_of(spaced, joined)


@st.composite
def _argvs(draw):
    base = draw(st.sampled_from(_BASES))
    groups = [base[i:i + 2] for i in range(0, len(base), 2)]
    groups += draw(st.lists(_flag(), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        groups.append([f"--{draw(st.sampled_from(_FLAGS))}"])  # dangling
    groups = draw(st.permutations(groups))
    # mostly one command; sometimes none, two, or junk
    bare = draw(st.sampled_from([[c] for c in cli.COMMANDS] + [[], ["bogus"], ["-x"]]))
    if draw(st.integers(0, 7)) == 0:
        bare.append(draw(st.sampled_from(cli.COMMANDS)))
    for word in bare:
        groups.insert(draw(st.integers(0, len(groups))), [word])
    return [tok for group in groups for tok in group]


@settings(max_examples=1000, deadline=None)
@given(_argvs())
def test_front_end_fails_only_with_config_errors(argv):
    try:
        command, config_path, overrides = cli._parse_args(argv)
        if command is None:
            return
        cfg = load_config(config_path, overrides)
        cfg.check_command(command)
    except (ConfigError, ProfileError, MeshError) as exc:
        assert str(exc)
        return
    assert command in cli.COMMANDS
