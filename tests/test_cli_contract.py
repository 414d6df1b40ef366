"""The exit-code contract of the CLI under hostile arguments.

Argument vectors for `mc`, `identity11`, `phi2`, `check`, `gallery`,
`absdist`, `classify`, `order` and `regions` are drawn from valid, negative,
non-finite, huge and malformed values and run in-process through `cli.main`.
Their distributions are gallery ids under and far over the atom budget and
distribution files, valid and malformed.  Whatever the input: no exception
escapes, the exit code is 0, 1 or 2, exit 2 comes with an `error:` line on
stderr, and exit 1 only with a failing report on stdout.  Valid sample sizes,
grids and laws are kept small and every huge one is far over its budget, so
each example runs quickly.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochex.cli import CONDITION_NAMES, EXIT_CHECK_FAILED, EXIT_USAGE, main
from stochex.contlab import MC_CHECKS

INTS = ["x", "1.5", "0x10", "nan", "-1", "100000000000000", str(10**30)]
FLOATS = ["x", "", "nan", "inf", "-inf", "1e400", "-1", "1e308", "5e-324"]
RATIONALS = ["x", "", "1/0", "1/-2", "1.5", "-1/2", str(10**30)]

# Distribution files; "@name" in an argument vector stands for the file's path.
JSON_FILES = {
    "dim1.json": '{"dim": 1, "atoms": [{"x": ["-1"], "p": "1/3"}, {"x": ["2"], "p": "2/3"}]}',
    "dim2.json": '{"dim": 2, "atoms": [{"x": ["1", "0"], "p": "1/2"}, '
                 '{"x": ["0", "-1/2"], "p": "1/2"}]}',
    "truncated.json": '{"dim": 2, "atoms": [{"x": ["1", "0"], "p": "1"}',
    "total.json": '{"dim": 1, "atoms": [{"x": ["1"], "p": "1/2"}]}',
    "negative.json": '{"dim": 1, "atoms": [{"x": ["1"], "p": "-1"}, {"x": ["2"], "p": "2"}]}',
    "zero-den.json": '{"dim": 1, "atoms": [{"x": ["1/0"], "p": "1"}]}',
    "dim0.json": '{"dim": 0, "atoms": [{"x": [], "p": "1"}]}',
    "short-point.json": '{"dim": 2, "atoms": [{"x": ["1"], "p": "1"}]}',
    "float-coordinate.json": '{"dim": 1, "atoms": [{"x": [0.5], "p": "1"}]}',
    "not-a-law.json": "[1, 2]",
}


def _value(valid, bad):
    """A valid value or a bad one, about equally often."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(bad))


def _option(name: str, values):
    """Nothing, or `name` followed by a value."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _argv(head, *parts):
    return st.tuples(*parts).map(lambda ps: [*head, *(a for p in ps for a in p)])


def _dists(valid):
    """A distribution argument: a small law, or one far over the atom budget,
    a non-discrete id, a missing file or a malformed one."""
    return _value(valid, [
        "gallery://axes:1000000", "gallery://draws-n:-5,-4,-3,-2,-1,1,2,3,4,5;10",
        "gallery://iid-sym:tri,1000000000", "gallery://alt-signs:100000",
        "gallery://bvn:1.5,0.3", "@missing.json",
        *(f"@{name}" for name in JSON_FILES if name not in ("dim1.json", "dim2.json")),
    ])


DISTS = _dists(["gallery://axes:3", "gallery://sci-not-re", "gallery://remark-asym",
                "gallery://draws-n:-2,-1,1,2;3", "gallery://iid-sym:tri,3", "@dim2.json"])
DISTS1 = _dists(["@dim1.json", "gallery://sci-not-re"])

COMMANDS = {
    "mc": _value(
        ["bvn:1.5,0.3", "bvn:0.0,0.4", "intraclass:3,-0.3", "elliptical:t5,0,0,1,2,0.3",
         "mlr:normal,1,2"],
        ["mlr:cauchy,2,1", "axes:3", "gauss-seq:1,4", "bvn:nan,0", "no-such"],
    ).flatmap(lambda model: _argv(
        ["mc", model],
        # Always given, and small when valid: the default is 10^5 samples.
        _value(["1000", "1500"], ["999", "0", *INTS]).map(lambda n: ["--n", n]),
        _option("--seed", _value(["0", "4"], INTS)),
        _option("--alpha", _value(["0.01", "0.5"], ["0", "1", *FLOATS])),
        _option("--check", st.sampled_from([*MC_CHECKS, "bogus"])),
    )),
    "identity11": _argv(
        ["identity11"],
        _option("--steps", _value(["1", "2", "5"], ["0", "100000000", *INTS])),
        _option("--xmax", _value(["0", "3"], FLOATS)),
        _option("--rhos", _value(["0", "-0.95,0.5", "-1e-3"], ["-1,1", "2", "x,1", *FLOATS])),
    ),
    "phi2": _argv(
        ["phi2"],
        *(_value(["0", "1.5", "-2"], ["5e307", "-1e200", *FLOATS]).map(lambda v: [v])
          for _ in "xy"),
        _value(["0.3", "-0.95", "0.99"], ["1", "-1", *FLOATS]).map(lambda v: [v]),
    ),
    "check": _value(
        ["gallery://axes:3", "gallery://sci-not-re", "gallery://remark-asym",
         "gallery://draws-2:-1,1"],
        ["gallery://bvn:1.5,0.3", "gallery://axes:0"],
    ).flatmap(lambda dist: _argv(
        ["check", dist],
        st.sampled_from([*CONDITION_NAMES, "bogus"]).map(lambda c: ["--condition", c]),
        _option("--k", _value(["1", "2", "3"], ["0", *INTS])),
        _option("--l", _value(["1", "2", "3"], ["0", *INTS])),
    )),
    "gallery": _argv(
        ["gallery"],
        st.one_of(st.just([]), _value(["axes:3", "sci-not-re", "bvn:1.5,0.3", "mlr:normal,1,2"],
                                      ["axes:0", "bvn:nan,0", "axes:1e400", "no-such"]).map(
            lambda entry_id: [entry_id])),
        st.sampled_from([[], ["--list"]]),
        st.sampled_from([[], ["--emit"]]),
    ),
    "absdist": DISTS.flatmap(lambda dist: _argv(
        ["absdist", dist],
        _option("--stat", st.sampled_from(["max", "min", "mean"])),
        _value(["1", "2"], ["0", "7", *INTS]).map(lambda n: ["--prefix", n]),
        st.sampled_from([[], ["--csv"], ["--csv", "--decimal"], ["--decimal"]]),
    )),
    "classify": DISTS.map(lambda dist: ["classify", dist]),
    "order": st.tuples(DISTS1, DISTS1).flatmap(lambda ab: _argv(
        ["order", *ab], st.sampled_from([[], ["--absolute"]]))),
    "regions": DISTS.flatmap(lambda dist: _argv(
        ["regions", dist],
        _value(["0", "1/2", "3"], RATIONALS).map(lambda x: ["--x", x]),
    )),
}


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("dists")
    for name, text in JSON_FILES.items():
        (path / name).write_text(text)
    return path


def _failing(report) -> bool:
    if isinstance(report, dict):
        return (report.get("pass") is False or report.get("holds") is False
                or any(not e["pass"] for e in report.get("expectations", ())))
    return False


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_exit_code_contract(command, json_dir, data):
    argv = data.draw(COMMANDS[command], label="argv")
    argv = [str(json_dir / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error:"), err.getvalue()
    elif "--csv" not in argv:
        report = json.loads(out.getvalue())
        assert code != EXIT_CHECK_FAILED or _failing(report), report
