"""The exit-code contract of the CLI under hostile arguments.

Argument vectors for `mc`, `identity11`, `phi2`, `check` and `gallery` are
drawn from valid, negative, non-finite, huge and malformed values and run
in-process through `cli.main`.  Whatever the input: no exception escapes, the
exit code is 0, 1 or 2, exit 2 comes with an `error:` line on stderr, and exit
1 only with a failing report on stdout.  Valid sample sizes and grids are kept
small and every huge one is far over its budget, so each example runs quickly.
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


def _value(valid, bad):
    """A valid value or a bad one, about equally often."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(bad))


def _option(name: str, values):
    """Nothing, or `name` followed by a value."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _argv(head, *parts):
    return st.tuples(*parts).map(lambda ps: [*head, *(a for p in ps for a in p)])


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
}


def _failing(report) -> bool:
    if isinstance(report, dict):
        return (report.get("pass") is False or report.get("holds") is False
                or any(not e["pass"] for e in report.get("expectations", ())))
    return False


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_exit_code_contract(command, data):
    argv = data.draw(COMMANDS[command], label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error:"), err.getvalue()
    else:
        report = json.loads(out.getvalue())
        assert code != EXIT_CHECK_FAILED or _failing(report), report
