"""The command-line flags, fuzzed in process.

Every subcommand runs through ``cli.main`` with each of its integer
flags (``--n``, ``--g``, ``--k``, ``--degree``, ``--seed``, ``--order``,
``--side``, ``--max-order``) drawn from -3 to 12, on a fixed 3 x 3 grid
and a fixed 8/1/1 grid-plus-roots instance.  Whatever the values, the
command must return a documented exit code (0, 1, 2, 3 or 64) and never
let an exception escape ``main``.  A non-zero code comes with a JSON
error document on stderr, or, for a report or separation that is the
command's answer (exit 1 or 2), with that one JSON document on stdout.
A second fuzz draws each flag as text that is no integer, or leaves it
out, as often as it draws an integer: a text value, or a required flag
left out, is malformed input, exit 64 with a ``malformed-input``
document.

The example counts are the default profile's; CI runs this module again
under the ``cli-fuzz`` profile (``tests/conftest.py``).
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridroots.cli import main

SMALL = st.integers(-3, 12)
# A flag left out (None) or text that is no integer.
BAD = st.sampled_from([None, "x", "", " ", "1.5", "3e2", "nan", "0x4", "-", "--k"])
EXIT_CODES = {0, 1, 2, 3, 64}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-fuzz")
    with redirect_stdout(io.StringIO()):
        assert main(["gen-grid", "--n", "3", "--out", str(d / "grid.json")]) == 0
        assert main(["gen-instance", "--kind", "grid-plus-roots", "--n", "8", "--g", "1",
                     "--k", "1", "--seed", "0", "--out", str(d / "inst")]) == 0
    (d / "sources.json").write_text('{"vertices": [1, 2]}', encoding="utf-8")
    (d / "targets.json").write_text('{"vertices": [8, 9]}', encoding="utf-8")
    return d


def commands(d, value):
    """Strategies for every subcommand's argument list, each with whether it
    is malformed; ``value`` draws the integer flags' values."""
    inst = d / "inst"
    problem = ["--graph", inst / "graph.json", "--roots", inst / "roots.json",
               "--model", inst / "model.json"]
    graphs = st.sampled_from([d / "grid.json", inst / "graph.json"])
    kinds = st.sampled_from(["identity-grid", "grid-plus-roots", "random-attachment"])
    maybe = st.none() | value  # an optional flag, left out half the time

    def command(*words, optional=(), **flags):
        """``words`` (values or strategies), then ``--flag value`` for each
        flag whose drawn value is not None, with whether the arguments are
        malformed: a text value, or a flag left out that is not named in
        ``optional``."""
        def argv(drawn):
            fixed, values = drawn
            out, malformed = list(fixed), False
            for name, value in zip(flags, values):
                if value is None:
                    malformed |= name not in optional
                else:
                    out += [f"--{name.replace('_', '-')}", value]
                    malformed |= isinstance(value, str)
            return out, malformed

        parts = [w if isinstance(w, st.SearchStrategy) else st.just(w) for w in words]
        return st.tuples(st.tuples(*parts), st.tuples(*flags.values())).map(argv)

    return st.one_of(
        command("gen-grid", "--out", d / "out.json", n=value),
        command("gen-instance", "--kind", kinds, "--out", d / "gen", optional=("seed", "degree"),
                n=value, g=value, k=value, seed=maybe, degree=maybe),
        command("validate-model", "--graph", inst / "graph.json", "--model", inst / "model.json"),
        command("find-separation", *problem, max_order=value),
        command("menger", "--graph", graphs, "--sources", d / "sources.json",
                "--targets", d / "targets.json", k=value),
        command("extract", *problem, "--out", d / "run", g=value, k=value),
        command("check-tangle", "--graph", graphs, order=value),
        command("oracle", "separations", "--graph", graphs, max_order=value),
        command("oracle", "tangles", "--graph", graphs, order=value),
        command("oracle", "grid-model", "--graph", graphs, side=value),
        command("oracle", "row-property", *problem, optional=("max_order",),
                g=value, k=value, max_order=maybe),
    )


def run(argv) -> tuple[int, str, str]:
    """``main``'s exit code, stdout and stderr for ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(part) for part in argv])
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(data=st.data())
def test_every_flag_value_gives_a_documented_exit(files, data):
    argv, _malformed = data.draw(commands(files, SMALL))
    code, out, err = run(argv)
    assert code in EXIT_CODES, (argv, code)
    if out:
        json.loads(out)
    if code == 0:
        assert err == "", argv
    elif err or code not in (1, 2):
        assert "error" in json.loads(err), argv
    else:
        assert out, argv


@settings(deadline=None)
@given(data=st.data())
def test_malformed_flags_are_malformed_input(files, data):
    argv, malformed = data.draw(commands(files, BAD | SMALL))
    assume(malformed)
    code, out, err = run(argv)
    assert code == 64 and out == "", (argv, code)
    assert json.loads(err)["error"] == "malformed-input", argv


@pytest.mark.parametrize("argv", [
    [],
    ["gen-grid"],
    ["gen-grid", "--n", "x"],
    ["gen-grid", "--n", "3", "--bogus"],
    ["no-such-command"],
    ["oracle", "tangles", "--graph", "g.json"],
    ["extract", "--graph", "g.json", "--roots", "r.json", "--model", "m.json", "--g", "2"],
])
def test_usage_errors_are_malformed_input(argv):
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        assert main(argv) == 64
    doc = json.loads(err.getvalue())
    assert doc["error"] == "malformed-input"
    assert doc["problems"][0].startswith("usage: gridroots")


def test_help_still_exits_zero():
    with redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as exc:
        main(["extract", "--help"])
    assert exc.value.code == 0
    assert out.getvalue().startswith("usage: gridroots extract")
