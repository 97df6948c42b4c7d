"""The command-line flags, fuzzed in process.

Every subcommand runs through ``cli.main`` with each of its integer
flags (``--n``, ``--g``, ``--k``, ``--degree``, ``--seed``, ``--order``,
``--side``, ``--max-order``) drawn from -3 to 12, on a fixed 3 x 3 grid
and a fixed 8/1/1 grid-plus-roots instance.  Whatever the values, the
command must return a documented exit code (0, 1, 2, 3 or 64) and never
let an exception escape ``main``.  A non-zero code comes with a JSON
error document on stderr, or, for a report or separation that is the
command's answer (exit 1 or 2), with that one JSON document on stdout.

The example count is the default profile's; CI runs this module again
under the ``cli-fuzz`` profile (``tests/conftest.py``).
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridroots.cli import main

SMALL = st.integers(-3, 12)
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


def commands(d):
    """Strategies for every subcommand's argument list."""
    inst = d / "inst"
    problem = ["--graph", inst / "graph.json", "--roots", inst / "roots.json",
               "--model", inst / "model.json"]
    graphs = st.sampled_from([d / "grid.json", inst / "graph.json"])
    kinds = st.sampled_from(["identity-grid", "grid-plus-roots", "random-attachment"])
    optional = st.none() | SMALL

    def command(*words, **flags):
        """``words`` (values or strategies), then ``--flag value`` for each
        flag whose drawn value is not None."""
        def argv(drawn):
            fixed, values = drawn
            out = list(fixed)
            for name, value in zip(flags, values):
                if value is not None:
                    out += [f"--{name.replace('_', '-')}", value]
            return out

        parts = [w if isinstance(w, st.SearchStrategy) else st.just(w) for w in words]
        return st.tuples(st.tuples(*parts), st.tuples(*flags.values())).map(argv)

    return st.one_of(
        command("gen-grid", "--out", d / "out.json", n=SMALL),
        command("gen-instance", "--kind", kinds, "--out", d / "gen",
                n=SMALL, g=SMALL, k=SMALL, seed=optional, degree=optional),
        command("validate-model", "--graph", inst / "graph.json", "--model", inst / "model.json"),
        command("find-separation", *problem, max_order=SMALL),
        command("menger", "--graph", graphs, "--sources", d / "sources.json",
                "--targets", d / "targets.json", k=SMALL),
        command("extract", *problem, "--out", d / "run", g=SMALL, k=SMALL),
        command("check-tangle", "--graph", graphs, order=SMALL),
        command("oracle", "separations", "--graph", graphs, max_order=SMALL),
        command("oracle", "tangles", "--graph", graphs, order=SMALL),
        command("oracle", "grid-model", "--graph", graphs, side=SMALL),
        command("oracle", "row-property", *problem, g=SMALL, k=SMALL, max_order=optional),
    )


@settings(deadline=None)
@given(data=st.data())
def test_every_flag_value_gives_a_documented_exit(files, data):
    argv = [str(part) for part in data.draw(commands(files))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in EXIT_CODES, (argv, code)
    if out:
        json.loads(out)
    if code == 0:
        assert err == "", argv
    elif err or code not in (1, 2):
        assert "error" in json.loads(err), argv
    else:
        assert out, argv
