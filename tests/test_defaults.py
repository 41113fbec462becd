"""What a fresh interpreter with no ``REPRO_*`` variable set runs.

The defaults are the measured fast path (vectorized join kernel over
the tuple backend) and ``import repro`` stays light: the graph and
array libraries are conveniences of ``repro network`` and the test
suite, never a cost of evaluating a program.  Both are properties of a
*fresh* process, so each test starts one.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code):
    environment = {key: value for key, value in os.environ.items()
                   if not key.startswith("REPRO_")}
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), environment.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=environment,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_defaults_are_the_fast_path():
    assert _fresh_python(
        "import json\n"
        "from repro.engine import join_kernel\n"
        "from repro.facts import fact_backend\n"
        "print(json.dumps([join_kernel(), fact_backend()]))\n"
    ) == ["vectorized", "tuple"]


def test_import_budget_excludes_networkx_and_numpy():
    # Evaluating, rewriting and simulating included: none of them may
    # pull the libraries in behind the import's back.
    loaded = _fresh_python(
        "import json, sys\n"
        "import repro, repro.parallel\n"
        "from repro.parallel import example3_scheme, run_parallel\n"
        "program = repro.parse_program(\n"
        "    'anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).')\n"
        "database = repro.Database.from_facts({'par': [(1, 2), (2, 3)]})\n"
        "repro.evaluate(program, database)\n"
        "run_parallel(example3_scheme(program, (0, 1)), database)\n"
        "print(json.dumps(sorted(\n"
        "    {name.split('.')[0] for name in sys.modules}\n"
        "    & {'networkx', 'numpy'})))\n")
    assert loaded == []
