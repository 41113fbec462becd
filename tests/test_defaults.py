"""What a fresh interpreter with no ``REPRO_*`` variable set runs.

The default is the measured fast path (the tuple backend), a bad
backend name is a precise ``ConfigurationError``, and ``import repro``
stays light: the graph and array libraries are conveniences of
``repro network`` and the test suite, never a cost of evaluating a
program.  All are properties of a *fresh* process, so each test starts
one.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code, **variables):
    environment = {key: value for key, value in os.environ.items()
                   if not key.startswith("REPRO_")}
    environment.update(variables)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), environment.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=environment,
                          capture_output=True, text=True, timeout=60)


def _fresh_python(code):
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_defaults_are_the_fast_path():
    assert _fresh_python(
        "import json\n"
        "from repro.facts import fact_backend\n"
        "print(json.dumps(fact_backend()))\n"
    ) == "tuple"


def test_bad_backend_variable_is_a_configuration_error():
    done = _run_fresh("import repro", REPRO_FACT_BACKEND="bogus")
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("repro.errors.ConfigurationError: "
                           "REPRO_FACT_BACKEND='bogus'"), done.stderr
    assert "'columnar', 'tuple'" in last


def test_bad_backend_name_is_a_configuration_error():
    assert _fresh_python(
        "import json\n"
        "from repro.errors import ConfigurationError\n"
        "from repro.facts import fact_backend, set_fact_backend\n"
        "try:\n"
        "    set_fact_backend('x')\n"
        "except ConfigurationError as error:\n"
        "    print(json.dumps([str(error), fact_backend()]))\n"
    ) == ["unknown fact backend 'x': expected one of ['columnar', 'tuple']",
          "tuple"]


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
