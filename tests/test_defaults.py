"""What a fresh interpreter runs, and what no environment can change.

No ``REPRO_*`` environment variable selects an implementation: the
package reads none, so every run takes the one data plane.  And
``import repro`` stays light: the graph and array libraries are test
oracles, never a dependency of the package — a property of a *fresh*
process, so those tests start one.  Nor does the import touch the cyclic
collector: the executors pause it for the length of a run, never as a
side effect of loading a module.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), environment.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=environment,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_no_module_reads_a_repro_variable():
    # Reading a REPRO_* variable needs its name, or the prefix to scan
    # for, spelled in the source: a package that never spells it reads
    # none.
    spelled = sorted(str(path.relative_to(SRC))
                     for path in (SRC / "repro").rglob("*.py")
                     if "REPRO_" in path.read_text())
    assert spelled == []


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


def test_network_analysis_runs_without_networkx(tmp_path):
    # With networkx unimportable, ``repro network`` and the example1
    # scheme (which routes on a dataflow cycle) still work.
    program = tmp_path / "anc.dl"
    program.write_text("anc(X, Y) :- par(X, Y).\n"
                       "anc(X, Y) :- par(X, Z), anc(Z, Y).\n")
    report = _fresh_python(
        "import contextlib, io, json, sys\n"
        "sys.modules['networkx'] = None\n"
        "from repro.cli import main\n"
        "from repro.parallel import example1_scheme\n"
        "from repro.workloads import ancestor_program\n"
        "output = io.StringIO()\n"
        "with contextlib.redirect_stdout(output):\n"
        f"    code = main(['network', {str(program)!r}])\n"
        "scheme = example1_scheme(ancestor_program(), (0, 1))\n"
        "print(json.dumps([code, output.getvalue(), scheme.scheme]))\n")
    code, output, scheme = report
    assert code == 0
    assert "dataflow graph: 2 -> 2" in output
    assert "cycle at positions (2,)" in output
    assert scheme.startswith("example1")


def test_import_leaves_the_collector_alone():
    # The executors pause the cyclic collector only for the length of a
    # run; importing the package, the mp executor included, must not
    # touch it.
    before, after = _fresh_python(
        "import gc, json\n"
        "before = [gc.isenabled(), gc.get_threshold()]\n"
        "import repro, repro.parallel.mp\n"
        "print(json.dumps([before, [gc.isenabled(), gc.get_threshold()]]))\n")
    assert after == before
    assert before[0] is True
