"""What a serial pipeline run imports.

A ``jobs=1`` run executes every item in-process, so it must not load
the process-pool stack; a run without a checkpoint journals nothing, so
it must not load the journal or ``pickle``.  No run loads
:mod:`hashlib`, whose import maps OpenSSL into the process:
:mod:`repro.digest` hashes with the builtin SHA-256 and is the one
module that names a hash implementation.  The analysis, exec,
network and OS packages resolve their exports on first access, so a run
loads only the submodules it names.  Each check runs in a fresh interpreter: the test
process itself has long since imported everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules (with their submodules) that no serial pipeline executes.
NEVER_LOADED = ("concurrent.futures", "multiprocessing", "repro.core",
                "repro.analysis.system_report", "repro.network.tte",
                "repro.network.ttp", "repro.osek.server",
                "pickle", "_pickle", "base64", "repro.exec.checkpoint",
                "hashlib", "_hashlib")

#: Each pipeline entry point at jobs=1 on a tiny input.
PIPELINES = {
    "verify": "from repro.verify.oracle import verify_many\n"
              "assert verify_many(7, 2, 'small').passed",
    "fuzz": "from repro.verify.fuzz import fuzz\n"
            "assert fuzz(7, budget=4).executions == 4",
    "resilience": "from repro.verify.resilience import run_resilience\n"
                  "assert not run_resilience(7, 1, 'small').unmet",
    "campaign": "from repro.faults.campaign import (ReferenceWorld,\n"
                "    reference_cells, run_campaign)\n"
                "from repro.units import ms\n"
                "report = run_campaign(ReferenceWorld,\n"
                "                      reference_cells()[:3], ms(300))\n"
                "assert report.cells == 3",
    "campaign-cli": "import contextlib, io\n"
                    "from repro.__main__ import main\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    "    assert main(['repro', 'campaign', '--smoke']) == 0",
}

LAZY_PACKAGES = ("repro.analysis", "repro.exec", "repro.network",
                 "repro.osek")
#: Exported names more than one submodule defines, with their home:
#: ``can_rta`` has frame-level functions named like the task-level ones
#: the package exports.
SHARED_NAMES = {"analyze": "repro.analysis.rta",
                "blocking_time": "repro.analysis.rta",
                "response_time": "repro.analysis.rta"}


def run_fresh(code: str):
    """Run ``code`` in a new interpreter on ``src``; its last line of
    output is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_serial_pipeline_loads_nothing_it_does_not_execute(pipeline):
    loaded = run_fresh(
        f"{PIPELINES[pipeline]}\n"
        f"import json, sys\n"
        f"print(json.dumps(sorted(\n"
        f"    name for name in sys.modules for prefix in {NEVER_LOADED!r}\n"
        f"    if name == prefix or name.startswith(prefix + '.'))))")
    assert loaded == []


#: Modules that implement a hash: only ``repro/digest.py`` names one.
HASH_MODULES = {"hashlib", "_hashlib", "_sha2", "_sha256"}


def test_only_the_digest_module_names_a_hash_implementation():
    importers = set()
    for path in SRC.joinpath("repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if HASH_MODULES & {name.split(".")[0] for name in names}:
                importers.add(path.relative_to(SRC).as_posix())
    assert importers == {"repro/digest.py"}


def home_modules(package: str) -> dict[str, str]:
    """Every ``__all__`` name of ``package`` -> the submodule that
    defines it: the submodule itself for a submodule name, else the one
    submodule whose source binds it at top level other than by import
    (:data:`SHARED_NAMES` settles names several of them bind)."""
    directory = SRC.joinpath(*package.split("."))
    defined: dict[str, list[str]] = {}
    for path in sorted(directory.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = f"{package}.{path.stem}"
        defined.setdefault(path.stem, []).append(module)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defined.setdefault(name, []).append(module)
    exported = __import__(package, fromlist=["__all__"]).__all__
    homes = {}
    for name in exported:
        found = defined.get(name, [])
        if len(found) > 1 and SHARED_NAMES.get(name) in found:
            found = [SHARED_NAMES[name]]
        assert len(found) == 1, (package, name, found)
        homes[name] = found[0]
    return homes


def test_package_exports_resolve_to_their_home_objects():
    homes = {package: home_modules(package) for package in LAZY_PACKAGES}
    problems = run_fresh(
        f"import importlib, json, sys\n"
        f"homes = {homes!r}\n"
        f"packages = {{name: importlib.import_module(name)\n"
        f"            for name in homes}}\n"
        f"problems = sorted(name for name in sys.modules\n"
        f"                  if name.rpartition('.')[0] in homes)\n"
        f"for package, names in homes.items():\n"
        f"    for name, home in names.items():\n"
        f"        value = getattr(packages[package], name)\n"
        f"        module = importlib.import_module(home)\n"
        f"        if home.rpartition('.')[2] == name:\n"
        f"            expected = module\n"
        f"        else:\n"
        f"            expected = getattr(module, name)\n"
        f"        if value is not expected:\n"
        f"            problems.append(f'{{package}}.{{name}}')\n"
        f"print(json.dumps(problems))")
    assert problems == []
