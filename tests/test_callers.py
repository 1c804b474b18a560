"""No ``src/`` code is kept for tests alone.

Runs ``tools/check_callers.py`` in-process: every ``src/`` definition
must have a caller outside ``tests/``, except the few that an open
ROADMAP item is about to call.  A definition whose last program caller
goes must go with it (and its tests), or be named here with the item
that gives it a caller back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Test-only definitions held for the ROADMAP item that will call them.
HELD = {
    # Item 3: the per-layer step profiler reads per-shard kernel counters.
    "repro.serve.engine:ServingEngine.shard_gemv_stats",
    # Item 4: the fault-injection hook of the failure-containment tests.
    "repro.serve.replica:ReplicaPool.kill_replica",
    # Item 5: digital PIM attention stores K/V in the digital modules.
    "repro.pim.processing_unit:ProcessingUnit.store_dynamic",
    # Item 7: the energy ledger prices each analog wave.
    "repro.arch.energy:AnalogWaveEnergy.per_wave_pj",
}


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_callers", REPO_ROOT / "tools" / "check_callers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sandbox(tmp_path, checker, source: str):
    """Scope ``checker`` to a repo under ``tmp_path`` whose ``src/`` holds
    one module, ``pkg.mod``, of ``source``."""
    checker.REPO_ROOT = tmp_path
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(source)


def test_only_held_definitions_lack_a_program_caller():
    assert set(_load_checker().uncalled_definitions()) == HELD


def test_checker_flags_test_only_definitions(tmp_path):
    checker = _load_checker()
    _sandbox(
        tmp_path,
        checker,
        '__all__ = ["lonely", "Box"]\n'
        "def lonely():\n    return lonely\n"
        "def called():\n    pass\n"
        "def by_name():\n    pass\n"
        "@register('x')\ndef registered():\n    pass\n"
        "@dataclass\nclass Record:\n    x: int = 0\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    @property\n    def unread(self):\n        return 1\n"
        "    def read(self):\n        return getattr(self, 'by_name')\n",
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench.py").write_text(
        "from pkg.mod import Box, called\ncalled()\nBox().read()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import lonely\nlonely()\nBox().unread\n"
    )
    assert checker.uncalled_definitions() == [
        "pkg.mod:Box.unread",
        "pkg.mod:Record",
        "pkg.mod:lonely",
    ]


@pytest.mark.parametrize("program_dir", ["benchmarks", "examples", "perfbench", "tools"])
def test_reference_from_each_program_dir_counts(tmp_path, program_dir):
    checker = _load_checker()
    _sandbox(tmp_path, checker, "def used():\n    pass\ndef unused():\n    pass\n")
    (tmp_path / program_dir).mkdir()
    (tmp_path / program_dir / "use.py").write_text("from pkg.mod import used\nused()\n")
    assert checker.uncalled_definitions() == ["pkg.mod:unused"]


@pytest.mark.parametrize(
    "source, status, printed",
    [
        ("def lonely():\n    pass\n", 1, "pkg.mod:lonely"),
        ("def caller():\n    helper()\ndef helper():\n    caller()\n", 0, "callers OK"),
    ],
    ids=["test-only-definition", "all-called"],
)
def test_main_exit_status(tmp_path, capsys, source, status, printed):
    checker = _load_checker()
    _sandbox(tmp_path, checker, source)
    assert checker.main() == status
    assert capsys.readouterr().out.strip().startswith(printed)
