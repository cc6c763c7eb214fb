"""Every specialize/expand output the benchmark can draw, byte for byte.

``perfbench/golden.json`` holds one digest per argv of
``perfbench/workloads.golden_space()``; each argv is run through
``cli.main`` here and its digest must be among them.  The test only reads
``perfbench/``.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from qmono import cli

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_output_is_unchanged():
    workloads = _workloads()
    golden = workloads.load_golden()
    seen, wrong = set(), []
    for argv in workloads.golden_space():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        seen.add(workloads.digest(argv, out.getvalue()))
        if not workloads.gate(argv, code, out.getvalue(), golden):
            wrong.append(argv)
    assert wrong == []
    assert seen == golden


def test_the_golden_recorder_finds_every_expand_basis():
    # perfbench/record_golden.py looks each expand basis up in cli._CLI_BASES.
    from qmono.macdonald import BASES

    bases = _workloads().EXPAND_BASES
    assert {basis: cli._CLI_BASES[basis] for basis in bases} == {basis: basis for basis in bases}
    assert sorted(cli._CLI_BASES) == sorted(BASES)
