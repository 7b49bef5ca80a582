"""Every witness the pipeline emits replays against its own group.

The groups are those of scripts/report_digest.py (the benchmark stocks at
seed 1 and the test corpora), each run through the CLI for the digest's
commands and is-finite, exactly as the digest runs them.  Every report
that carries a witness must be confirmed by verify_report given the group
it was computed for."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def report_digest():
    """scripts/report_digest.py as a module; the sys.path entries it adds
    on import are removed again once it has loaded the stocks."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("report_digest", ROOT / "scripts" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_every_stock_and_corpus_witness_is_confirmed(report_digest, tmp_path):
    from nilmat.cli import group_to_json
    from nilmat.verify import verify_report

    commands = report_digest.COMMANDS + ("is-finite",)
    witnesses, rejected = 0, []
    for i, (label, G) in enumerate(report_digest.groups(1)):
        path = tmp_path / f"g{i:03d}.json"
        path.write_text(json.dumps(group_to_json(G)))
        for cmd in commands:
            code, text = report_digest.run(cmd, str(path))
            if code:
                continue
            report = json.loads(text)
            if not report.get("witness"):
                continue
            witnesses += 1
            ok, checks = verify_report(report, G)
            if not ok:
                failed = [name for name, passed, _ in checks if not passed]
                rejected.append(f"{label} {cmd} {report['witness']['kind']}: {failed}")
    assert witnesses > 0
    assert not rejected, "witnesses not confirmed with their groups:\n" + "\n".join(rejected)
