"""The report contract: every CLI report on the benchmark stocks and the
test corpora, at seeds 1 and 101, hashes to the value committed in
tests/data/report-hashes-<seed>.txt.

The hashes come from `scripts/report_digest.py --hashes`, which a
subprocess reruns per seed; a report that changes on purpose is recorded
by regenerating the file with the same command."""

import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 101)


def _rows(text):
    """(label, command) -> (exit code, sha256) of each digest line."""
    out = {}
    for line in text.splitlines():
        label, cmd, code, digest = line.split("\t")
        out[label, cmd] = code, digest
    return out


def test_reports_match_committed_hashes():
    script = str(ROOT / "scripts" / "report_digest.py")
    procs = {}
    with ExitStack() as stack:
        # both seeds run at once; on leaving, a process still running is killed, then reaped
        for seed in SEEDS:
            cmd = [sys.executable, script, "--hashes", "--seed", str(seed)]
            procs[seed] = stack.enter_context(subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True))
            stack.callback(procs[seed].kill)
        outs = {seed: proc.communicate(timeout=600)[0] for seed, proc in procs.items()}
    differing = []
    for seed in SEEDS:
        assert procs[seed].returncode == 0, seed
        got = _rows(outs[seed])
        want = _rows((ROOT / "tests" / "data" / f"report-hashes-{seed}.txt").read_text())
        differing += [f"seed {seed}: {label} {cmd}" for label, cmd in sorted(got.keys() | want.keys()) if got.get((label, cmd)) != want.get((label, cmd))]
    assert not differing, "reports differ from the committed hashes:\n" + "\n".join(differing)
