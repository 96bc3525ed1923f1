"""The benchmark's traced pass patches library names from outside
(``perfbench/tracing.py``).  These checks keep every name it patches in
place and show that tracing records the lattice layers without changing
any output."""

import importlib.util
from pathlib import Path

import pytest

from pzeta import cli

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

JOBS = {
    "factorize": ("--format", "json", "factorize", "--builtin", "S4"),
    "omega": ("--format", "json", "omega", "--q", "7", "--variant", "pgl"),
    "moebius": ("--format", "json", "moebius", "--builtin", "S4"),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(capsys, argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_every_target_resolves_and_is_patched(tracing):
    targets = tracing.SPAN_TARGETS + tracing.HOT_TARGETS
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    assert all(callable(fn) for fn in originals)
    with tracing.Tracer().installed():
        for (owner, attr, _), original in zip(targets, originals):
            assert getattr(owner, attr) is not original, attr
    assert [getattr(owner, attr) for owner, attr, _ in targets] == originals


def test_traced_jobs_record_lattice_spans_and_keep_outputs(tracing, capsys):
    plain = {job: _stdout(capsys, argv) for job, argv in JOBS.items()}
    tracer = tracing.Tracer()
    traced = {}
    with tracer.installed():
        for job, argv in JOBS.items():
            traced[job] = tracer.run_job(job, lambda argv=argv: _stdout(capsys, argv))
    assert traced == plain
    calls = {job: tracer.layer_times([job])["calls"] for job in JOBS}
    # one span per public query, none per overgroup row
    assert calls["factorize"]["lattice.containment"] == 1  # maximal_node_ids
    assert calls["moebius"]["lattice.containment"] == 1  # hasse_edges
    assert calls["omega"]["lattice.overgroups"] == 1
    assert calls["omega"]["zeta.odd_index"] == 1
