"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# the cross-correlation config's own seed: 64 exact 8-channel distributions,
# one jitter-averaged and 63 for the distinct jitter keys of the record loop
SEED = 20220812


def test_self_times_with_nested_and_sibling_children():
    #  root [0, 100] has siblings a [10, 30] and b [40, 70]; b has c [45, 55]
    recs = [["cli.main", 0, 100, -1, False],
            ["core.load_config", 10, 30, 0, False],
            ["protocol.run_experiment", 40, 70, 0, False],
            ["gaussian.click_probabilities", 45, 55, 2, False]]
    assert spans.self_times(recs) == [50, 20, 20, 10]
    m = spans.layer_metrics(recs, {})
    assert m["trace.self_sum_s"] == pytest.approx(100e-9)
    assert m["cli.self_s"] == pytest.approx(50e-9)
    assert m["protocol.run_self_s"] == pytest.approx(20e-9)


def test_an_escaping_exception_counts_once_per_layer():
    recs = [["cli.main", 0, 10, -1, False],
            ["protocol.run_experiment", 1, 9, 0, True],
            ["protocol.exact_joint_distribution", 2, 8, 1, True],
            ["gaussian.click_probabilities", 3, 7, 2, True]]
    m = spans.layer_metrics(recs, {})
    assert (m["cli.errors"], m["protocol.errors"], m["gaussian.errors"]) == (0, 1, 1)


def test_wrappers_bind_where_names_are_looked_up():
    import phonon_timebin.cli as cli
    import phonon_timebin.core as core
    import phonon_timebin.gaussian as gaussian

    originals = (cli.load_config, core.OutcomeDistribution.with_background,
                 gaussian.vacuum_probability)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.load_config is core.load_config is not originals[0]
        assert core.OutcomeDistribution.with_background is not originals[1]
        st = gaussian.apply_two_mode_squeeze(gaussian.vacuum_state(["a", "b"]), "a", "b", 0.01)
        gaussian.click_probabilities(st, {"da": ["a"], "db": ["b"]})
    finally:
        tracer.uninstall()
    assert (cli.load_config, core.OutcomeDistribution.with_background,
            gaussian.vacuum_probability) == originals
    m = spans.layer_metrics(tracer.spans, tracer.gauges)
    assert m["gaussian.subsets_per_click"] == 4
    assert m["gaussian.gate_calls"] == 1
    assert m["gaussian.max_modes"] == 2


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.commands(name, 5, tmp_path)
        assert first == workloads.commands(name, 5, tmp_path)
        for step, _, argv in first:
            fixed = "oracle-check" in argv  # its seed picks how much work it does
            assert argv[argv.index("--seed") + 1] == (str(workloads.ORACLE_SEED) if fixed else "5")
        other = workloads.commands(name, 6, tmp_path)
        assert [[a for a in argv if a not in ("5", "6")] for _, _, argv in first] == \
            [[a for a in argv if a not in ("5", "6")] for _, _, argv in other]


@pytest.fixture(scope="module")
def traced_reps(tmp_path_factory):
    """Two traced repetitions of each Gaussian workload at one seed."""
    base = tmp_path_factory.mktemp("reps")
    out = {}
    for name in ("bell_session", "xcorr_records"):
        out[name] = [(base / f"{name}{i}", run.run_rep(name, SEED, base / f"{name}{i}", True))
                     for i in range(2)]
    return out


def test_counts_repeat_exactly(traced_reps):
    for name, reps in traced_reps.items():
        (_, a), (_, b) = reps
        counts = [k for k in a["layers"] if not k.endswith(("_s", ".s"))]
        assert {k: a["layers"][k] for k in counts} == {k: b["layers"][k] for k in counts}
    bell = traced_reps["bell_session"][0][1]["layers"]
    xcorr = traced_reps["xcorr_records"][0][1]["layers"]
    assert bell["protocol.nodes_per_setting"] == 21
    assert bell["gaussian.subsets_per_click"] == 16
    assert xcorr["gaussian.subsets_per_click"] == 256
    assert (xcorr["protocol.exact_calls"], xcorr["protocol.record_exact_calls"]) == (64, 63)


def test_a_perturbed_reference_value_raises_the_error_rate(traced_reps, tmp_path):
    reps = traced_reps["bell_session"]
    ref = check.load_reference()
    checks, _ = run.run_checks("bell_session", reps, tmp_path / "a", ref)
    assert checks and all(ok for _, ok, _ in checks)

    bad = copy.deepcopy(ref)
    bad["estimates"]["bell_test"]["S"] += 1.0
    setting = bad["distributions"]["timebin_entanglement"][0]
    setting["0000"] += 1e-11
    checks_bad, _ = run.run_checks("bell_session", reps, tmp_path / "b", bad)
    failed = {name for name, ok, _ in checks_bad if not ok}
    assert len(checks_bad) == len(checks)
    assert failed == {f"{d.name}.bell.S" for d, _ in reps} | {"fingerprint.timebin_entanglement"}


def test_times_scale_with_the_probes_around_each_command():
    rep = {"setup_s": 0.5, "wall_s": 2.0, "cpu_s": 2.0, "probes": [0.08, 0.08, 0.04],
           "steps": [{"kind": "simulate", "seconds": 1.0}, {"kind": "simulate", "seconds": 1.0}],
           "layers": {"gaussian.vacuum_s": 2.0, "gaussian.vacuum_calls": 7}}
    ref = run.PROBE_REF_S
    out = run.at_reference_speed(rep)
    want = [ref / 0.08, ref / 0.06]
    assert [s["seconds"] for s in out["steps"]] == pytest.approx(want)
    assert out["wall_s"] == pytest.approx(sum(want))
    assert out["setup_s"] == pytest.approx(0.5 * ref / 0.08)
    assert out["layers"] == pytest.approx({"gaussian.vacuum_s": sum(want), "gaussian.vacuum_calls": 7})
    assert rep["wall_s"] == 2.0  # the host times stay as measured
