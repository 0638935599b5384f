"""Acceptance battery: every verification criterion at its stated tolerance.

Each test prints one pass/fail line with the measured quantity and elapsed
time against the criterion's runtime budget. Criteria that share one
experiment run (for example the two propagator checks) share its wall
clock. The configs are the battery table, `experiments.acceptance_runs()`.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

from katolab import experiments as E

RUNS = dict(E.acceptance_runs())
_CACHE: dict = {}


def cached_run(name: str):
    if name not in _CACHE:
        t0 = time.time()
        rep = E.run(RUNS[name])
        _CACHE[name] = (rep, time.time() - t0)
    return _CACHE[name]


def criterion_from_report(num, label, rep, elapsed, budget, name):
    entry = next(c for c in rep.criteria if c["name"] == name)
    status = "PASS" if entry["passed"] else "FAIL"
    print(f"[criterion {num:2d}] {status} {label}: {entry['detail']} "
          f"({elapsed:.1f}s < {budget}s)")
    assert entry["passed"], entry["detail"]
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded {budget}s"


def test_criterion_01_energy_identity():
    rep, dt = cached_run("energy-and-gaussian")
    criterion_from_report(1, "energy identity", rep, dt, 5, "energy-identity")


def test_criterion_02_gaussian_oracle():
    rep, dt = cached_run("energy-and-gaussian")
    criterion_from_report(2, "propagated gaussian vs refined quadrature",
                          rep, dt, 5, "gaussian-oracle")


def test_criterion_03_packet_reconstruction_and_energy():
    rep, dt = cached_run("wavepacket-identities")
    criterion_from_report(3, "packet reconstruction", rep, dt, 10,
                          "packet-reconstruction")
    criterion_from_report(3, "packet energy identity", rep, dt, 10,
                          "packet-energy-identity")


def test_criterion_04_almost_orthogonality():
    rep, dt = cached_run("wavepacket-identities")
    criterion_from_report(4, "almost orthogonality", rep, dt, 10,
                          "almost-orthogonality")


def test_criterion_05_kernel_decay():
    rep, dt = cached_run("kernel-and-surface-decay")
    criterion_from_report(5, "packet kernel decay", rep, dt, 60, "kernel-decay")


def test_criterion_06_scaling_exponent():
    rep, dt = cached_run("l2-scaling")
    criterion_from_report(6, "quadratic-window scaling exponent", rep, dt, 10,
                          "slope-matches-prediction")
    criterion_from_report(6, "dense eigensolver cross-check", rep, dt, 10,
                          "dense-cross-check")


def test_criterion_07_sharpness_direction():
    rep, dt = cached_run("sharpness-direction")
    criterion_from_report(7, "super-threshold regularity fails", rep, dt, 10,
                          "residual-slope-grows")


def test_criterion_08_maximal_exponent():
    rep, dt = cached_run("maximal-exponent")
    criterion_from_report(8, "maximal-function exponent", rep, dt, 60,
                          "maximal-slope")


def test_criterion_09_window_transfer():
    rep, dt = cached_run("window-transfer")
    criterion_from_report(9, "bounded-to-global window transfer", rep, dt, 30,
                          "window-transfer-slope")


def test_criterion_10_tube_overlap():
    rep, dt = cached_run("tube-incidence")
    criterion_from_report(10, "tube/cube overlap stability", rep, dt, 120,
                          "overlap-stability")


def test_criterion_11_sparse_decomposition():
    rep, dt = cached_run("sparse-decomposition")
    criterion_from_report(11, "sparse ball decomposition audit", rep, dt, 10,
                          "sparse-decomposition-audit")


def test_criterion_12_surface_decay():
    rep, dt = cached_run("kernel-and-surface-decay")
    criterion_from_report(12, "surface-measure decay exponent", rep, dt, 120,
                          "surface-measure-decay")


def test_criterion_13_sparse_decoupling():
    rep, dt = cached_run("sparse-decoupling")
    criterion_from_report(13, "sparse decoupling constant", rep, dt, 300,
                          "sparse-decoupling")


def test_every_battery_report_is_typed_and_valid():
    # every measurement has a known kind, and every lower bound carries its
    # routine's solver facts: the Lanczos residual of an L2 norm, the ascent
    # gain of a mixed-norm bound
    facts = {"operator_norm_l2": "residual", "lower_bound_mixed": "ascent_gain"}
    for name in RUNS:
        rep, _ = cached_run(name)
        assert E.validate_report(rep.to_dict()) == [], name
        for m in rep.measurements:
            assert m["kind"] in E.KINDS, (name, m)
            if m["kind"] == "lower":
                assert facts[m["operation"]] in m["error"], (name, m)
