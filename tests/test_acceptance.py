"""Acceptance suite: the pinned end-to-end requirements, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -rA``) and then
asserts.  Tolerances are pinned here and not tuned.  Where a criterion runs
the oracle on the truncated r = 1 squeezed vacuum, its cutoff is chosen from
the exact truncation error of that input: the renormalised distribution
P(2k) = (2k)! tanh^{2k} r / ((2^k k!)^2 cosh r) kept up to n = n_max (Yuen,
PRA 13, 2226 (1976)).  The oracle reproduces these closed forms to ~1e-12,
so the error below is what the oracle shows, not an estimate of it.

* criterion 2 (Q pair within 1e-6): the truncated input's Mandel Q misses
  cosh(2r) by 7.06e-6 at n_max = 64, 1.27e-7 at 80 and 2.1e-9 at 96.  No
  state truncated at 64 can meet 1e-6, so the criterion runs at n_max = 80,
  the first cutoff on the suite's 16-step grid below the tolerance (about
  8x margin).
* criterion 3 (squeeze pair within 1e-6): at conversion the atom mode is
  the pure squeezed vacuum, so S1b = -2 sinh r e^{-r} and its partner
  S2b = +2 sinh r e^{+r} = e^2 - 1 (the product (S1b+1)(S2b+1) is 1).  The
  truncation errors at n_max = 64 are 9.7e-8 on S1b and 7.2e-7 on S2b, both
  within the tolerance, so the criterion keeps n_max = 64.
* criterion 7 (convergence deltas below 1e-8): the r = 1 deltas over
  {32, 48, 64} are 2.3e-2 and 5.3e-4, and the 32 and 48 inputs are
  truncation-insufficient, so converge rightly exits 2 there; the test keeps
  that run as the gate's negative case.  Over {96, 128, 160} (Q errors 2.1e-9
  and below) the deltas are 3.1e-9 and 8.2e-13 and converge exits 0.

The companion ``test_supporting_*`` checks show the Q pair at a larger
cutoff and the uncertainty-bound identity behind criterion 3.
"""

import math
import time

import numpy as np

from atomlaser.cli import main
from atomlaser.fock import SqueezedInput, squeezed_coherent_state
from atomlaser.observables import (
    FORMULAS,
    PHYSICS_COLUMNS,
    ScenarioConfig,
    Terms,
    moment_map_table,
    physics_table,
    squeeze_coeffs,
)
from atomlaser.oracle import evolve
from atomlaser.propagator import ModelParams, propagator_at
from atomlaser.verify import CONFIRMED, TYPO_SUSPECT

RESONANT = ModelParams(4.0, 4.0, 1.0, 0.0)
SINH1_SQ = math.sinh(1.0) ** 2
COSH2 = math.cosh(2.0)
SQUEEZE_DIP = 2.0 * math.sinh(1.0) * math.exp(-1.0)  # 0.864664716763...
SQUEEZE_RISE = 2.0 * math.sinh(1.0) * math.exp(1.0)  # e^2 - 1 = 6.389056098930...


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())


def default_scenario(n_max=64):
    return ScenarioConfig(RESONANT, SqueezedInput(1.0), n_max)


def run_oracle(cfg, times):
    return evolve(cfg.params, squeezed_coherent_state(cfg.input, cfg.n_max), times)


def columns(table):
    """A physics table as {column name: values over the times}."""
    return dict(zip(PHYSICS_COLUMNS, table.T))


def q_pair_deviation(rec, grid) -> float:
    """Largest |Q - cosh(2)(cos^2, sin^2)| where that mode's mean exceeds 1e-6."""
    dev_a = np.abs(rec["q_a"] - COSH2 * np.cos(grid) ** 2)[rec["na_mean"] > 1e-6]
    dev_b = np.abs(rec["q_b"] - COSH2 * np.sin(grid) ** 2)[rec["nb_mean"] > 1e-6]
    return float(np.max(np.concatenate((dev_a, dev_b)), initial=0.0))


def test_criterion_1_complete_quantum_conversion():
    """Oracle at n_max=64, t=pi/2: <Nb> = sinh^2(1) within 1e-6, <Na> <= 1e-8."""
    start = time.perf_counter()
    cfg = default_scenario()
    a, b = run_oracle(cfg, [math.pi / 2]).moments
    elapsed = time.perf_counter() - start
    na_mean, nb_mean = a.number_mean[0], b.number_mean[0]
    dev_b = abs(nb_mean - SINH1_SQ)
    ok = dev_b <= 1e-6 and na_mean <= 1e-8 and elapsed < 10.0
    detail = f"(|dNb|={dev_b:.3e}, Na={na_mean:.3e}, {elapsed:.2f}s)"
    report("1 complete-quantum-conversion", ok, detail)
    assert ok, detail


def test_criterion_2_q_oscillation():
    """Oracle Q pair = cosh(2)(cos^2, sin^2) within 1e-6 where <N> > 1e-6 on a
    50-point grid over [0, pi]; transcribed pair vs moment map within 1e-10.

    Runs at n_max = 80: the input's exact truncation error in Q is 1.27e-7
    there, against 7.06e-6 at n_max = 64 (see the module docstring)."""
    cfg = default_scenario(n_max=80)
    grid = np.linspace(0.0, math.pi, 50)
    dev_oracle = q_pair_deviation(columns(physics_table(*run_oracle(cfg, grid).moments)), grid)

    rec = columns(moment_map_table(cfg, grid))
    [q_pair] = [spec for spec in FORMULAS if spec.name == "q-pair-vacuum"]
    lit_a, lit_b = q_pair.literal(Terms(cfg, grid))
    dev_map = max(
        np.max(np.where(np.isnan(rec["q_a"]), np.abs(lit_a - COSH2 * np.cos(grid) ** 2),
                        np.abs(rec["q_a"] - lit_a))),
        # the limit value at the vacuum point is 0
        np.max(np.where(np.isnan(rec["q_b"]), np.abs(lit_b), np.abs(rec["q_b"] - lit_b))),
    )

    ok = dev_oracle <= 1e-6 and dev_map <= 1e-10
    detail = f"(oracle dev={dev_oracle:.3e} vs 1e-6, map dev={dev_map:.3e} vs 1e-10)"
    report("2 q-oscillation", ok, detail)
    assert ok, detail


def test_criterion_3_squeezing_transfer():
    """Oracle at t=pi/2 (w t = 2 pi): S1b = -2 sinh(1) e^{-1} = -0.86466 and
    S2b = +2 sinh(1) e^{+1} = +6.38906 within 1e-6; at w t = pi/2 + 2 pi k with
    maximal sin^2(omega_r t) the signs swap.  The truncation errors at
    n_max = 64 are 9.7e-8 and 7.2e-7 (see the module docstring)."""
    cfg = default_scenario()
    t_swap = 5 * math.pi / 8  # w t = pi/2 + 2 pi, the largest sin^2 among such times
    (s1b, s1b_swap), (s2b, s2b_swap) = squeeze_coeffs(run_oracle(cfg, [math.pi / 2, t_swap]).moments[1])

    dev1 = abs(s1b + SQUEEZE_DIP)
    dev2 = abs(s2b - SQUEEZE_RISE)
    swap_ok = s1b_swap > 0.0 and s2b_swap < 0.0
    ok = dev1 <= 1e-6 and dev2 <= 1e-6 and swap_ok
    detail = (
        f"(s1b={s1b:.6f} dev={dev1:.3e}; s2b={s2b:.6f} dev={dev2:.3e}; "
        f"swap s1b={s1b_swap:.3f}, s2b={s2b_swap:.3f})"
    )
    report("3 squeezing-transfer", ok, detail)
    assert ok, detail


def test_criterion_4_detuned_propagator_validation():
    """20 random detuned parameter sets: oracle first moments match the
    transfer matrix within 1e-8 at 10 times each."""
    rng = np.random.default_rng(20250809)
    worst = 0.0
    for _ in range(20):
        while True:
            omega0 = float(rng.uniform(0.0, 10.0))
            omega_a = float(rng.uniform(0.0, 10.0))
            if abs(omega0 - omega_a) > 0.2:
                break
        params = ModelParams(
            omega0, omega_a, float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.0, 2 * math.pi))
        )
        m = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        times = np.sort(rng.uniform(0.0, 10.0, size=10))
        light = squeezed_coherent_state(SqueezedInput(0.0, m=m), 40)
        a, b = evolve(params, light, times).moments
        u = propagator_at(params, times)
        worst = max(
            worst,
            np.max(np.abs(b.mean_amp - u[:, 0, 1] * m)),
            np.max(np.abs(a.mean_amp - u[:, 1, 1] * m)),
        )
    ok = worst <= 1e-8
    detail = f"(worst first-moment deviation {worst:.3e} vs 1e-8)"
    report("4 detuned-propagator-validation", ok, detail)
    assert ok, detail


def test_criterion_5_invariant_suite():
    """1000 random transfer matrices unitary to 1e-12 with |lam|^2 + eta^2 = 1;
    oracle runs conserve norm and total occupation to 1e-9; every squeeze pair
    satisfies (S1+1)(S2+1) >= 1 - 1e-9."""
    rng = np.random.default_rng(77)
    worst_unitarity = 0.0
    worst_identity = 0.0
    for _ in range(1000):
        params = ModelParams(
            omega0=float(rng.uniform(0.0, 10.0)),
            omega_a=float(rng.uniform(0.0, 10.0)),
            omega_r=float(rng.uniform(1e-3, 5.0)),
            theta=float(rng.uniform(0.0, 2 * math.pi)),
        )
        t = float(rng.uniform(0.0, 20.0))
        u = propagator_at(params, t)
        worst_unitarity = max(
            worst_unitarity,
            float(np.max(np.abs(u @ u.conj().T - np.eye(2)))),
        )
        big_i = math.hypot(params.omega_r, 0.5 * (params.omega0 - params.omega_a))
        eta = params.omega_r / big_i * math.sin(big_i * t)  # cos(varphi) sin(I t)
        worst_identity = max(
            worst_identity, abs(abs(u[0, 0]) ** 2 + eta**2 - 1.0)
        )

    scenarios = [
        (RESONANT, SqueezedInput(1.0)),
        (ModelParams(5.0, 3.0, 1.2, 0.8), SqueezedInput(0.0, 0.0, 0.7 - 0.2j)),
        (ModelParams(2.0, 6.0, 0.9, 4.0), SqueezedInput(0.7, 0.5, 0.3 + 0.3j)),
    ]
    worst_norm = 0.0
    worst_ntotal = 0.0
    worst_pair = math.inf
    for params, inp in scenarios:
        cfg = ScenarioConfig(params, inp, 72)
        result = run_oracle(cfg, np.linspace(0.0, 8.0, 9))
        worst_norm = max(worst_norm, result.norm_drift)
        worst_ntotal = max(worst_ntotal, result.ntotal_drift)
        rec = columns(physics_table(*result.moments))
        worst_pair = min(
            worst_pair,
            np.min((rec["s1a"] + 1.0) * (rec["s2a"] + 1.0)),
            np.min((rec["s1b"] + 1.0) * (rec["s2b"] + 1.0)),
        )

    ok = (
        worst_unitarity <= 1e-12
        and worst_identity <= 1e-12
        and worst_norm <= 1e-9
        and worst_ntotal <= 1e-9
        and worst_pair >= 1.0 - 1e-9
    )
    detail = (
        f"(unitarity {worst_unitarity:.2e}, identity {worst_identity:.2e}, "
        f"norm {worst_norm:.2e}, ntotal {worst_ntotal:.2e}, "
        f"min pair {worst_pair:.12f})"
    )
    report("5 invariant-suite", ok, detail)
    assert ok, detail


def test_criterion_6_formula_adjudication(tmp_path):
    """verify on the default scenario: the stated CONFIRMED / TYPO-SUSPECT
    verdict split with zero UNRESOLVED and exit code 0."""
    out = tmp_path / "verify.txt"
    code = main(["verify", "--out", str(out)])
    text = out.read_text() if out.exists() else ""

    expected_confirmed = (
        "conversion-number-transfer",
        "light-number-mean",
        "atom-number-variance-at-conversion",
        "q-pair-vacuum",
        "atom-squeeze-pair",
        "atom-squeeze-aligned-phase",
        "atom-squeeze-crossed-phase",
    )
    expected_suspect = (
        "light-number-square-vacuum",
        "light-number-variance-vacuum",
        "atom-number-variance-vacuum",
        "q-pair-real-input",
        "atom-number-mean-vacuum",
    )
    verdicts = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in expected_confirmed + expected_suspect:
            verdicts[parts[0]] = parts[1] if len(parts) > 1 else ""
    confirmed_ok = all(verdicts.get(n) == CONFIRMED for n in expected_confirmed)
    suspect_ok = all(verdicts.get(n) == TYPO_SUSPECT for n in expected_suspect)
    unresolved_ok = "unresolved: 0" in text
    ok = code == 0 and confirmed_ok and suspect_ok and unresolved_ok
    detail = f"(exit={code}, confirmed_ok={confirmed_ok}, suspect_ok={suspect_ok}, {len(verdicts)} verdicts)"
    report("6 formula-adjudication", ok, detail)
    assert ok, detail


def _converge_r1(tmp_path, values: str):
    """Run ``converge --r 1 --steps 8`` over ``values``; return (exit, csv text)."""
    out = tmp_path / f"conv_{values.replace(',', '_')}.csv"
    code = main(["converge", "--r", "1", "--values", values, "--steps", "8",
                 "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def _final_delta(text: str, pair: str) -> float:
    for line in text.splitlines():
        if line.startswith(f"delta,{pair},"):
            return float(line.split(",")[-1])
    return math.nan


def test_criterion_7_truncation_convergence(tmp_path):
    """converge with r=1 over n_max {96, 128, 160}: successive deltas below 1e-8
    at the final step and exit code 0.  Over {32, 48, 64}, where the input's
    Q truncation error is 7.06e-6 even at the top cutoff, the same gate must
    reject: exit code 2, not-converged, final delta above 1e-8."""
    code, text = _converge_r1(tmp_path, "96,128,160")
    converged = "result,160,converged" in text
    final_delta = _final_delta(text, "128->160")

    low_code, low_text = _converge_r1(tmp_path, "32,48,64")
    rejected = "result,64,not-converged" in low_text
    low_delta = _final_delta(low_text, "48->64")

    ok = (
        code == 0 and converged and final_delta < 1e-8
        and low_code == 2 and rejected and low_delta > 1e-8
    )
    detail = (
        f"(exit={code}, converged={converged}, final delta={final_delta:.3e} vs 1e-8; "
        f"low cutoffs exit={low_code}, not-converged={rejected}, "
        f"final delta={low_delta:.3e})"
    )
    report("7 truncation-convergence", ok, detail)
    assert ok, detail


# ----------------------------------------------------------------------------
# Supporting evidence: the Q pair behind criterion 2 at a cutoff past the one
# the criterion uses, and the bound that fixes S2b in criterion 3.
# ----------------------------------------------------------------------------


def test_supporting_q_oscillation_converges_at_larger_cutoff():
    cfg = default_scenario(n_max=96)
    grid = np.linspace(0.0, math.pi, 50)
    dev = q_pair_deviation(columns(physics_table(*run_oracle(cfg, grid).moments)), grid)
    report("supporting q-oscillation at n_max=96", dev <= 1e-6, f"(dev={dev:.3e})")
    assert dev <= 1e-6


def test_supporting_partner_quadrature_is_uncertainty_bound():
    # at the conversion time the atom mode is a pure squeezed state, so the
    # anti-squeezed partner sits exactly on the minimum-uncertainty hyperbola
    cfg = default_scenario()
    (s1b,), (s2b,) = squeeze_coeffs(run_oracle(cfg, [math.pi / 2]).moments[1])
    forced_partner = 1.0 / (1.0 + s1b) - 1.0  # = e^2 - 1 for s1b = e^{-2} - 1
    assert abs(s2b - forced_partner) < 1e-5
    assert abs(s2b - (math.exp(2.0) - 1.0)) < 1e-5
