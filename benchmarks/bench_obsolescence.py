"""Cryptographic obsolescence, derived rather than decreed (Section 3.1).

A rate-bounded, geometrically growing adversary (the paper's 'more nuanced'
Section 2 model) is pointed at the library's primitive catalogue; break
epochs fall out of the arithmetic.  The artifact tables show:

- the derived break schedule per primitive (and the information-theoretic
  rows that never appear on it);
- the design inverse: bits of effective strength needed per confidentiality
  horizon, under three adversary trajectories.
"""


import repro.crypto.proxy  # noqa: ARCH002 -- registers proxy-reencryption, a row of the table
from repro.adversary.computation import (
    DEFAULT_STRENGTHS,
    ComputeBudget,
    bits_needed_for_horizon,
    derive_timeline,
)
from repro.analysis.report import render_table
from repro.crypto.registry import global_registry
from repro.security import SecurityNotion

#: A serious state-level adversary: 2^55 guesses in year one, doubling
#: every two years.
BUDGET = ComputeBudget(2**55, growth_per_epoch=1.41)
HORIZON = 300


def test_derived_break_schedule_artifact(run_once, emit_artifact):
    timeline = run_once(
        lambda: derive_timeline(BUDGET, horizon_epochs=HORIZON)
    )
    registry = global_registry()
    rows = []
    for name in sorted(DEFAULT_STRENGTHS):
        if name not in registry:
            continue
        info = registry.get(name)
        if info.notion is SecurityNotion.INFORMATION_THEORETIC:
            continue
        epoch = timeline.break_epoch(name)
        rows.append(
            (
                name,
                DEFAULT_STRENGTHS[name],
                "already broken" if info.historically_broken
                else (f"epoch {epoch}" if epoch is not None else f"> {HORIZON}"),
            )
        )
    for its_name in ("shamir", "one-time-pad", "pedersen", "bsm", "qkd-otp"):
        rows.append((its_name, "-", "never (information-theoretic)"))
    table = render_table(
        headers=["Primitive", "Strength (bits)", "Falls at"],
        rows=rows,
        title="Break schedule derived from a 2^55-guess/epoch, x1.41-growth adversary",
    )
    emit_artifact("obsolescence_schedule", table)
    assert timeline.break_epoch("toy-rsa") is not None
    assert timeline.break_epoch("aes-256-ctr") is None  # beyond 300 epochs
    assert not timeline.is_broken("shamir", 10**9)


def test_bits_for_horizon_artifact(run_once, emit_artifact):
    budgets = {
        "criminal (2^45, x1.2)": ComputeBudget(2**45, 1.2),
        "state (2^55, x1.41)": ComputeBudget(2**55, 1.41),
        "post-quantum-ish (2^70, x1.6)": ComputeBudget(2**70, 1.6),
    }

    def sweep():
        rows = []
        for label, budget in budgets.items():
            for horizon in (10, 50, 100, 300):
                rows.append(
                    (label, horizon, f"{bits_needed_for_horizon(budget, horizon):.0f}")
                )
        return rows

    rows = run_once(sweep)
    table = render_table(
        headers=["Adversary", "Horizon (epochs)", "Bits required"],
        rows=rows,
        title="Design inverse: strength needed to survive a horizon "
        "(brute-force floor; shortcuts void all warranties)",
    )
    emit_artifact("obsolescence_design", table)
    by_key = {(r[0], r[1]): float(r[2]) for r in rows}
    assert by_key[("state (2^55, x1.41)", 300)] > by_key[("state (2^55, x1.41)", 10)]


def test_bench_derive_timeline(benchmark):
    timeline = benchmark(derive_timeline, BUDGET)
    assert timeline.break_epoch("toy-rsa") is not None
