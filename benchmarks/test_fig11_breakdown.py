"""Bench: regenerate Fig. 11 (per-mode share of STEs, energy, area).

Paper shape expectation: the specialized modes punch above their
weight — LNFA's energy share sits well below its STE share, and the
plain-NFA share of energy/area is at least its share of STEs.
"""

from repro.experiments import fig11_breakdown


def test_fig11_breakdown(config):
    result = fig11_breakdown.run(config)
    print()
    print(result.to_table())

    # All three modes are present in the mixture.
    for mode in ("NFA", "NBVA", "LNFA"):
        assert result.shares[mode].states > 0
        assert result.shares[mode].energy_uj > 0
        assert result.shares[mode].area_mm2 > 0

    # LNFA mode is the efficiency star: its energy share is far below
    # its STE share (power-gated tiles, no routing switches).
    assert result.fraction("LNFA", "energy_uj") < 0.7 * result.fraction(
        "LNFA", "states"
    )

    # NFA mode never consumes less energy than its state share warrants
    # (it is the uncompressed fallback).
    assert result.fraction("NFA", "energy_uj") > 0.6 * result.fraction(
        "NFA", "states"
    )

    # Shares are distributions.
    for metric in ("states", "energy_uj", "area_mm2"):
        total = sum(
            result.fraction(mode, metric) for mode in ("NFA", "NBVA", "LNFA")
        )
        assert abs(total - 1.0) < 1e-9
