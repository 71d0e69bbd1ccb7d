"""Bench: regenerate Fig. 1 (model mix per benchmark)."""

from repro.experiments import fig01_model_mix


def test_fig01_model_mix(config):
    result = fig01_model_mix.run(config)
    print()
    print(result.to_table())

    # Shape: the paper's explicit qualitative statements about Fig. 1.
    assert result.row("RegexLib").nfa > 0.5, "RegexLib is NFA-dominated"
    assert result.row("ClamAV").nbva > 0.8, "ClamAV is >80% NBVA"
    assert result.row("Prosite").nbva == 0.0, "Prosite has no NBVA regexes"
    assert result.row("Prosite").lnfa > 0.5, "Prosite is LNFA-majority"
    assert result.row("SpamAssassin").lnfa > 0.5, "SpamAssassin LNFA-majority"
    assert result.row("Yara").nbva > 0.5, "Yara is NBVA-dominated"
    for name in ("Snort", "Suricata"):
        row = result.row(name)
        # mixed NFA/NBVA workloads with similar shares
        assert abs(row.nfa - row.nbva) < 0.25
    # fractions are proper distributions
    for row in result.rows:
        assert abs(row.nfa + row.nbva + row.lnfa - 1.0) < 1e-9
