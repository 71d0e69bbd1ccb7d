"""Activity collection tests (the event source for every energy model)."""

import pytest

from repro.compiler import CompiledMode, CompilerConfig, compile_pattern
from repro.hardware.config import DEFAULT_CONFIG
from repro.mapping.binning import BinItem, plan_bins
from repro.simulators.activity import collect_bin_activity, collect_regex_activity


def compiled(pattern, mode=None, depth=8):
    return compile_pattern(
        pattern, 0, CompilerConfig(bv_depth=depth, forced_mode=mode)
    )


class TestRegexActivity:
    def test_nfa_activity(self):
        regex = compiled("ab*c", CompiledMode.NFA)
        activity = collect_regex_activity(regex, b"abbbc" * 4)
        assert activity.cycles == 20
        assert activity.matches == [4, 9, 14, 19]
        assert activity.active_state_cycles > 0
        assert activity.bv_phase_cycles == 0
        assert 0 < activity.mean_activity <= 3

    def test_nbva_activity(self):
        regex = compiled("za{12}")
        assert regex.mode is CompiledMode.NBVA
        data = b"z" + b"a" * 12 + b"x" * 10
        bv_cycles: list[int] = []
        activity = collect_regex_activity(regex, data, bv_cycles=bv_cycles)
        assert activity.matches == [12]
        # word alignment rewrote a{12} at depth 8 into a{8}aaaa: the
        # counter runs for 8 symbols, the unfolded tail for the rest
        assert activity.bv_phase_cycles == 8
        assert bv_cycles == list(range(1, 9))
        assert activity.set1_events > 0
        assert activity.shift_events > 0

    def test_lnfa_regex_rejected(self):
        regex = compiled("abcd")
        assert regex.mode is CompiledMode.LNFA
        with pytest.raises(ValueError):
            collect_regex_activity(regex, b"abcd")

    def test_anchored_activity(self):
        regex = compiled("^ab", CompiledMode.NFA)
        activity = collect_regex_activity(regex, b"abab")
        assert activity.matches == [1]

    def test_empty_input(self):
        regex = compiled("ab", CompiledMode.NFA)
        activity = collect_regex_activity(regex, b"")
        assert activity.cycles == 0
        assert activity.mean_activity == 0.0


class TestBinActivity:
    def bin_of(self, patterns, bin_size=8):
        items = []
        for k, pattern in enumerate(patterns):
            regex = compiled(pattern)
            assert regex.mode is CompiledMode.LNFA
            items.append(
                BinItem(
                    regex_id=k,
                    lnfa_index=0,
                    lnfa=regex.lnfas[0],
                    cam_eligible=True,
                )
            )
        bins = plan_bins(
            items, hw=DEFAULT_CONFIG, bin_size=bin_size, overlay_split=False
        )
        assert len(bins) == 1
        return bins[0]

    def test_matches_per_regex(self):
        bin_obj = self.bin_of(["abc", "xyz"])
        activity = collect_bin_activity(bin_obj, b"abc xyz abc", DEFAULT_CONFIG)
        assert activity.matches[0] == [2, 10]
        assert activity.matches[1] == [6]

    def test_initial_tile_always_awake(self):
        bin_obj = self.bin_of(["abcdefgh" * 12])  # long -> multiple tiles
        data = b"zzzz" * 25
        activity = collect_bin_activity(bin_obj, data, DEFAULT_CONFIG)
        assert activity.tile_active_cycles[0] == len(data)

    def test_downstream_tiles_gated_without_matches(self):
        bin_obj = self.bin_of(["abcdefgh" * 12])
        data = b"zzzz" * 25  # never matches the first state
        activity = collect_bin_activity(bin_obj, data, DEFAULT_CONFIG)
        assert all(c == 0 for c in activity.tile_active_cycles[1:])
        assert activity.woken_tile_cycles == len(data)

    def test_matching_prefix_wakes_downstream_tiles(self):
        pattern = "ab" * 80  # 160 states -> 2+ tiles at 128/region
        bin_obj = self.bin_of([pattern], bin_size=1)
        data = b"ab" * 90
        activity = collect_bin_activity(bin_obj, data, DEFAULT_CONFIG)
        assert bin_obj.tiles >= 2
        assert activity.tile_active_cycles[1] > 0

    def test_cycles_counted(self):
        bin_obj = self.bin_of(["abc"])
        activity = collect_bin_activity(bin_obj, b"x" * 37, DEFAULT_CONFIG)
        assert activity.cycles == 37
