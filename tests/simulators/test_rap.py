"""RAP simulator tests: correctness, accounting, stalls, power gating."""

import pytest

from repro.automata.reference import ReferenceMatcher
from repro.compiler import CompiledMode, CompilerConfig, compile_ruleset
from repro.regex.parser import parse
from repro.simulators.rap import RAPSimulator

PATTERNS = ["ab{40}c", "a[bc]de", "xy*z", "p(?:q.*|r)s"]
DATA = (b"ab" * 30 + b"a" + b"b" * 40 + b"c" + b"xyyz" + b"pqs" + b"a[bc]de") * 3


def run(patterns=PATTERNS, data=DATA, depth=4, bin_size=None, **cfg):
    config = CompilerConfig(bv_depth=depth, **cfg)
    ruleset = compile_ruleset(patterns, config)
    assert not ruleset.rejected
    result = RAPSimulator().run(ruleset, data, bin_size=bin_size)
    return ruleset, result


class TestCorrectness:
    def test_matches_agree_with_reference(self):
        ruleset, result = run()
        for regex in ruleset:
            expected = ReferenceMatcher(parse(regex.pattern)).find_matches(DATA)
            assert result.matches[regex.regex_id] == expected, regex.pattern

    def test_all_modes_present_in_workload(self):
        ruleset, _ = run()
        modes = {r.mode for r in ruleset}
        assert modes == {
            CompiledMode.NBVA,
            CompiledMode.LNFA,
            CompiledMode.NFA,
            CompiledMode.DFA,
        }

    def test_empty_input(self):
        _, result = run(data=b"")
        assert result.match_count == 0
        assert result.energy_uj == 0.0

    def test_lnfa_union_matches_deduplicated(self):
        ruleset, result = run(patterns=["ab(?:c|.)d"], data=b"xabcdx")
        (regex,) = ruleset.regexes
        assert regex.mode is CompiledMode.LNFA
        expected = ReferenceMatcher(parse("ab(?:c|.)d")).find_matches(b"xabcdx")
        assert result.matches[0] == expected


class TestAccounting:
    def test_energy_positive_and_consistent(self):
        _, result = run()
        assert result.energy_uj > 0
        total = sum(result.energy_breakdown_pj.values())
        assert total == pytest.approx(result.energy_uj * 1e6)

    def test_area_positive_and_consistent(self):
        _, result = run()
        assert result.area_mm2 > 0
        total = sum(result.area_breakdown_um2.values())
        assert total == pytest.approx(result.area_mm2 * 1e6)

    def test_breakdown_components(self):
        _, result = run()
        assert "state-matching" in result.energy_breakdown_pj
        assert "bv-processing" in result.energy_breakdown_pj
        assert "tile" in result.area_breakdown_um2

    def test_power_and_efficiency_derived(self):
        _, result = run()
        assert result.power_w > 0
        assert result.energy_efficiency > 0
        assert result.compute_density > 0

    def test_energy_scales_with_input_length(self):
        _, short = run(data=DATA[: len(DATA) // 2])
        _, full = run()
        assert full.energy_uj > short.energy_uj


class TestThroughput:
    def test_nfa_only_runs_at_clock(self):
        _, result = run(patterns=["xy*z", "pq*r"])
        assert result.throughput_gchps == pytest.approx(2.08, rel=1e-6)
        assert result.stall_cycles == 0

    def test_bv_phases_stall(self):
        # Dense counting traffic: the counted symbol dominates the input.
        data = b"a" * 2000
        _, result = run(patterns=["ba{64}c", "a{100}x"], data=data, depth=8)
        assert result.stall_cycles > 0
        assert result.throughput_gchps < 2.08

    def test_deeper_bv_stalls_more(self):
        data = (b"b" + b"a" * 64 + b"c") * 20
        _, shallow = run(patterns=["ba{64}c"], data=data, depth=4)
        _, deep = run(patterns=["ba{64}c"], data=data, depth=32)
        assert deep.throughput_gchps < shallow.throughput_gchps

    def test_idle_counters_do_not_stall(self):
        # Input never activates the counted branch.
        _, result = run(patterns=["zq{50}v"], data=b"abcd" * 500)
        assert result.stall_cycles == 0


class TestModeEfficiency:
    """Mini Section 5.4: the mode-level claims at small scale."""

    def test_nbva_mode_beats_forced_nfa(self):
        # Realistic traffic: the counted suffix fires rarely (the paper's
        # "complex prefix leads to a low activation rate" observation).
        patterns = ["ab{120}c", "xy{90}z"]
        data = (b"the quick brown fox " * 20 + b"a" + b"b" * 120 + b"c") * 3
        nbva_rs = compile_ruleset(patterns, CompilerConfig(bv_depth=8))
        nfa_rs = compile_ruleset(
            patterns, CompilerConfig(forced_mode=CompiledMode.NFA)
        )
        sim = RAPSimulator()
        nbva = sim.run(nbva_rs, data)
        nfa = sim.run(nfa_rs, data)
        assert nbva.matches == nfa.matches
        assert nbva.energy_uj < nfa.energy_uj
        assert nbva.area_mm2 < nfa.area_mm2

    def test_lnfa_mode_beats_forced_nfa_on_energy(self):
        patterns = ["abcdefgh", "ijklmnop", "qrstuvwx", "wxyzabcd"]
        data = b"the quick brown fox jumps over the lazy dog " * 40
        lnfa_rs = compile_ruleset(patterns, CompilerConfig())
        nfa_rs = compile_ruleset(
            patterns, CompilerConfig(forced_mode=CompiledMode.NFA)
        )
        assert all(r.mode is CompiledMode.LNFA for r in lnfa_rs)
        sim = RAPSimulator()
        lnfa = sim.run(lnfa_rs, data, bin_size=4)
        nfa = sim.run(nfa_rs, data)
        assert lnfa.matches == nfa.matches
        assert lnfa.energy_uj < nfa.energy_uj

    def test_power_gating_cuts_lnfa_leakage(self):
        """Idle LNFA tiles leak at the retention floor, not full power."""
        pattern = "abcdefgh" * 20  # 160 states -> spans two tiles
        quiet = b"z" * 1500  # prefix never matches: downstream gated
        busy = b"abcdefgh" * 188  # constantly live everywhere
        ruleset = compile_ruleset([pattern], CompilerConfig())
        sim = RAPSimulator()
        leak_quiet = sim.run(ruleset, quiet, bin_size=1).metrics.leakage_w
        leak_busy = sim.run(ruleset, busy[:1500], bin_size=1).metrics.leakage_w
        assert leak_quiet < leak_busy

    def test_binning_saves_energy(self):
        patterns = [c * 8 for c in "abcdefgh"]
        data = b"zzzzzzzz" * 300  # no activity beyond initial states
        ruleset = compile_ruleset(patterns, CompilerConfig())
        sim = RAPSimulator()
        unbinned = sim.run(ruleset, data, bin_size=1)
        binned = sim.run(ruleset, data, bin_size=8)
        assert binned.matches == unbinned.matches
        assert binned.energy_uj < unbinned.energy_uj


# -- exactness pins ----------------------------------------------------------


def _activity(ruleset, data, bin_size=None):
    """A run's collected activity, with its ruleset and mapping
    (``python`` backend)."""
    from repro.core import use_backend
    from repro.simulators.rap import bind

    sim = RAPSimulator()
    with use_backend("python"):
        mapping = bind(ruleset, sim.hw, bin_size).mapping
        return ruleset, sim.collect_activities(ruleset, data, mapping), mapping


def _shed_first_bin(ruleset, data, cut):
    """The activity of a run whose first LNFA bin was frozen (shed) after
    ``cut`` bytes while every other unit ran to the end."""
    from repro.simulators.rap import RunActivity

    _, activity, mapping = _activity(ruleset, data)
    _, early, _ = _activity(ruleset, data[:cut])
    index = next(iter(activity.lnfa_bins))
    bins = dict(activity.lnfa_bins)
    bins[index] = [early.lnfa_bins[index][0]] + bins[index][1:]
    shed = RunActivity(activity.regex, bins, activity.input_symbols, activity.stalls)
    return ruleset, shed, mapping


def _pinned_activities():
    from tests.conformance.cells import pinned

    mix = pinned("snort_mix16")
    nfa = pinned("snort_nfa64")
    keywords = pinned("keywords64")
    stalling = compile_ruleset(PATTERNS, CompilerConfig(bv_depth=4))
    yield "lnfa", _activity(keywords.ruleset(), keywords.data)
    yield "lnfa_bin4", _activity(keywords.ruleset(), keywords.data, bin_size=4)
    yield "lnfa_shed", _shed_first_bin(keywords.ruleset(), keywords.data, 700)
    yield "nfa", _activity(nfa.ruleset(), nfa.data)
    yield "dfa", _activity(nfa.ruleset("dfa"), nfa.data)
    yield "mix", _activity(mix.ruleset(), mix.data)
    yield "mix_n0", _activity(mix.ruleset(), b"")
    yield "mix_n1", _activity(mix.ruleset(), mix.data[:1])
    yield "stalls", _activity(stalling, DATA)


def _priced(ruleset, activity, mapping):
    """Everything pricing produces, floats by ``float.hex``."""
    result = RAPSimulator().run_from_activity(ruleset, activity, mapping)
    metrics = result.metrics
    return {
        "energy": {k: v.hex() for k, v in result.energy_breakdown_pj.items()},
        "area": {k: v.hex() for k, v in result.area_breakdown_um2.items()},
        "totals": [
            metrics.energy_uj.hex(), metrics.area_mm2.hex(),
            metrics.leakage_w.hex(), metrics.cycles,
        ],
        "stalls": result.stall_cycles,
        "arrays": [
            [r.mode, r.tiles, r.cycles, r.stalls, r.throughput_gchps.hex()]
            for r in result.array_reports
        ],
    }


# Captured once from the pricer as it stood before the charge plan;
# any float that moves by one ulp fails its case.
PRICING_PINS = {
    "lnfa": {
        "energy": {
            "state-matching": "0x1.f374c00000000p+12",
            "local-control": "0x1.4edc800000000p+13",
            "ring-network": "0x1.de04189374bc8p+4",
            "global-control": "0x1.f400000000000p+11",
        },
        "area": {
            "tile": "0x1.b4c2000000000p+15",
            "ring-network": "0x1.4000000000000p+10",
            "array-overhead": "0x1.7de5000000000p+12",
        },
        "totals": [
            "0x1.7484c7b69e9e5p-6", "0x1.0341f212d7731p-4",
            "0x1.1bf1eeb25f3f3p-12", 2000,
        ],
        "stalls": 0,
        "arrays": [
            ["lnfa", 5, 2000, 0, "0x1.0a3d70a3d70a4p+1"],
        ],
    },
    "lnfa_bin4": {
        "energy": {
            "state-matching": "0x1.8165f80000000p+15",
            "local-control": "0x1.2b51000000000p+14",
            "global-control": "0x1.f400000000000p+11",
        },
        "area": {
            "tile": "0x1.060e000000000p+15",
            "ring-network": "0x1.4000000000000p+9",
            "array-overhead": "0x1.ca46000000000p+11",
        },
        "totals": [
            "0x1.28e85fd04a2fdp-4", "0x1.360f7fcfc3f81p-5",
            "0x1.25e8c7d516477p-12", 2000,
        ],
        "stalls": 0,
        "arrays": [
            ["lnfa", 3, 2000, 0, "0x1.0a3d70a3d70a4p+1"],
        ],
    },
    "lnfa_shed": {
        "energy": {
            "state-matching": "0x1.ef04400000000p+12",
            "local-control": "0x1.14cf800000000p+13",
            "ring-network": "0x1.605a1cac08314p+4",
            "global-control": "0x1.f400000000000p+11",
        },
        "area": {
            "tile": "0x1.b4c2000000000p+15",
            "ring-network": "0x1.4000000000000p+10",
            "array-overhead": "0x1.7de5000000000p+12",
        },
        "totals": [
            "0x1.54ca77aa52f1bp-6", "0x1.0341f212d7731p-4",
            "0x1.ff277adebc904p-13", 2000,
        ],
        "stalls": 0,
        "arrays": [
            ["lnfa", 5, 2000, 0, "0x1.0a3d70a3d70a4p+1"],
        ],
    },
    "nfa": {
        "energy": {
            "state-matching": "0x1.3880000000000p+16",
            "state-transition": "0x1.52d5b80000000p+14",
            "local-control": "0x1.3880000000000p+15",
            "global-control": "0x1.f400000000000p+11",
        },
        "area": {
            "tile": "0x1.b4c2000000000p+16",
            "array-overhead": "0x1.7de5000000000p+13",
        },
        "totals": [
            "0x1.2a5d1f601797dp-3", "0x1.fc0789613d31bp-4",
            "0x1.e9d94d0dcfcc6p-11", 2000,
        ],
        "stalls": 0,
        "arrays": [
            ["nfa", 10, 2000, 0, "0x1.0a3d70a3d70a4p+1"],
        ],
    },
    "dfa": {
        "energy": {
            "state-matching": "0x1.3880000000000p+16",
            "state-transition": "0x1.52d5b80000000p+14",
            "local-control": "0x1.3880000000000p+15",
            "global-control": "0x1.f400000000000p+11",
        },
        "area": {
            "tile": "0x1.b4c2000000000p+16",
            "array-overhead": "0x1.7de5000000000p+13",
        },
        "totals": [
            "0x1.2a5d1f601797dp-3", "0x1.fc0789613d31bp-4",
            "0x1.e9d94d0dcfcc6p-11", 2000,
        ],
        "stalls": 0,
        "arrays": [
            ["nfa", 10, 2000, 0, "0x1.0a3d70a3d70a4p+1"],
        ],
    },
    "mix": {
        "energy": {
            "state-matching": "0x1.07b0200000000p+14",
            "state-transition": "0x1.a389000000000p+12",
            "local-control": "0x1.9a28000000000p+13",
            "bv-processing": "0x1.77ed000000000p+16",
            "global-control": "0x1.f400000000000p+12",
        },
        "area": {
            "tile": "0x1.5d68000000000p+15",
            "ring-network": "0x0.0p+0",
            "array-overhead": "0x1.3184000000000p+12",
        },
        "totals": [
            "0x1.20aab47410731p-3", "0x1.966c6de76427cp-5",
            "0x1.87e10a717309ep-12", 21360,
        ],
        "stalls": 19360,
        "arrays": [
            ["nbva", 2, 21360, 19360, "0x1.8edc863b72190p-3"],
            ["nfa", 1, 2000, 0, "0x1.0a3d70a3d70a4p+1"],
            ["lnfa", 1, 2000, 0, "0x1.0a3d70a3d70a4p+1"],
        ],
    },
    "mix_n0": {
        "energy": {},
        "area": {
            "tile": "0x1.5d68000000000p+15",
            "ring-network": "0x0.0p+0",
            "array-overhead": "0x1.3184000000000p+12",
        },
        "totals": [
            "0x0.0p+0", "0x1.966c6de76427cp-5",
            "0x1.87e10a717309ep-12", 0,
        ],
        "stalls": 0,
        "arrays": [
            ["nbva", 2, 0, 0, "0x0.0p+0"],
            ["nfa", 1, 0, 0, "0x0.0p+0"],
            ["lnfa", 1, 0, 0, "0x0.0p+0"],
        ],
    },
    "mix_n1": {
        "energy": {
            "state-matching": "0x1.0d80000000000p+3",
            "state-transition": "0x1.8000000000000p+1",
            "local-control": "0x1.a400000000000p+2",
            "global-control": "0x1.0000000000000p+2",
        },
        "area": {
            "tile": "0x1.5d68000000000p+15",
            "ring-network": "0x0.0p+0",
            "array-overhead": "0x1.3184000000000p+12",
        },
        "totals": [
            "0x1.70d62bf11f926p-16", "0x1.966c6de76427cp-5",
            "0x1.87e10a717309ep-12", 1,
        ],
        "stalls": 0,
        "arrays": [
            ["nbva", 2, 1, 0, "0x1.0a3d70a3d70a4p+1"],
            ["nfa", 1, 1, 0, "0x1.0a3d70a3d70a4p+1"],
            ["lnfa", 1, 1, 0, "0x1.0a3d70a3d70a4p+1"],
        ],
    },
    "stalls": {
        "energy": {
            "state-matching": "0x1.6b12000000000p+10",
            "state-transition": "0x1.78f2000000000p+9",
            "local-control": "0x1.6170000000000p+10",
            "bv-processing": "0x1.e744000000000p+11",
            "global-control": "0x1.5c00000000000p+10",
        },
        "area": {
            "tile": "0x1.060e000000000p+15",
            "ring-network": "0x0.0p+0",
            "array-overhead": "0x1.ca46000000000p+11",
        },
        "totals": [
            "0x1.23f6e3f78bbd3p-7", "0x1.30d1526d8b1ddp-5",
            "0x1.25e8c7d516477p-12", 1188,
        ],
        "stalls": 840,
        "arrays": [
            ["nbva", 1, 1188, 840, "0x1.37f53e29fe8d5p-1"],
            ["nfa", 1, 348, 0, "0x1.0a3d70a3d70a4p+1"],
            ["lnfa", 1, 348, 0, "0x1.0a3d70a3d70a4p+1"],
        ],
    },
}


class TestPricingPins:
    """The pricer's every float, bit for bit, on fixed activities: the
    LNFA / NFA / DFA / mixed pinned rulesets, two bin sizes, a shed bin,
    ``n = 0`` and ``n = 1``, and an NBVA array that stalls."""

    @pytest.fixture(scope="class")
    def cases(self):
        return dict(_pinned_activities())

    @pytest.mark.parametrize("name", sorted(PRICING_PINS))
    def test_priced_exactly(self, cases, name):
        assert _priced(*cases[name]) == PRICING_PINS[name]

    def test_pins_cover_stalls_and_empty_runs(self):
        assert PRICING_PINS["stalls"]["stalls"] > 0
        assert PRICING_PINS["mix"]["stalls"] > 0
        assert PRICING_PINS["mix_n0"]["energy"] == {}
        modes = {a[0] for pin in PRICING_PINS.values() for a in pin["arrays"]}
        assert modes == {"lnfa", "nfa", "nbva"}

    @pytest.mark.parametrize("name", sorted(PRICING_PINS))
    def test_a_binding_prices_as_a_fresh_one_and_quotes_the_same(self, cases, name):
        """One activity priced twice through one binding and once through
        a fresh binding: every breakdown float, in order, and the leakage
        by ``float.hex``; the served quote is the priced energy."""
        from repro.simulators.rap import Binding

        ruleset, activity, mapping = cases[name]
        sim = RAPSimulator()
        bound = Binding(ruleset, mapping, sim.hw)

        def priced(binding):
            result = sim.run_from_activity(ruleset, activity, mapping, binding=binding)
            return result, [
                [(k, v.hex()) for k, v in result.energy_breakdown_pj.items()],
                [(k, v.hex()) for k, v in result.area_breakdown_um2.items()],
                result.metrics.leakage_w.hex(),
            ]

        first, hexed = priced(bound)
        assert priced(bound)[1] == hexed
        assert priced(Binding(ruleset, mapping, sim.hw))[1] == hexed
        quote = sim.replay_charges(
            bound.charges, activity.regex, activity.lnfa_bins, activity.input_symbols
        )
        assert [(k, v.hex()) for k, v in quote.energy_breakdown().items()] == hexed[0]
        assert quote.energy_uj.hex() == first.metrics.energy_uj.hex()

    def test_a_second_pricing_replays_the_same_floats(self, cases):
        ruleset, activity, mapping = cases["mix"]
        sim = RAPSimulator()
        first = sim.run_from_activity(ruleset, activity, mapping)
        again = sim.run_from_activity(ruleset, activity, mapping)
        assert repr(first) == repr(again)

    def test_each_circuit_library_prices_its_own(self, cases):
        """A binding keeps the prices of the last simulator's circuits:
        another library through the same binding prices as it would
        through a binding of its own, and the default's are unharmed."""
        import dataclasses

        from repro.hardware.circuits import TABLE1
        from repro.simulators.rap import Binding

        ruleset, activity, mapping = cases["lnfa"]
        cam, wire = TABLE1.cam, TABLE1.global_wire_mm
        library = dataclasses.replace(
            TABLE1,
            cam=dataclasses.replace(cam, energy_max_pj=cam.energy_max_pj * 1.5),
            global_wire_mm=dataclasses.replace(
                wire, energy_max_pj=wire.energy_max_pj * 3
            ),
        )
        default = RAPSimulator().run_from_activity(ruleset, activity, mapping)
        scaled = RAPSimulator(circuits=library)
        own = Binding(ruleset, mapping, scaled.hw)
        priced = scaled.run_from_activity(ruleset, activity, mapping)
        assert repr(priced) == repr(
            scaled.run_from_activity(ruleset, activity, mapping, binding=own)
        )
        assert priced.energy_breakdown_pj != default.energy_breakdown_pj
        again = RAPSimulator().run_from_activity(ruleset, activity, mapping)
        assert repr(again) == repr(default)
