"""JSON (de)serialization of compiled rulesets.

The format is versioned and self-describing; character classes serialize
as hex-encoded 256-bit masks, keeping the files compact and exact (no
round-trip through pattern syntax).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

from repro.automata.glushkov import (
    Automaton,
    CounterGroup,
    Edge,
    EdgeAction,
    Position,
    ReadKind,
)
from repro.automata.lnfa import LNFA
from repro.compiler.program import (
    CompiledMode,
    CompiledRegex,
    CompiledRuleset,
    TileRequest,
)
from repro.hardware.config import TileMode
from repro.regex.charclass import CharClass

FORMAT_NAME = "rap-repro-ruleset"
FORMAT_VERSION = 1


class SerializationError(ValueError):
    """Raised when a document cannot be decoded."""


# -- character classes ---------------------------------------------------------


def _cc_to_json(cc: CharClass) -> str:
    return f"{cc.mask:064x}"


def _cc_from_json(text: str) -> CharClass:
    try:
        return CharClass(int(text, 16))
    except ValueError as err:
        raise SerializationError(f"bad character-class mask: {text!r}") from err


# -- automata -----------------------------------------------------------------


def automaton_to_json(automaton: Automaton) -> dict:
    """Automaton -> JSON-ready dict."""
    return {
        "positions": [
            {"cc": _cc_to_json(p.cc), "group": p.group}
            for p in automaton.positions
        ],
        "edges": [
            [e.src, e.dst, e.action.value] for e in automaton.edges
        ],
        "groups": [
            {
                "width": g.width,
                "read": g.read.name,
                "read_bound": g.read_bound,
                "positions": list(g.positions),
            }
            for g in automaton.groups
        ],
        "initial": sorted(automaton.initial),
        "finals": sorted(automaton.finals),
        "nullable": automaton.nullable,
    }


def automaton_from_json(doc: dict) -> Automaton:
    """JSON dict -> validated Automaton."""
    try:
        positions = tuple(
            Position(pid=i, cc=_cc_from_json(p["cc"]), group=p["group"])
            for i, p in enumerate(doc["positions"])
        )
        edges = tuple(
            Edge(src, dst, EdgeAction(action))
            for src, dst, action in doc["edges"]
        )
        groups = tuple(
            CounterGroup(
                gid=gid,
                width=g["width"],
                read=ReadKind[g["read"]],
                read_bound=g["read_bound"],
                positions=tuple(g["positions"]),
            )
            for gid, g in enumerate(doc["groups"])
        )
        automaton = Automaton(
            positions=positions,
            edges=edges,
            groups=groups,
            initial=frozenset(doc["initial"]),
            finals=frozenset(doc["finals"]),
            nullable=doc["nullable"],
        )
    except (KeyError, TypeError, ValueError) as err:
        raise SerializationError(f"malformed automaton document: {err}") from err
    automaton.validate()
    return automaton


# -- tile requests ---------------------------------------------------------


def _tile_request_to_json(request: TileRequest) -> dict:
    return {
        "mode": request.mode.value,
        "states": request.states,
        "cc_columns": request.cc_columns,
        "bv_columns": request.bv_columns,
        "set1_columns": request.set1_columns,
        "depth": request.depth,
        "read": request.read.name if request.read else None,
        "global_ports": request.global_ports,
    }


def _tile_request_from_json(doc: dict) -> TileRequest:
    return TileRequest(
        mode=TileMode(doc["mode"]),
        states=doc["states"],
        cc_columns=doc["cc_columns"],
        bv_columns=doc["bv_columns"],
        set1_columns=doc["set1_columns"],
        depth=doc["depth"],
        read=ReadKind[doc["read"]] if doc["read"] else None,
        global_ports=doc["global_ports"],
    )


# -- compiled regexes ---------------------------------------------------------


def _regex_to_json(regex: CompiledRegex) -> dict:
    return {
        "regex_id": regex.regex_id,
        "pattern": regex.pattern,
        "mode": regex.mode.value,
        "automaton": (
            automaton_to_json(regex.automaton) if regex.automaton else None
        ),
        "lnfas": [
            [_cc_to_json(cc) for cc in lnfa.labels] for lnfa in regex.lnfas
        ],
        "lnfa_cam_eligible": list(regex.lnfa_cam_eligible),
        "tile_requests": [
            _tile_request_to_json(t) for t in regex.tile_requests
        ],
        "source_states": regex.source_states,
        "unfolded_states": regex.unfolded_states,
        "anchored_start": regex.anchored_start,
        "anchored_end": regex.anchored_end,
    }


def _regex_from_json(doc: dict) -> CompiledRegex:
    try:
        return CompiledRegex(
            regex_id=doc["regex_id"],
            pattern=doc["pattern"],
            mode=CompiledMode(doc["mode"]),
            automaton=(
                automaton_from_json(doc["automaton"])
                if doc["automaton"]
                else None
            ),
            lnfas=tuple(
                LNFA(tuple(_cc_from_json(cc) for cc in labels))
                for labels in doc["lnfas"]
            ),
            lnfa_cam_eligible=tuple(doc["lnfa_cam_eligible"]),
            tile_requests=tuple(
                _tile_request_from_json(t) for t in doc["tile_requests"]
            ),
            source_states=doc["source_states"],
            unfolded_states=doc["unfolded_states"],
            anchored_start=doc.get("anchored_start", False),
            anchored_end=doc.get("anchored_end", False),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise SerializationError(f"malformed regex document: {err}") from err


# -- rulesets ---------------------------------------------------------------


def ruleset_to_json(ruleset: CompiledRuleset) -> dict:
    """CompiledRuleset -> versioned JSON document."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "regexes": [_regex_to_json(r) for r in ruleset.regexes],
        "rejected": [list(item) for item in ruleset.rejected],
    }


def ruleset_from_json(doc: dict) -> CompiledRuleset:
    """Versioned JSON document -> CompiledRuleset."""
    if doc.get("format") != FORMAT_NAME:
        raise SerializationError(
            f"not a {FORMAT_NAME} document (format={doc.get('format')!r})"
        )
    if doc.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported version {doc.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return CompiledRuleset(
        regexes=tuple(_regex_from_json(r) for r in doc["regexes"]),
        rejected=tuple((p, reason) for p, reason in doc.get("rejected", [])),
    )


def save_ruleset(ruleset: CompiledRuleset, path: str | Path) -> Path:
    """Write a compiled ruleset to ``path`` as JSON."""
    path = Path(path)
    with open(path, "w") as f:
        json.dump(ruleset_to_json(ruleset), f)
    return path


def load_ruleset(path: str | Path) -> CompiledRuleset:
    """Read a compiled ruleset previously written by :func:`save_ruleset`."""
    with open(path) as f:
        doc = json.load(f)
    return ruleset_from_json(doc)


def loads_ruleset(text: str) -> CompiledRuleset:
    """Parse a ruleset from a JSON string."""
    return ruleset_from_json(json.loads(text))


def _fingerprint_default(value):
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"unhashable fingerprint component: {value!r}")


def scan_fingerprint(
    ruleset,
    hw,
    bin_size: int | None = None,
    fused_layout: str | None = None,
) -> str:
    """Content hash identifying one scan's execution semantics.

    Covers everything that determines a durable scan's behavior apart
    from the input bytes: the serialized ruleset, the full hardware
    config, the bin size, and this serializer's format version.
    ``fused_layout`` is the fused-ruleset signature (class map + lane
    layout) when the scan runs on the ``fused`` backend, ``None``
    otherwise — a checkpoint written under one fusion layout (or none)
    must never be resumed under another.  Same idea as the
    compile-cache key, applied to mid-stream state instead of compiler
    output.  Nothing about parallelism is covered: a durable scan feeds
    every segment whole, whatever ``--input-jobs`` says.

    When the ruleset contains a DFA-mode regex the fingerprint also
    covers :data:`~repro.core.registry.DFA_FORMAT_VERSION` — a
    checkpoint carrying DFA scanner state must not be restored under a
    different subset-construction/table encoding.  Rulesets without a
    DFA regex keep their pre-DFA fingerprints byte-stable.
    """
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "ruleset": ruleset_to_json(ruleset),
        "hw": dataclasses.asdict(hw),
        "bin_size": bin_size,
        "fused_layout": fused_layout,
    }
    if any(r.mode is CompiledMode.DFA for r in ruleset.regexes):
        from repro.core.registry import DFA_FORMAT_VERSION

        doc["dfa_format"] = DFA_FORMAT_VERSION
    canonical = json.dumps(
        doc,
        sort_keys=True,
        separators=(",", ":"),
        default=_fingerprint_default,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()
