"""The conformance matrix: every way to run a ruleset, against two oracles.

The paper checks its simulator against Hyperscan, an independent
matcher.  Here :class:`repro.automata.reference.ReferenceMatcher` (a
Thompson-construction NFA sharing no code with the compiler) plays that
role, cross-checked against Python's ``re`` on drawn patterns; the
serial ``python``-backend run is the second oracle, for everything the
matches do not show (cycle and activity counts, the energy ledger,
checkpoint documents).

**Axes.** A *cell* is one point of

* ruleset — drawn (hypothesis) patterns over the paper's four Fig. 9
  structures: linear (LNFA), general (NFA), counted (NBVA), each
  optionally ``^`` / ``$`` anchored; or a pinned ruleset: ``keywords64``,
  ``snort_nfa64`` and the Fig. 1 mix (``snort_mix16``);
* backend — ``python``, ``fused``, ``native``;
* mode — ``auto``, ``nfa``, ``dfa`` (soft overrides: an ineligible
  regex keeps the cost model's choice);
* ``input_jobs`` — 1, 2 (bulk scans only: durable scans and served
  sessions feed each segment whole);
* entry path — bulk ``scan``; a durable scan cut at every seam, its
  snapshot restored on every other backend; a served ``ScanSession``
  fed segment by segment; a SIGKILLed CLI scan resumed on another
  backend (subprocesses, pinned rulesets only);
* native knobs — ``HIT_BUFFER_ENTRIES``, event-buffer slack,
  ``LANE_DFA_MAX_STATES``, ``UNIT_DFA_MAX_STATES``, ``FOREST_ENTRIES``.

**What every cell asserts** (:mod:`tests.conformance.cells`):

* each regex's matches equal the reference matcher's;
* the whole ``SimulationResult`` — matches, cycle and state counts, the
  energy ledger — equals the serial ``python``-backend run of the same
  compiled ruleset;
* a ``fused`` or ``native`` cell really ran there: the backend resolves
  to itself, and on ``native`` every lane group and unit table the plan
  can compile is compiled — a cell never passes on a fallback;
* at every seam of a durable scan, the snapshot document is
  byte-identical on all three backends.  That identity is what makes a
  checkpoint portable, so restoring "backend A's document on backend B"
  restores the same bytes for every A; the cells still rotate the
  writer so every ordered pair is exercised;
* across modes, the NFA and DFA labels of one ruleset give one result
  when every regex took one of them (Siddique et al.), and an
  input-parallel scan composes back to the serial one (Sin'ya &
  Matsuzaki).

One drawn example runs every path in every setting, so its rulesets are
compiled, bound and (on ``native``) built into a shared object once
rather than once per suite.

**Adding a cell.** A new entry path is a function in ``cells`` taking a
:class:`~tests.conformance.cells.Case`, a mode and a backend, running
the path and ending in :func:`~tests.conformance.cells.assert_conforms`
(or comparing to ``case.reference(mode)`` directly); call it from
``test_every_path`` in ``test_matrix`` and, if it is cheap enough, from
``test_pinned``.  A new axis value is one more entry in ``MODES``,
``BACKENDS``, ``INPUT_JOBS`` or ``SWEEPS``.
"""
