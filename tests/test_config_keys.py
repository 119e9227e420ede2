"""Guard: every ExperimentConfig field is set by exactly one row of the key table.

``experiments._KEYS`` maps each (section, key) of the INI config to the
ExperimentConfig field it sets, the field's converter and, for the two fields
that take two keys (``area`` and ``tx``), the slot of their (x, y) pair. The
config file and the command-line overrides both go through it. A field
without a row could not be set from a config file, a row naming a missing
field would fail at parse time, and two rows writing one field would let the
later key silently win.
"""

import dataclasses
from collections import Counter

from rssfield.experiments import _KEYS, ExperimentConfig

FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _targets():
    """(field, slot) written by each row; slot None means the whole field."""
    return [(field, slot) for field, _, slot in _KEYS.values()]


def test_every_field_has_a_row():
    missing = sorted(FIELDS - {field for field, _ in _targets()})
    assert not missing, f"ExperimentConfig fields without a key-table row: {missing}"


def test_every_row_names_a_field():
    unknown = sorted({field for field, _ in _targets()} - FIELDS)
    assert not unknown, f"key-table rows naming no ExperimentConfig field: {unknown}"


def test_no_two_rows_write_the_same_field():
    slots = {}
    for field, slot in _targets():
        slots.setdefault(field, []).append(slot)
    clashes = {
        field: [key for key, row in _KEYS.items() if row[0] == field]
        for field, taken in slots.items()
        if Counter(taken) != Counter([None]) and Counter(taken) != Counter([0, 1])
    }
    assert not clashes, (
        "fields written by more than one row (a field takes one key, or one key "
        f"per slot of its (x, y) pair): {clashes}"
    )
