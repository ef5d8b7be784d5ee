"""Reference trace query for index parity checks.

The plainest answer to ``Trace.records(category, subject, predicate)``:
one ordered scan over every record, matching the category exactly.  The
property test in ``test_sim_trace.py`` runs the same queries through it
and through the trace's index, and checks ``select``, ``times`` and
``data_values`` against the same scan.
"""


def reference_records(records, category, subject=None, predicate=None):
    """The matching members of ``records`` (any iterable of records, a
    ``Trace`` included), in order."""
    out = []
    for rec in records:
        if rec.category != category:
            continue
        if subject is not None and rec.subject != subject:
            continue
        if predicate is not None and not predicate(rec):
            continue
        out.append(rec)
    return out
