"""Reference trace query for index parity checks.

The plainest answer to ``Trace.records(category, subject, predicate)``:
one ordered scan over every record, matching the category exactly.  The
property test in ``test_sim_trace.py`` runs the same queries through it
and through the trace's index.
"""


def reference_records(trace, category, subject=None, predicate=None):
    """Records of ``trace`` matching the query, in log order."""
    out = []
    for rec in trace:
        if rec.category != category:
            continue
        if subject is not None and rec.subject != subject:
            continue
        if predicate is not None and not predicate(rec):
            continue
        out.append(rec)
    return out
