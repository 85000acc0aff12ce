"""Tally comparison across the simulate and ingest pipelines."""

from webnav.session import column_list


def string_keyed(tally) -> tuple:
    """A tally's (pages, links, starts) as dicts keyed by string ids.

    A simulated tally keys pages by int id, an ingested one by the log's
    strings; the two pipelines agree when these dicts are equal. A page
    key is a 1-tuple, a link key a (src, dst) pair.
    """
    return tuple(
        dict(zip(zip(*(map(str, column_list(c)) for c in columns)),
                 counts.tolist()))
        for columns, counts in tally.columns())
