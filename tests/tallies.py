"""Tally builders and comparisons across the simulate and ingest pipelines."""

from webnav.session import ArrayTally, TrafficTally, column_list


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


def tally_counts(*tallies: TrafficTally) -> tuple:
    """(pages, links, starts) of TrafficTallies as dicts, by ArrayTally.of.

    A page or start key is its id, a link key the (src, dst) pair.
    """
    return tuple(
        dict(zip(zip(*map(column_list, columns)) if len(columns) == 2
                 else column_list(columns[0]), n.tolist()))
        for columns, n in ArrayTally.of(*tallies).columns())


def tally_of(starts=(), links=()) -> TrafficTally:
    """A TrafficTally of the session roots starts, then the clicks links."""
    tally = TrafficTally()
    for ref, dst in [(None, root) for root in starts] + list(links):
        tally.ref.append(ref)
        tally.dst.append(dst)
    return tally
