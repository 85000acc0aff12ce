"""Tally builders and comparisons across the simulate and ingest pipelines."""

from webnav.session import ArrayTally, TrafficTally, column_list


def str_columns(tally) -> tuple:
    """A tally's columns() as lists, rows in stored order, ids as strs.

    A simulated tally keys pages by int id, an ingested one by the log's
    strings; a re-ingested export writes the simulation's rows when these
    are equal.
    """
    return tuple(
        ([[str(x) for x in column_list(c)] for c in columns], counts.tolist())
        for columns, counts in tally.columns())


def id_key(page):
    """The order of session.id_order, spelled out as a sort key.

    Integers as they are; strings ASCII-decimal first, by length and then
    string order, then every other string in string order.
    """
    if isinstance(page, int):
        return page
    decimal = page.isascii() and page.isdecimal()
    return not decimal, len(page) if decimal else 0, page


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
