"""Tally builders and comparisons across the simulate and ingest pipelines."""

from webnav.session import ArrayTally, TrafficTally, id_order


def str_columns(tally, names=None) -> tuple:
    """A tally's columns() as lists, rows in stored order, ids as strs.

    A simulated tally keys pages by int id, an ingested one by codes into
    its result's names, through which its ids are read; a re-ingested
    export writes the simulation's rows when these are equal.
    """
    def ids(column):
        return column.tolist() if names is None else [names[i] for i in column.tolist()]

    return tuple(
        ([[str(x) for x in ids(c)] for c in columns], counts.tolist())
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

    The ids, integers or a log's strings, are coded as Sessionizer.run
    codes a log's, each as its rank in id_order, and the counted keys are
    read back through that vocabulary. A page or start key is its id, a
    link key the (src, dst) pair.
    """
    names = id_order({page for tally in tallies for page in (*tally.ref, *tally.dst)
                      if page is not None})
    code = dict(zip(names, range(len(names))))
    coded = []
    for tally in tallies:
        coded.append(TrafficTally())
        coded[-1].ref = [None if ref is None else code[ref] for ref in tally.ref]
        coded[-1].dst = [code[dst] for dst in tally.dst]

    def ids(column):
        return [names[i] for i in column.tolist()]

    return tuple(
        dict(zip(zip(*map(ids, columns)) if len(columns) == 2 else ids(columns[0]),
                 n.tolist()))
        for columns, n in ArrayTally.of(*coded).columns())


def tally_of(starts=(), links=()) -> TrafficTally:
    """A TrafficTally of the session roots starts, then the clicks links."""
    tally = TrafficTally()
    for ref, dst in [(None, root) for root in starts] + list(links):
        tally.ref.append(ref)
        tally.dst.append(dst)
    return tally
