"""Rebuild logical sessions from a raw request log.

The log below exercises the interesting cases: two sessions of one user
interleaved in time (tabbed browsing), a cache-consistent repeat request,
a referrer whose session has timed out, and a second user processed
independently.
"""

from webnav import Sessionizer, parse_log

LOG = """\
0\talice\t-\thttp://news.example/
5\talice\thttp://news.example/\thttp://news.example/world
30\talice\t-\thttp://wiki.example/Start
40\talice\thttp://wiki.example/Start\thttp://wiki.example/Graphs
55\talice\thttp://news.example/\thttp://news.example/local
70\talice\thttp://wiki.example/Start\thttp://wiki.example/Zipf
90\talice\thttp://news.example/world\thttp://news.example/world?page=2
2500\talice\thttp://wiki.example/Graphs\thttp://wiki.example/PowerLaw
2510\tbob\t-\thttp://news.example/
2520\tbob\thttp://news.example/\thttp://news.example/world
"""

records = list(parse_log(LOG.splitlines(), strip_query=True))
print(f"parsed {len(records)} requests from 2 users")

result = Sessionizer(timeout=1800).run(records)
names = result.names  # the log's ids: code i stands for names[i]
print(f"reconstructed {result.total_sessions} sessions:\n")
for d in result.descriptors:
    print(f"  {names[d.user]:<6} session {d.index}: root={names[d.root]:<28} "
          f"size={d.size} depth={d.depth} clicks={d.clicks}")

print("""
Notes: alice's news and wiki trees grow in parallel; the ?page=2 request
collapses onto the stripped URL already in the news tree (no new node);
the click at t=2500 arrives 2430s after the wiki tree's last request, so
it starts a fresh session instead of attaching.""")
(pages,), visits = result.tally.columns()[0]  # URL codes, in string order
print(f"page traffic: {dict(zip((names[p] for p in pages.tolist()), visits.tolist()))}")
