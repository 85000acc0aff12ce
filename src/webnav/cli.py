"""Command line front end.

Exit codes: 0 success, 2 configuration error, 3 I/O or parse error,
4 empty or unusable data.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (ConfigurationError, DataError, ParseError,
                     StatisticsError, WebnavError)
from .ingest import DEFAULT_TIMEOUT
from .run import (_CONFIG_KEYS, RunManifest, _float, build_config, compare_runs,
                  convert_option, format_comparison, parse_config_file,
                  run_ingest, run_simulation)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_EMPTY = 4

# (error classes, exit code): the first match wins, so the WebnavError
# base comes last; EmptyDataError exits as the DataError it is
_EXIT_CODES = (
    ((ConfigurationError, StatisticsError), EXIT_CONFIG),
    ((ParseError, OSError), EXIT_IO),
    (DataError, EXIT_EMPTY),
    (WebnavError, EXIT_CONFIG),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webnav",
        description="Simulate Web navigation models and analyze traffic logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a navigation model")
    sim.add_argument("--config", help="flat key = value config file")
    for key, (_, conv, help_) in _CONFIG_KEYS.items():
        flag_kind = {"action": "store_const", "const": True} if conv is None else {}
        sim.add_argument("--" + key.replace("_", "-"), dest=key, help=help_,
                         **flag_kind)

    ing = sub.add_parser("ingest", help="rebuild sessions from a request log")
    ing.add_argument("log", help="TSV request log (timestamp, user, referrer, target)")
    ing.add_argument("--out", required=True, help="output directory")
    ing.add_argument("--timeout", default=DEFAULT_TIMEOUT,
                     help="session inactivity timeout in seconds")
    ing.add_argument("--strip-query", action="store_true",
                     help="drop ?query suffixes from URLs")
    ing.add_argument("--extensions",
                     help="comma-separated page extension allowlist")

    cmp_ = sub.add_parser("compare", help="compare two run manifests")
    cmp_.add_argument("manifest_a")
    cmp_.add_argument("manifest_b")
    return parser


def _cmd_simulate(args) -> int:
    options = {}
    if args.config:
        options.update(parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            options[key] = value
    config = build_config(options)
    manifest = run_simulation(config)
    print(f"wrote {manifest.path}")
    print(f"sessions={manifest['total_sessions']} clicks={manifest['total_clicks']} "
          f"mean_size={manifest['mean_session_size']}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    extensions = None
    if args.extensions:
        extensions = [e for e in args.extensions.split(",") if e]
    timeout = convert_option("timeout", _float, args.timeout)
    manifest = run_ingest(args.log, args.out, timeout=timeout,
                          strip_query=args.strip_query,
                          page_extensions=extensions)
    print(f"wrote {manifest.path}")
    print(f"users={manifest['n_users']} sessions={manifest['total_sessions']} "
          f"mean_size={manifest['mean_session_size']}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    a = RunManifest.load(args.manifest_a)
    b = RunManifest.load(args.manifest_b)
    rows = compare_runs(a, b)
    print(format_comparison(rows, args.manifest_a, args.manifest_b))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        return _cmd_compare(args)
    except (WebnavError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
