"""Run one isoshare CLI command in this process with the call tracer on.

Usage: cli_child.py DUMP PHASE MODULES CLI-ARGS...

MODULES is `all` or a comma-separated list of isoshare modules to trace.
The command's output and exit code are those of `python -m isoshare.cli`;
the tracer's statistics for the command, charged to PHASE, go to DUMP as
JSON.
"""

import json
import sys

import tracer


def main():
    dump, phase, modules = sys.argv[1:4]
    chosen = tracer.MODULES if modules == "all" else tuple(modules.split(","))
    active = tracer.Tracer(chosen).install()
    import isoshare.cli

    with active.phase(phase):
        code = isoshare.cli.main(sys.argv[4:])
    active.uninstall()
    with open(dump, "w") as fh:
        json.dump(active.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
