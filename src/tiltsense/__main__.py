"""Process entry of the command line: ``python -m tiltsense`` and the ``tiltsense`` script.

``main`` runs ``tiltsense.cli.main`` on the process arguments and exits with
its code.  It keeps the cyclic garbage collector off for the whole short-lived
process: a command leaves a fixed number of reference cycles, mostly its
argparse parser, however many rows or trials it runs, so collecting them
buys nothing.  The collections that importing numpy would trigger are skipped,
and ``gc.freeze`` before exit lets the interpreter's shutdown collections pass
over the heap it is about to discard.  In-process callers of ``cli.main``
keep their own collector settings.  Importing this module runs nothing.
"""

import gc
import sys


def main():
    gc.disable()
    # imported here, so that the CLI's layers load with the collector off
    from .cli import main as run_command

    code = run_command()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
