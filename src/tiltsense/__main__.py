"""Process entry of the command line: ``python -m tiltsense`` and the ``tiltsense`` script.

``main`` runs ``tiltsense.cli.main`` on the process arguments, flushes stdout
and stderr, and ends the process with ``os._exit`` and the command's code,
which skips the interpreter's teardown: the module and object clean-up of a
process that is about to end anyway.  That is safe because every file a
command writes is closed, by ``with`` or ``Path.write_text``, before
``cli.main`` returns, and the package registers no ``atexit`` handler and
starts no thread or process, so nothing is left to run or flush.
``tests/test_imports.py`` checks both by parsing the source.  A ``SystemExit``
(argparse's ``--help``, ``--version`` and usage errors) and an uncaught
exception take the interpreter's usual exit.

When the reader of stdout has gone (``tiltsense sweep ... | true``), a command
has already written its files, since it prints only after; stdout is then
pointed at ``os.devnull`` and the process exits 1 with no traceback.

The entry keeps the cyclic garbage collector off for the whole short-lived
process: a command leaves a fixed number of reference cycles, mostly its
argparse parser, however many rows or trials it runs, so collecting them buys
nothing, and the collections that importing numpy would trigger are skipped.
In-process callers of ``cli.main`` keep their own collector settings and the
usual exit.  Importing this module runs nothing.
"""

import gc
import os
import sys


def main():
    gc.disable()
    # imported here, so that the CLI's layers load with the collector off
    from .cli import main as run_command

    try:
        code = run_command()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone: as the Note on SIGPIPE in the docs of
        # the signal module does, point stdout at os.devnull, so that no later
        # flush of what it still buffers raises again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
