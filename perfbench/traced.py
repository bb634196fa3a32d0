"""Run one tiltsense CLI command in this interpreter with tracing installed.

    python3 perfbench/traced.py <trace.json> <tiltsense argv...>

Records the import of the package as a span, installs the wrappers from
``tracing.install``, runs ``tiltsense.cli.main`` under a ``cli.main`` span and
writes every span and counter to <trace.json> when the command ends.  Exits
with the command's own exit code.
"""

import sys

import tracing


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    with tracer.span("import"):
        import tiltsense.cli as cli
    tracing.install(tracer)
    with tracer.span("cli.main"):
        code = cli.main(argv)
    tracer.dump(trace_path, argv=argv, exit_code=code, package=cli.__file__)
    return code


if __name__ == "__main__":
    sys.exit(main())
