"""Installs the benchmark tracer in every Python process of a traced run.

The traced run puts this directory on ``PYTHONPATH`` and names a trace
directory in ``PERFBENCH_TRACE_DIR``; interpreters started by the program,
such as spawned pool workers, inherit both and trace themselves too.
"""

import pbtrace

pbtrace.install_from_env()
