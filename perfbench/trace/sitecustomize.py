"""Start the benchmark's tracer in every process of a traced repetition.

Python imports ``sitecustomize`` at start-up from ``sys.path``; the traced
run puts this directory on ``PYTHONPATH`` and names a trace directory in
``PERFBENCH_TRACE_DIR``, so spawn-pool workers are traced like the parent.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_trace

    perfbench_trace.activate(os.environ["PERFBENCH_TRACE_DIR"])
