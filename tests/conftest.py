"""Pin BLAS to one thread and echo acceptance verdict records after the
run, outside output capture."""
import os

# OpenBLAS reads these once, when NumPy first loads it; nothing has imported
# NumPy yet when pytest loads this file.  Explicit settings still win.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.VERDICT_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in test_acceptance.VERDICT_LINES:
            terminalreporter.write_line(line)
